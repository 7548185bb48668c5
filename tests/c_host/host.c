/* A host simulator in C that embeds CPython and drives movestar.flatapi.
 *
 *   gcc host.c -o host $(python3-config --embed --cflags --ldflags)
 *   PYTHONPATH=src ./host CODE... < speeds
 *
 * Each argument is a vehicle code (1 = LDV, 2 = LDT; any other code fails
 * `create`, which leaves handle 0). The host creates one vehicle per code.
 * Each stdin line is one tick: its k-th number, as strtod reads it, is the
 * speed in m/s that steps vehicle k, and vehicles past the line's last number
 * sit the tick out. After each tick the host polls every vehicle's totals. At
 * the end of input it finalizes and destroys every vehicle, then calls
 * step, totals, finalize and destroy again on each released handle.
 *
 * Every call prints one line: the function's name, the vehicle's index and
 * each value returned, ints with %ld and floats with %.17g, so that equal
 * lines mean bit-identical results. `host.py` is the same host in Python.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>

static PyObject *flatapi;

/* Print one returned value; only exact ints and floats cross the surface. */
static int print_value(PyObject *x)
{
    if (PyFloat_CheckExact(x)) {
        printf(" %.17g", PyFloat_AS_DOUBLE(x));
        return 0;
    }
    if (PyLong_CheckExact(x)) {
        long n = PyLong_AsLong(x);
        if (n == -1 && PyErr_Occurred())
            return -1;
        printf(" %ld", n);
        return 0;
    }
    PyErr_Format(PyExc_TypeError, "flatapi returned a %s", Py_TYPE(x)->tp_name);
    return -1;
}

/* Call flatapi.NAME with the arguments that FORMAT builds (Py_BuildValue)
 * and print its line; if HANDLE is not NULL, store the second value of the
 * result there (the handle that `create` returns). Returns 0, or -1 with a
 * Python error set. */
static int call(const char *name, long vehicle, long *handle, const char *format, ...)
{
    va_list va;
    va_start(va, format);
    PyObject *args = Py_VaBuildValue(format, va);
    va_end(va);
    if (args == NULL)
        return -1;
    PyObject *fn = PyObject_GetAttrString(flatapi, name);
    PyObject *result = fn == NULL ? NULL : PyObject_CallObject(fn, args);
    Py_XDECREF(fn);
    Py_DECREF(args);
    if (result == NULL)
        return -1;
    int status = 0;
    printf("%s %ld", name, vehicle);
    if (PyTuple_Check(result)) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(result) && status == 0; i++)
            status = print_value(PyTuple_GET_ITEM(result, i));
    } else {
        status = print_value(result);
    }
    printf("\n");
    if (status == 0 && handle != NULL) {
        if (!PyTuple_Check(result) || PyTuple_GET_SIZE(result) != 2) {
            PyErr_SetString(PyExc_TypeError, "create returned no (status, handle) pair");
            status = -1;
        } else {
            *handle = PyLong_AsLong(PyTuple_GET_ITEM(result, 1));
            if (*handle == -1 && PyErr_Occurred())
                status = -1;
        }
    }
    Py_DECREF(result);
    return status;
}

static int run(int n, char **codes)
{
    long *handles = calloc(n > 0 ? n : 1, sizeof *handles);
    if (handles == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int status = -1;
    char *line = NULL;
    size_t size = 0;

    for (int k = 0; k < n; k++)
        if (call("create", k, &handles[k], "(l)", strtol(codes[k], NULL, 10)) < 0)
            goto done;
    while (getline(&line, &size, stdin) != -1) {
        char *p = line, *end;
        for (int k = 0; k < n; k++) {
            double speed = strtod(p, &end);
            if (end == p)
                break;
            p = end;
            if (call("step", k, NULL, "(ld)", handles[k], speed) < 0)
                goto done;
        }
        for (int k = 0; k < n; k++)
            if (call("totals", k, NULL, "(l)", handles[k]) < 0)
                goto done;
    }
    for (int k = 0; k < n; k++)
        if (call("finalize", k, NULL, "(l)", handles[k]) < 0
                || call("destroy", k, NULL, "(l)", handles[k]) < 0)
            goto done;
    /* Every handle is released now: each call reports a bad handle. */
    for (int k = 0; k < n; k++)
        if (call("step", k, NULL, "(ld)", handles[k], 1.0) < 0
                || call("totals", k, NULL, "(l)", handles[k]) < 0
                || call("finalize", k, NULL, "(l)", handles[k]) < 0
                || call("destroy", k, NULL, "(l)", handles[k]) < 0)
            goto done;
    status = 0;
done:
    free(line);
    free(handles);
    return status;
}

int main(int argc, char **argv)
{
    Py_Initialize();
    flatapi = PyImport_ImportModule("movestar.flatapi");
    int status = flatapi == NULL ? -1 : run(argc - 1, argv + 1);
    if (status < 0)
        PyErr_Print();
    Py_XDECREF(flatapi);
    if (Py_FinalizeEx() < 0)
        status = -1;
    return status < 0 ? 1 : 0;
}
