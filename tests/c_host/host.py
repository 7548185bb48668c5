"""`host.c` in Python: the same `flatapi` calls, in the same order, printed
the same way. Run as `PYTHONPATH=src python tests/c_host/host.py CODE... <
speeds`; see `host.c` for the input and the lines it prints."""

import sys

from movestar import flatapi


def call(name, vehicle, *args):
    """Call flatapi.`name`, print its line, and return its result."""
    result = getattr(flatapi, name)(*args)
    values = result if type(result) is tuple else (result,)
    words = []
    for x in values:
        if type(x) is float:
            words.append("%.17g" % x)
        elif type(x) is int:
            words.append(str(x))
        else:
            raise TypeError(f"flatapi returned a {type(x).__name__}")
    print(name, vehicle, *words)
    return result


def main(codes):
    handles = [call("create", k, int(code))[1] for k, code in enumerate(codes)]
    for line in sys.stdin:
        for k, speed in enumerate(line.split()[:len(handles)]):
            call("step", k, handles[k], float(speed))
        for k, handle in enumerate(handles):
            call("totals", k, handle)
    for k, handle in enumerate(handles):
        call("finalize", k, handle)
        call("destroy", k, handle)
    # Every handle is released now: each call reports a bad handle.
    for k, handle in enumerate(handles):
        call("step", k, handle, 1.0)
        call("totals", k, handle)
        call("finalize", k, handle)
        call("destroy", k, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
