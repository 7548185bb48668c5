#!/usr/bin/env bash
# Smoke checks of the movestar command line on README's examples and on
# hostile inputs: exit codes, one-line errors with no traceback, the `demo`
# last lines, line endings, and no numpy in the streaming lifecycle or in
# `validate-tables`.
#
# Usage: tools/cli_smoke.sh PART COMMAND...
#   PART     `console` (every check but line endings), `line-endings`, or `all`
#   COMMAND  how to run movestar, e.g. `movestar` or `python -m movestar.cli`
# It writes its files into the current directory. The inline checks run
# `python`, which must import the same movestar. The line-endings part runs
# on its own so that CI can repeat it after pinning another numpy.
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 {console|line-endings|all} COMMAND..." >&2
  exit 2
fi
part=$1
shift
ms=("$@")

console() {
  printf 't,v\n0,0\n1,2.5\n2,5\n3,7.5\n4,7.5\n5,4\n6,0\n' > trip.csv
  printf 't,v\n0,0\n0.5,1\n1,2\n1.5,3\n2,4\n2.5,5\n3,5\n' > subsecond.csv
  "${ms[@]}" run --cycle trip.csv --unit m/s --veh 1 --out trip
  # A leading UTF-8 byte-order mark changes nothing: the marked copy's ER
  # and EF files are the plain file's, byte for byte.
  { printf '\xef\xbb\xbf'; cat trip.csv; } > trip_bom.csv
  "${ms[@]}" run --cycle trip_bom.csv --unit m/s --veh 1 --out trip_bom
  cmp trip_ER.csv trip_bom_ER.csv
  cmp trip_EF.csv trip_bom_EF.csv
  mkdir od
  "${ms[@]}" run --cycle trip.csv --veh 1 --out od/
  test -f od/_ER.csv && test -f od/_EF.csv
  "${ms[@]}" factors --cycle trip.csv --veh 2
  "${ms[@]}" validate-tables
  # A rate table without its `# unit:` line is one table error: exit 2.
  defaults="$(python -c 'import movestar.tables as t; print(t.default_tables_dir())')"
  mkdir bad
  cp "$defaults"/*.csv bad/
  grep -v '^# unit:' bad/rates.csv > rates.csv && mv rates.csv bad/rates.csv
  status=0
  "${ms[@]}" validate-tables --tables bad 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 2
  test "$(wc -l < err.txt)" -eq 1
  grep -q '^error: tables:' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # Each file declares units for its own columns only: the rate table's
  # `# unit:` line moved to the top of params.csv is one error naming
  # params.csv and its line 1.
  mkdir moved
  grep '^# unit:' "$defaults/rates.csv" > moved/params.csv
  cat "$defaults/params.csv" >> moved/params.csv
  grep -v '^# unit:' "$defaults/rates.csv" > moved/rates.csv
  status=0
  "${ms[@]}" validate-tables --tables moved 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 2
  test "$(wc -l < err.txt)" -eq 1
  grep -q '^error: tables: .*params\.csv:1: ' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # A file declares each column's unit once: a second `# unit:` line for
  # energy in rates.csv, its line 5, is one error naming that line.
  mkdir twice
  cp "$defaults"/*.csv twice/
  awk '{ print } /^# unit:/ { print "# unit: energy=kJ/h" }' "$defaults/rates.csv" \
    > twice/rates.csv
  status=0
  "${ms[@]}" validate-tables --tables twice 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 2
  test "$(wc -l < err.txt)" -eq 1
  grep -q '^error: tables: .*rates\.csv:5: ' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # A unit declaration without `=`: the rate table's `# unit:` line, its
  # line 4, reading `# unit: energy CO=g/h ...` is one error naming that line.
  mkdir malformed
  cp "$defaults"/*.csv malformed/
  sed 's/^# unit: energy=g\/h /# unit: energy /' "$defaults/rates.csv" > malformed/rates.csv
  grep -q '^# unit: energy CO=g/h ' malformed/rates.csv
  status=0
  "${ms[@]}" validate-tables --tables malformed 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 2
  test "$(wc -l < err.txt)" -eq 1
  grep -q '^error: tables: .*rates\.csv:4: ' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # A rate table whose header lacks CO2, followed by its rows, is one
  # error naming the missing column: the read stops at the header.
  mkdir nocol
  cp "$defaults"/*.csv nocol/
  sed 's/,NOx,CO2$/,NOx/' "$defaults/rates.csv" > nocol/rates.csv
  status=0
  "${ms[@]}" validate-tables --tables nocol 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 2
  test "$(wc -l < err.txt)" -eq 1
  grep -q '^error: tables:' err.txt
  grep -qF "missing column(s) ['CO2']" err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # Coefficients whose VSP at the speed limit overflows (LDV f = 1e-320)
  # are one table error, for `validate-tables` and for `run` alike.
  mkdir vspinf
  cp "$defaults"/*.csv vspinf/
  sed 's/^\(LDV,.*\),[^,]*$/\1,1e-320/' "$defaults/params.csv" > vspinf/params.csv
  grep -q '^LDV,.*,1e-320$' vspinf/params.csv
  for cmd in "validate-tables" "run --cycle trip.csv --veh 1 --out vspinf/trip"; do
    status=0
    "${ms[@]}" $cmd --tables vspinf 2> err.txt || status=$?
    cat err.txt
    test "$status" -eq 2
    test "$(wc -l < err.txt)" -eq 1
    grep -q '^error: tables: .*VSP overflows' err.txt
    if grep -q Traceback err.txt; then exit 1; fi
  done
  test ! -e vspinf/trip_ER.csv
  "${ms[@]}" convert --in subsecond.csv --out onehz.csv --unit mph
  # All three planner outcomes: README's red arrival glides, a red of 200 s
  # that no glide can bridge falls back to the stop profile, and a green
  # arrival cruises through at cruise speed.
  "${ms[@]}" demo --distance 240 --cruise 12 --green 25 --red 30 --offset 28 --veh 1 \
    > demo.csv
  cat demo.csv
  test "$(tail -n 1 demo.csv)" = "glide_used,1,8.081633,"
  "${ms[@]}" demo --distance 240 --cruise 12 --green 5 --red 200 --offset 40 --veh 1 \
    > demo.csv
  cat demo.csv
  test "$(tail -n 1 demo.csv)" = "glide_used,0,,"
  "${ms[@]}" demo --distance 240 --cruise 12 --green 30 --red 30 --offset 0 --veh 2 \
    > demo.csv
  cat demo.csv
  test "$(tail -n 2 demo.csv | head -n 1)" = "duration_s,41,41,"
  test "$(tail -n 1 demo.csv)" = "glide_used,1,12.000000,"
  status=0
  "${ms[@]}" run --cycle trip.csv --veh 1 --out "$PWD/absent/x" 2> err.txt \
    || status=$?
  cat err.txt
  test "$status" -eq 1
  grep -q '^error: output:' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # A closed stdout is one output error, exit 1, also when Python buffers
  # it: the child gets a pipe whose read end is closed, without
  # PYTHONUNBUFFERED.
  env -u PYTHONUNBUFFERED python - "${ms[@]}" factors --cycle trip.csv --veh 2 <<'EOF'
import os, subprocess, sys
read_end, write_end = os.pipe()
os.close(read_end)
done = subprocess.run(sys.argv[1:], stdout=write_end, stderr=subprocess.PIPE, text=True)
os.close(write_end)
print(done.stderr, end="", file=sys.stderr)
if done.returncode != 1 or done.stderr.count("\n") != 1 \
        or not done.stderr.startswith("error: output:"):
    raise SystemExit(f"closed stdout: exit {done.returncode}")
EOF
  # A speed over the 100 m/s bound is an input error, not an overflow.
  printf 't,v\n0,0\n1,1e300\n' > fast.csv
  status=0
  "${ms[@]}" factors --cycle fast.csv --veh 1 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 1
  grep -q '^error: cycle:' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # A gap of 1e300 s is one short error line: its length prints in
  # scientific notation, not as a 301-digit integer.
  printf '0,1\n1e300,2\n' > gap.csv
  status=0
  "${ms[@]}" factors --cycle gap.csv --veh 1 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 1
  test "$(wc -l < err.txt)" -eq 1
  grep -q '^error: cycle: gap of' err.txt
  test "$(wc -c < err.txt)" -lt 200
  if grep -q Traceback err.txt; then exit 1; fi
  # Raw speeds are bounded before resampling: two 1e308 samples in
  # one window are one error naming line 1, not an overflow.
  printf '0,1e308\n0.5,1e308\n' > overflow.csv
  status=0
  "${ms[@]}" factors --cycle overflow.csv --veh 1 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 1
  test "$(wc -l < err.txt)" -eq 1
  grep -q '^error: cycle: speed 1e+308 m/s at line 1 is over the 100.0 m/s limit$' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
  # A NaN raw speed is named by its line, not by a second after
  # resampling, in the same words whether numpy reads the file by path or
  # a trailing non-ASCII comment sends it through the line reader.
  printf '0,1\n0.5,nan\n1,2\n' > nan.csv
  { cat nan.csv; printf '# \xc2\xb5\n'; } > nan_utf8.csv
  for f in nan nan_utf8; do
    status=0
    "${ms[@]}" factors --cycle "$f.csv" --veh 1 2> err.txt || status=$?
    cat err.txt
    test "$status" -eq 1
    test "$(cat err.txt)" = 'error: cycle: non-finite speed nan at line 2'
    if grep -q Traceback err.txt; then exit 1; fi
  done
  # One flatapi round trip through the installed package; a speed of
  # None is status 1 and an unhashable handle status 3, not an
  # exception. The whole streaming lifecycle runs without numpy, and
  # without the dataclasses and inspect modules.
  python - <<'EOF'
import sys
before = set(sys.modules)
from movestar import flatapi
status, handle = flatapi.create(1)
checks = [
    (status, 0),
    (flatapi.step(handle, 5.0)[:2], (0, 12)),
    (flatapi.step(handle, None), (1, -1, 0.0, 0.0, 0.0, 0.0, 0.0)),
    (flatapi.totals(handle)[:2], (0, 5.0)),
    (flatapi.step([1], 5.0)[0], 3),
    (flatapi.finalize(handle)[:3], (0, 5.0, 1)),
    (flatapi.destroy(handle), 0),
    (flatapi.stats(), (0, 1, 1, 0, 1)),
]
for got, want in checks:
    if got != want:
        raise SystemExit(f"flatapi round trip: got {got!r}, want {want!r}")
if "numpy" in sys.modules:
    raise SystemExit("flatapi round trip: numpy was imported")
added = {"dataclasses", "inspect"} & (set(sys.modules) - before)
if added:
    raise SystemExit(f"flatapi round trip: {sorted(added)} imported")
EOF
  # `validate-tables` reads only the tables: numpy stays unloaded.
  python - <<'EOF'
import contextlib, io, sys
from movestar import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["validate-tables"])
if status != 0 or "numpy" in sys.modules:
    raise SystemExit(f"validate-tables: status {status}, numpy {'numpy' in sys.modules}")
EOF
}

# An ASCII file is read by numpy through its path, whatever its line ends,
# with comment or empty lines between rows and after a leading UTF-8
# byte-order mark; one with an indented comment, a whitespace-only line or a
# non-ASCII byte is read one line at a time in Python. The conversions must be
# identical, and a `#` after a value is an error at its line.
line_endings() {
  printf 't,v\n0,0\n0.5,1\n1,2\n1.5,3\n2,4\n2.5,5\n3,5\n' > lf.csv
  sed 's/$/\r/' lf.csv > crlf.csv
  tr '\n' '\r' < lf.csv > cr.csv
  printf 't,v\n0,0\n0.5,1\n# note\n1,2\n\n1.5,3\n2,4\n2.5,5\n3,5\n' > lines.csv
  printf 't,v\n0,0\n0.5,1\n  # note\n1,2\n \t\n1.5,3\n2,4\n2.5,5\n3,5\n' > spaces.csv
  { printf '# \xc2\xb5\n'; cat lf.csv; } > utf8.csv
  { printf '\xef\xbb\xbf'; cat lf.csv; } > bom.csv
  for f in lf crlf cr lines spaces utf8 bom; do
    "${ms[@]}" convert --in "$f.csv" --out "$f.1hz.csv" --unit mph
    cmp lf.1hz.csv "$f.1hz.csv"
  done
  printf 't,v\n0,0\n0.5,1\n1,2#x\n1.5,3\n' > hash.csv
  status=0
  "${ms[@]}" factors --cycle hash.csv --unit mph --veh 1 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 1
  test "$(wc -l < err.txt)" -eq 1
  grep -q '^error: cycle: .* at line 4$' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
}

case "$part" in
  console) console ;;
  line-endings) line_endings ;;
  all) console; line_endings ;;
  *) echo "$0: unknown part '$part'" >&2; exit 2 ;;
esac
