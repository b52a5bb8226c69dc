#!/bin/sh
# Checks a bench's command-line contract: `--help` prints the usage and
# exits 0, an unknown flag exits 2, and neither runs the bench or writes a
# BENCH_*.json into the working directory.
#
#   sh bench_args_test.sh BENCH_BINARY
set -u
bench="$1"
work="$(mktemp -d "${TMPDIR:-/tmp}/pglo_bench_args_XXXXXX")"
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
fail=0

"$bench" --help > help.out 2>&1
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: --help exited $rc, want 0"; fail=1
fi
if ! grep -q '^usage:' help.out; then
  echo "FAIL: --help printed no usage"; cat help.out; fail=1
fi

"$bench" --bogus > bogus.out 2>&1
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: --bogus exited $rc, want 2"; fail=1
fi
if ! grep -q 'unknown flag --bogus' bogus.out; then
  echo "FAIL: --bogus was not named"; cat bogus.out; fail=1
fi

for f in BENCH_*.json; do
  if [ -e "$f" ]; then
    echo "FAIL: $f was written"; fail=1
  fi
done
[ "$fail" -eq 0 ] && echo "bench_args_test: OK"
exit "$fail"
