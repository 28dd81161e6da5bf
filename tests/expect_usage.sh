#!/bin/sh
# Runs a bench with arguments it must reject. Passes only when the bench
# exits 2 and prints its usage line ("usage: <bench> ...") on stderr.
#
#   tests/expect_usage.sh BENCH_BINARY ARG...
bin="$1"
shift
err=$("$bin" "$@" 2>&1 >/dev/null)
rc=$?
printf '%s\n' "$err"
[ "$rc" -eq 2 ] || { echo "expected exit 2, got $rc"; exit 1; }
case "$err" in
  *"usage: $(basename "$bin") "*) exit 0 ;;
esac
echo "no usage line on stderr"
exit 1
