#!/bin/sh
# End-to-end checks of rcdiag on run directories that rcperf and the benches
# write. Each case exits 0 on success and 1 with a message on failure.
#
#   rcdiag_cli.sh spanless      RCPERF RCDIAG WORKDIR
#       `rcperf top` journals no spans; overload, qos and check still
#       read its metrics.jsonl and exit 0.
#   truncated-slo RCPERF RCDIAG WORKDIR
#       the same run with its last slo.jsonl line cut short: check exits 1.
#   fig13         BENCH_FIG13  RCDIAG WORKDIR
#       fig13's mixed-tenant export (slo.jsonl included) passes check.
set -u
case_name=$1 producer=$2 rcdiag=$3 work=$4

fail() { echo "rcdiag_cli $case_name: $*" >&2; exit 1; }

rm -rf "$work"
mkdir -p "$work"
case $case_name in
  spanless|truncated-slo)
    "$producer" top --servers 3 --clients 2 --measure 2 \
      --metrics-dir "$work/run" > "$work/top.out" 2>&1 ||
      fail "rcperf top exited $?"
    test -s "$work/run/metrics.jsonl" || fail "no metrics.jsonl"
    ;;
  fig13)
    "$producer" --quick --metrics-dir "$work" > "$work/fig13.out" 2>&1 ||
      fail "bench_fig13_throttling exited $?"
    ;;
  *) fail "unknown case" ;;
esac

case $case_name in
  spanless)
    test -s "$work/run/events.jsonl" && fail "expected a span-less journal"
    for cmd in overload qos check; do
      "$rcdiag" "$cmd" "$work/run" || fail "rcdiag $cmd exited $?"
    done
    ;;
  truncated-slo)
    slo="$work/run/slo.jsonl"
    test -s "$slo" || fail "no slo.jsonl"
    "$rcdiag" check "$work/run" || fail "intact run: check exited $?"
    size=$(wc -c < "$slo")
    head -c $((size - 8)) "$slo" > "$slo.cut" && mv "$slo.cut" "$slo"
    "$rcdiag" check "$work/run"
    rc=$?
    test $rc -eq 1 || fail "truncated slo.jsonl: check exited $rc, want 1"
    ;;
  fig13)
    test -s "$work/mixed_tenants/slo.jsonl" || fail "no mixed_tenants/slo.jsonl"
    "$rcdiag" check "$work/mixed_tenants" || fail "check exited $?"
    ;;
esac
exit 0
