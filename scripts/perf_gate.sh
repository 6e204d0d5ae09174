#!/bin/sh
# perf_gate.sh - CI performance gate for the simulation kernel.
#
# Runs two quick sweeps single-threaded, appends each timing record to a
# scratch bench history, and fails if simulated cycles/sec falls below the
# committed floor:
#
#   1. a four-experiment paper sweep (e1,e3,e5,e8) guarding the stochastic
#      traffic data paths, and
#   2. a barrier+broadcast collective sweep (c1,c2) guarding the collective
#      driver's phase machinery.
#
# The floors are deliberately far under the event kernel's measured rates so
# shared CI runners don't flake, yet high enough that losing the
# calendar-queue scheduler or the zero-alloc switch data paths trips them.
#
# Both sweeps plan no configuration twice, so every point is its own
# simulation (recorded runs == points) and cycles/sec measures the
# simulator's own speed, not the sweep runner's sharing of identical points.
# A sweep whose recorded runs differ from its points fails the gate.
#
# Override the floors (cycles/sec) with PERF_GATE_FLOOR and
# PERF_GATE_COLL_FLOOR, e.g. for a local run on a loaded laptop:
# PERF_GATE_FLOOR=1 PERF_GATE_COLL_FLOOR=1 scripts/perf_gate.sh
set -eu

cd "$(dirname "$0")/.."

FLOOR="${PERF_GATE_FLOOR:-40000}"
COLL_FLOOR="${PERF_GATE_COLL_FLOOR:-40000}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

# gate <label> <experiments> <floor>: quick single-threaded sweep, then
# compare the recorded cycles/sec against the floor.
gate() {
    label="$1"; exps="$2"; floor="$3"

    go run ./cmd/mdwbench -quick -workers 1 -exp "$exps" -bench-out "$OUT" >/dev/null

    cps="$(grep -o '"cycles_per_sec": *[0-9.eE+-]*' "$OUT" | tail -1 | sed 's/.*: *//')"
    if [ -z "$cps" ]; then
        echo "perf_gate: no cycles_per_sec in bench output for $label sweep" >&2
        exit 1
    fi

    points="$(grep -o '"points": *[0-9]*' "$OUT" | tail -1 | sed 's/.*: *//')"
    runs="$(grep -o '"runs": *[0-9]*' "$OUT" | tail -1 | sed 's/.*: *//')"
    if [ -z "$runs" ] || [ "$runs" != "$points" ]; then
        echo "perf_gate: FAIL - $label sweep ($exps) simulated ${runs:-no recorded} runs for $points points; the gate needs one run per point" >&2
        exit 1
    fi

    echo "perf_gate: $label sweep ($exps) ran at $cps cycles/sec (floor $floor)"
    if ! awk -v c="$cps" -v f="$floor" 'BEGIN { exit !(c+0 >= f+0) }'; then
        echo "perf_gate: FAIL - $label sweep at $cps cycles/sec is below the floor of $floor" >&2
        exit 1
    fi
}

gate paper e1,e3,e5,e8 "$FLOOR"
gate collective c1,c2 "$COLL_FLOOR"
echo "perf_gate: PASS"
