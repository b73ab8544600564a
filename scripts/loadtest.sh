#!/usr/bin/env bash
# loadtest.sh — fleet-scale load harness runner with tail-latency
# baseline diffing, the BENCH_tail.json counterpart of bench.sh.
#
# Usage:
#   scripts/loadtest.sh check      # scaled-down deterministic tier (fleet + scenario tests)
#   scripts/loadtest.sh baseline   # full-population scenarios, REWRITE BENCH_tail.json
#   scripts/loadtest.sh compare    # full-population scenarios, gate against BENCH_tail.json
#   scripts/loadtest.sh run        # full-population scenarios, print only
#
# Environment:
#   LOAD_SCENARIOS   comma list (default "steady,storm"; license/restart add
#                    per-seat setup cost that doesn't belong in the tail gate)
#   LOAD_POPULATION  simulated bootloaders (default 100000; compare reads the
#                    baseline's population/workers/seed so runs stay comparable)
#   LOAD_WORKERS     real connections multiplexing the fleet (default 64: the
#                    harness is round-trip-latency-bound, so concurrency, not
#                    cores, sets its throughput ceiling)
#   LOAD_DURATION    measured steady phase (default 10s)
#   LOAD_SEED        schedule seed (default 1)
#   CLUSTER          member count >0 adds the multi-member cluster tier: the
#                    scaled failover test in check mode, the "cluster" scenario
#                    in full runs (`make loadtest CLUSTER=3`)
#   LOAD_P99_PCT     compare: max allowed p99 regression in percent (default 50)
#   LOAD_RATE_PCT    compare: max allowed requests/sec drop in percent (default 35);
#                    requests, not statements: a cheaper renewal must not fail it
#   TAIL_BASELINE    baseline path (default BENCH_tail.json)
#
# The wide default thresholds are deliberate: latency tails on a shared
# single-core CI box are noisy, and this gate exists to catch tail
# *collapse* (a renewal path that stopped being O(1), a storm that
# serializes), not 10% jitter. Tighten locally when hunting a specific
# regression.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-check}"
SCENARIOS="${LOAD_SCENARIOS:-steady,storm}"
POPULATION="${LOAD_POPULATION:-100000}"
WORKERS="${LOAD_WORKERS:-64}"
DURATION="${LOAD_DURATION:-10s}"
SEED="${LOAD_SEED:-1}"
P99_PCT="${LOAD_P99_PCT:-50}"
RATE_PCT="${LOAD_RATE_PCT:-35}"
BASELINE="${TAIL_BASELINE:-BENCH_tail.json}"
CLUSTER="${CLUSTER:-0}"

check_tier() {
    echo "== scaled-down load tier: fleet + scenario tests"
    go test -run 'TestFleet|TestHist|TestRecorder|TestStats' ./internal/workload/
    go test -run 'TestLoad' ./internal/scenarios/
    if [ "$CLUSTER" -gt 0 ] 2>/dev/null; then
        echo "== cluster tier: $CLUSTER-member failover scenario (scaled)"
        LOAD_CLUSTER="$CLUSTER" go test -run 'TestLoadClusterFailoverSmall' -v ./internal/scenarios/
    fi
}

# baseline_field FILE KEY — first record's value of KEY (run metadata).
baseline_field() {
    awk -v key="\"$2\"" '$1 == key ":" { gsub(/[,"]/, "", $2); print $2; exit }' "$1"
}

run_full() {
    local out="$1"
    # Compare against like with like: reuse the baseline's population
    # and seed when gating, so deltas mean code changes, not config.
    local pop="$POPULATION" workers="$WORKERS" seed="$SEED"
    if [ "$MODE" = compare ] && [ -f "$BASELINE" ]; then
        pop="$(baseline_field "$BASELINE" population)"; pop="${pop:-$POPULATION}"
        workers="$(baseline_field "$BASELINE" workers)"; workers="${workers:-$WORKERS}"
        seed="$(baseline_field "$BASELINE" seed)"; seed="${seed:-$SEED}"
    fi
    local scen="$SCENARIOS"
    if [ "$CLUSTER" -gt 0 ] 2>/dev/null; then
        scen="$scen,cluster"
    fi
    echo "== load scenarios '$scen': population $pop, workers $workers, duration $DURATION, seed $seed"
    go run ./cmd/experiments -load "$scen" -population "$pop" -workers "$workers" \
        -duration "$DURATION" -seed "$seed" -cluster "$CLUSTER" -out "$out"
}

# compare_tails OLD NEW — per-scenario p99/request-rate gate. The rate
# is requests per second: statements per request fall when a request
# gets cheaper, which is no regression, and tests pin them exactly. The
# JSON is the indented line-oriented shape cmd/experiments writes, so
# plain awk can walk it without jq.
compare_tails() {
    awk -v old_file="$1" -v new_file="$2" -v p99_pct="$P99_PCT" -v rate_pct="$RATE_PCT" '
    function load(file, p99s, rates,   line, scen) {
        while ((getline line < file) > 0) {
            if (match(line, /"scenario": "[^"]*"/)) {
                scen = substr(line, RSTART + 13, RLENGTH - 14)
            }
            if (match(line, /"p99_us": [0-9.e+]+/))
                p99s[scen] = substr(line, RSTART + 10, RLENGTH - 10)
            if (match(line, /"requests_per_sec": [0-9.e+]+/))
                rates[scen] = substr(line, RSTART + 20, RLENGTH - 20)
        }
        close(file)
    }
    BEGIN {
        load(old_file, oldp, oldr); load(new_file, newp, newr)
        printf "%-10s %12s %12s %9s %14s %14s %9s\n", \
            "scenario", "old p99us", "new p99us", "delta", "old req/s", "new req/s", "delta"
        bad = 0
        for (scen in newp) {
            if (!(scen in oldp)) {
                printf "%-10s %12s %12.0f %9s\n", scen, "-", newp[scen], "new"
                continue
            }
            dp = (newp[scen] - oldp[scen]) / oldp[scen] * 100
            dr = (newr[scen] - oldr[scen]) / oldr[scen] * 100
            printf "%-10s %12.0f %12.0f %+8.1f%% %14.0f %14.0f %+8.1f%%\n", \
                scen, oldp[scen], newp[scen], dp, oldr[scen], newr[scen], dr
            if (dp > p99_pct + 0) {
                printf "FAIL: %s p99 regressed %+.1f%% (limit +%s%%)\n", scen, dp, p99_pct; bad = 1
            }
            if (dr < -(rate_pct + 0)) {
                printf "FAIL: %s request rate dropped %+.1f%% (limit -%s%%)\n", scen, dr, rate_pct; bad = 1
            }
        }
        exit bad
    }'
}

case "$MODE" in
check)
    check_tier
    ;;
baseline)
    run_full "$BASELINE"
    echo "== wrote $BASELINE"
    ;;
compare)
    [ -f "$BASELINE" ] || { echo "no $BASELINE — run 'scripts/loadtest.sh baseline' first" >&2; exit 1; }
    NEW="$(mktemp)"
    trap 'rm -f "$NEW"' EXIT
    run_full "$NEW"
    echo
    echo "== tail comparison vs $BASELINE (limits: p99 +${P99_PCT}%, req/s -${RATE_PCT}%)"
    compare_tails "$BASELINE" "$NEW"
    ;;
run)
    NEW="$(mktemp)"
    trap 'rm -f "$NEW"' EXIT
    run_full "$NEW"
    ;;
*)
    echo "usage: scripts/loadtest.sh {check|baseline|compare|run}" >&2
    exit 2
    ;;
esac
