#!/usr/bin/env bash
# bench.sh — tier-1 gate + benchmark runner with baseline diffing, so
# perf PRs have a committed trajectory to compare against.
#
# Usage:
#   scripts/bench.sh baseline   # tier-1 gate, run benches, write BENCH_baseline.json
#   scripts/bench.sh compare    # tier-1 gate, run benches, diff against BENCH_baseline.json
#   scripts/bench.sh run        # just run the benches (no gate, no diff)
#
# Environment:
#   BENCH_COUNT   repetitions per benchmark (default 5; best-of is kept)
#   BENCH_TIME    go -benchtime (default 1s)
#   BENCH_FILTER  go -bench regexp (default: the perf-tracked grant/wire set;
#                 set to '.' for the full suite, which includes slow sweeps)
#   BENCH_PKGS    packages to bench (default ". ./internal/wire ./internal/cluster")
#   BENCH_CPU     go -cpu list (e.g. "1,4,8") for the GOMAXPROCS scaling
#                 study of the BenchmarkConcurrent* family. Unset = the
#                 machine's GOMAXPROCS. Baseline/compare JSON folds cpu
#                 variants best-of under one name, so record baselines
#                 with BENCH_CPU unset and read scaling curves from the
#                 raw output of `BENCH_CPU=1,4,8 scripts/bench.sh run`.
#   BASELINE      baseline path (default BENCH_baseline.json)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-compare}"
COUNT="${BENCH_COUNT:-5}"
TIME="${BENCH_TIME:-1s}"
FILTER="${BENCH_FILTER:-BenchmarkMatchmaking|BenchmarkLeaseRenewalNoChange|BenchmarkLeaseRenewalUpgrade|BenchmarkLeaseRenewalAt100Leases|BenchmarkLeaseRenewalAt10000Leases|BenchmarkGrantAt200LeasesOneDriver|BenchmarkGrantAt20000LeasesOneDriver|BenchmarkLicenseCheckAt10000Leases|BenchmarkExpirySweepAt100Leases|BenchmarkExpirySweepAt10000Leases|BenchmarkLicenseUsageCountAt10000Leases|BenchmarkExternalLeaseRenewal|BenchmarkExternalReapAt1000Leases|BenchmarkExternalMatchmaking|BenchmarkExternalPreparedRenewal|BenchmarkBootstrapProtocol|BenchmarkConcurrentBootstrap|BenchmarkConcurrentMatchmaking|BenchmarkConcurrentRenewal|BenchmarkConcurrentMixed|BenchmarkClusterMatchmaking|BenchmarkClusterRenewal|BenchmarkFrameRoundTrip|BenchmarkEncoder|BenchmarkDecoder|BenchmarkFileChunkSendBody}"
PKGS="${BENCH_PKGS:-. ./internal/wire ./internal/cluster}"
CPU="${BENCH_CPU:-}"
BASELINE="${BASELINE:-BENCH_baseline.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

tier1() {
    echo "== tier-1 gate: go build ./... && go test ./..."
    go build ./...
    go test ./...
}

run_benches() {
    local cpuflag=()
    [ -n "$CPU" ] && cpuflag=(-cpu="$CPU")
    echo "== benchmarks: -bench='$FILTER' -benchmem -count=$COUNT -benchtime=$TIME ${cpuflag[*]}"
    # shellcheck disable=SC2086
    go test -run='^$' -bench="$FILTER" -benchmem -count="$COUNT" -benchtime="$TIME" "${cpuflag[@]}" $PKGS | tee "$RAW"
}

# emit_json RAW_FILE — best (minimum ns/op) result per benchmark name,
# as line-oriented JSON that both jq and the awk in `compare` can read.
emit_json() {
    awk -v count="$COUNT" -v benchtime="$TIME" -v filter="$FILTER" '
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = ""; bop = ""; aop = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op")     ns  = $(i-1)
            if ($i == "B/op")      bop = $(i-1)
            if ($i == "allocs/op") aop = $(i-1)
        }
        if (ns == "") next
        if (!(name in best) || ns + 0 < best[name] + 0) {
            best[name] = ns; bests_b[name] = bop; bests_a[name] = aop
            if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
        }
    }
    END {
        printf "{\n  \"meta\": {\"count\": %s, \"benchtime\": \"%s\", \"filter\": \"%s\", \"stat\": \"best-of\"},\n", count, benchtime, filter
        printf "  \"benchmarks\": {\n"
        for (i = 1; i <= n; i++) {
            name = order[i]
            printf "    \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n", \
                name, best[name], bests_b[name] == "" ? 0 : bests_b[name], \
                bests_a[name] == "" ? 0 : bests_a[name], i < n ? "," : ""
        }
        printf "  }\n}\n"
    }' "$1"
}

compare() {
    [ -f "$BASELINE" ] || { echo "no $BASELINE — run 'scripts/bench.sh baseline' first" >&2; exit 1; }
    NEW="$(mktemp)"
    emit_json "$RAW" > "$NEW"
    echo
    echo "== comparison vs $BASELINE (best-of ns/op; negative delta = faster)"
    awk -v old_file="$BASELINE" -v new_file="$NEW" '
    function load(file, map, mapb,   line, name, ns, bop) {
        while ((getline line < file) > 0) {
            if (match(line, /"Benchmark[^"]*"/)) {
                name = substr(line, RSTART + 1, RLENGTH - 2)
                if (match(line, /"ns_op": [0-9.e+]+/)) {
                    ns = substr(line, RSTART + 9, RLENGTH - 9); map[name] = ns
                }
                if (match(line, /"b_op": [0-9.e+]+/)) {
                    bop = substr(line, RSTART + 8, RLENGTH - 8); mapb[name] = bop
                }
            }
        }
        close(file)
    }
    BEGIN {
        load(old_file, oldns, oldb); load(new_file, newns, newb)
        printf "%-55s %14s %14s %9s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "B/op old>new"
        for (name in newns) names[++n] = name
        asort_ok = 0
        for (i = 1; i <= n; i++) {
            # insertion sort for portability (no gawk asort dependency)
            for (j = i; j > 1 && names[j] < names[j-1]; j--) {
                t = names[j]; names[j] = names[j-1]; names[j-1] = t
            }
        }
        worst = 0
        for (i = 1; i <= n; i++) {
            name = names[i]
            if (name in oldns) {
                d = (newns[name] - oldns[name]) / oldns[name] * 100
                if (d > worst) worst = d
                printf "%-55s %14.0f %14.0f %+8.1f%% %6.0f>%-6.0f\n", \
                    name, oldns[name], newns[name], d, oldb[name], newb[name]
            } else {
                printf "%-55s %14s %14.0f %9s\n", name, "-", newns[name], "new"
            }
        }
        if (worst > 25) {
            printf "\nWARN: worst regression %+.1f%% exceeds 25%%\n", worst
        }
    }'
    rm -f "$NEW"
}

case "$MODE" in
baseline)
    tier1
    run_benches
    emit_json "$RAW" > "$BASELINE"
    echo
    echo "== wrote $BASELINE"
    ;;
compare)
    tier1
    run_benches
    compare
    ;;
run)
    run_benches
    ;;
*)
    echo "usage: scripts/bench.sh {baseline|compare|run}" >&2
    exit 2
    ;;
esac
