#!/usr/bin/env bash
# traffic.sh — list the code of the repro module that no program runs.
#
# Builds every program of the tree with coverage on over all of repro/...
# (`go build -cover -coverpkg=repro/...`): drivobench (the bench/ module,
# built from here with `go -C bench`), the six examples, cmd/experiments,
# drivolutiond, drivoctl and drivolint. Then it runs them:
#   - drivobench -workload all -seconds 6, untraced and traced
#     (-trace 1, the per-layer probes), spans to the temp dir;
#   - each example under a 60 s timeout;
#   - experiments: every paper experiment, then the five load
#     scenarios (the four of -load all, and cluster) at a population
#     of 500;
#   - drivoctl build and inspect of one image, drivolutiond serving it
#     on a loopback port, drivoctl probe against it, then SIGTERM;
#   - drivolint over ./..., as `make lint` runs it.
# Each binary writes its counters to a directory of its own.
# `go tool covdata textfmt` turns each directory into a profile, and the
# profiles are merged block by block, a block's count being the largest
# any program gave it (a package that a binary linked but never ran
# reads 0 in that binary's profile, so only the largest count says
# whether some program ran the block). From the merged profile it prints:
#   - one `file:line: function` per function that no program entered (a
#     function whose body is empty has no statement to enter and is left
#     out), sorted by file and line;
#   - each package's share of statements that some program ran;
#   - each block of internal/sqlmini that no program ran, as
#     `file:start-end (n statements)`.
# Counts go to stderr.
#
# Everything built or written goes to a temp dir, removed on exit; the
# checkout is left as it was. Off the tier-1 path (`make traffic`);
# about three minutes on a 2-vCPU box. Takes no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
daemon=""
cleanup() {
    if [ -n "$daemon" ]; then kill "$daemon" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT
bin="$tmp/bin"
mkdir -p "$bin" "$tmp/cov" "$tmp/out"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off

echo "traffic: building with -cover -coverpkg=repro/..." >&2
go build -cover -coverpkg=repro/... -o "$bin/" \
    ./examples/... ./cmd/experiments ./cmd/drivolutiond ./cmd/drivoctl ./cmd/drivolint
go -C bench build -cover -coverpkg=repro/... -o "$bin/drivobench" .

# run NAME CMD...: run CMD with its counters in $tmp/cov/NAME, its
# output in $tmp/NAME.log; a failing program fails the script.
run() {
    local name="$1"
    shift
    mkdir -p "$tmp/cov/$name"
    echo "traffic: running $name" >&2
    GOCOVERDIR="$tmp/cov/$name" "$@" >>"$tmp/$name.log" 2>&1 || {
        echo "traffic: $name failed:" >&2
        tail -20 "$tmp/$name.log" >&2
        exit 1
    }
}

run drivobench "$bin/drivobench" -workload all -seconds 6 -out "$tmp/out"
run drivobench "$bin/drivobench" -workload all -seconds 6 -trace 1 -out "$tmp/out"
for ex in examples/*/; do
    ex="$(basename "$ex")"
    run "$ex" timeout 60s "$bin/$ex"
done
run experiments "$bin/experiments"
run experiments "$bin/experiments" -load steady,storm,license,restart,cluster -population 500 -workers 4 -duration 2s

mkdir -p "$tmp/drivers"
run drivoctl "$bin/drivoctl" build -kind dbms-native -api JDBC -api-version 3.0 \
    -version 2.1.0 -protocol 1 -opt user=app -opt password=app-pw \
    -payload 8192 -out "$tmp/drivers/v2.img"
run drivoctl "$bin/drivoctl" inspect "$tmp/drivers/v2.img"
mkdir -p "$tmp/cov/drivolutiond"
GOCOVERDIR="$tmp/cov/drivolutiond" "$bin/drivolutiond" -addr 127.0.0.1:0 \
    -drivers "$tmp/drivers" 2>"$tmp/drivolutiond.log" &
daemon=$!
addr=""
for _ in $(seq 100); do
    addr="$(sed -nE 's/.*drivolutiond serving on ([^ ]+) .*/\1/p' "$tmp/drivolutiond.log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "traffic: drivolutiond did not start" >&2; cat "$tmp/drivolutiond.log" >&2; exit 1; }
run drivoctl "$bin/drivoctl" probe -server "$addr" -database prod -api JDBC
kill -TERM "$daemon"
wait "$daemon" || { echo "traffic: drivolutiond failed" >&2; cat "$tmp/drivolutiond.log" >&2; exit 1; }
daemon=""

run drivolint "$bin/drivolint" ./...

# Merge at block level: a block's line is "file:start,end stmts count";
# keep the largest count any program gave it.
for dir in "$tmp"/cov/*/; do
    go tool covdata textfmt -i="$dir" -o="$dir/profile.txt"
done
{
    echo "mode: set"
    for dir in "$tmp"/cov/*/; do tail -n +2 "$dir/profile.txt"; done |
        awk '{ k = $1 " " $2; if (!(k in best) || $3 > best[k]) best[k] = $3 } END { for (k in best) print k, (best[k] > 0) }' |
        sort
} >"$tmp/merged.txt"

# `go tool cover -func` resolves each package in its own module, so
# drivobench's blocks are read from bench/.
{ head -1 "$tmp/merged.txt"; grep '^repro/bench/' "$tmp/merged.txt"; } >"$tmp/merged-bench.txt"
grep -v '^repro/bench/' "$tmp/merged.txt" >"$tmp/merged-repro.txt"
{
    go tool cover -func="$tmp/merged-repro.txt"
    go -C bench tool cover -func="$tmp/merged-bench.txt"
} | awk '$1 != "total:" && $3 == "0.0%" { print $1, $2 }' |
    while read -r where fn; do
        # A function with an empty body ({} on its declaration line: the
        # sealed-interface markers) has no statement to enter.
        file="${where#repro/}"
        file="${file%%:*}"
        line="${where%:}"
        line="${line##*:}"
        sed -n "${line}p" "$file" | grep -qE '\{[[:space:]]*\}[[:space:]]*$' || echo "$where $fn"
    done | sort -t: -k1,1 -k2,2n >"$tmp/never"
cat "$tmp/never"
echo "traffic: $(wc -l <"$tmp/never") functions never entered" >&2

echo
echo "statements run, by package:"
tail -n +2 "$tmp/merged.txt" | awk '
    { pkg = $1; sub(/\/[^\/]*:.*/, "", pkg); total[pkg] += $2; if ($3 > 0) ran[pkg] += $2 }
    END { for (p in total) printf "%-32s %5d of %5d  %5.1f%%\n", p, ran[p], total[p], 100 * ran[p] / total[p] }
' | sort

echo
echo "internal/sqlmini blocks never run:"
tail -n +2 "$tmp/merged.txt" | awk '$1 ~ /^repro\/internal\/sqlmini\// && $2 > 0 && $3 == 0 {
    split($1, a, ":"); split(a[2], r, ","); split(r[1], b, "."); split(r[2], e, ".")
    print a[1] ":" b[1] "-" e[1] " (" $2 " statements)"
}' | sort -t: -k1,1 -k2,2n | tee "$tmp/blocks"
echo "traffic: $(wc -l <"$tmp/blocks") internal/sqlmini blocks never run" >&2
