# Drivolution reproduction — build/test/bench entry points.
#
#   make check           # the tier-1 gate: build + vet + lint + tests (+ bench/ build/vet)
#   make check-race      # tier-1 under the race detector (all packages)
#   make check-386       # sqlmini + wire tests built for 32-bit x86 (GOARCH=386)
#   make tier1           # build + tests only (what scripts/bench.sh gates on)
#   make race            # grant-path and wire/dbms packages under the race detector
#   make lint            # gofmt + vet + doclint + drivolint (LINT_FILTER narrows analyzers)
#   make doclint         # every internal/ package must have a package comment
#   make chaos           # longer fault-injection soak across several seeds
#   make examples        # build and run every program under examples/, each under a timeout
#   make fuzz-smoke      # 20 s of native fuzzing per target, every Fuzz* found (off the tier-1 path)
#   make bench-smoke     # every Go benchmark of the root module once, so their assertions run (off the tier-1 path)
#   make bench-module-check  # vet + test + drivolint the separate bench/ module (drivobench)
#   make loc             # non-test Go code lines per package (what ROADMAP "non-test lines" means)
#   make traffic         # functions that no program enters, from coverage builds of every program (off the tier-1 path)
#   make bench           # run the perf-tracked benchmark set
#   make bench-baseline  # tier1 + benches, refresh BENCH_baseline.json
#   make bench-compare   # tier1 + benches, diff against BENCH_baseline.json
#   make loadtest        # fleet-scale load tier: scaled tests + tail gate vs BENCH_tail.json
#   make loadtest-baseline  # full-population load scenarios, refresh BENCH_tail.json
#
# Benchmark knobs (see scripts/README.md): BENCH_COUNT, BENCH_TIME,
# BENCH_FILTER ('.'' = full suite, includes slow lease-traffic sweeps),
# BENCH_PKGS.

.PHONY: check check-race check-386 tier1 race lint drivolint doclint chaos examples fuzz-smoke bench-smoke bench-module-check loc traffic bench bench-baseline bench-compare loadtest loadtest-baseline

# check is the documented tier-1 entry point: everything CI (and the
# next PR) must keep green. lint folds in vet + doclint + drivolint,
# so the tree must be analyzer-clean to merge. It also compiles and
# vets the bench/ module, so a rename in core that breaks drivobench
# fails here rather than at the next benchmark run.
check: lint
	go build ./...
	cd bench && go build -o /dev/null ./... && go vet ./...
	go test ./...

# lint is the static-analysis gate: gofmt (any file it would rewrite
# fails the build), go vet, the package-comment lint, and the repo's
# own drivolint analyzer suite (cmd/drivolint). Narrow
# to a subset of analyzers with LINT_FILTER, a regexp over analyzer
# names, e.g. `make lint LINT_FILTER='sqlcheck|latchorder'`.
LINT_FILTER ?= .
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files are not formatted (run gofmt -w):" >&2; echo "$$unformatted" >&2; exit 1; fi
	go vet ./...
	scripts/doclint.sh
	go run ./cmd/drivolint -filter='$(LINT_FILTER)' ./...

drivolint:
	go run ./cmd/drivolint -filter='$(LINT_FILTER)' ./...

# check-race is the tier-1 gate with the race detector on: slower, so
# it is a separate target, but it covers every package — including a
# short chaos soak (TestChaosSoak injects resets/partitions plus a
# server restart; ~2s at the default duration).
check-race:
	go build ./...
	go test -race ./...

# check-386 runs sqlmini's tests, whose Value packs a type and a length
# into one 64-bit word and tells types apart by comparing a pointer
# against a static array, and those of the wire codec it decodes from,
# built for a 32-bit target: a pointer of 32 bits, a uint64 aligned to 4.
check-386:
	GOARCH=386 go test ./internal/sqlmini/ ./internal/wire/

# chaos runs the randomized fault-injection soak longer and across
# several fresh seeds (each run logs its seed; rerun one exactly with
# CHAOS_SEED=<n>). Knobs: CHAOS_SEEDS (runs), CHAOS_DURATION (storm
# length per run).
CHAOS_SEEDS ?= 5
CHAOS_DURATION ?= 5s
chaos:
	CHAOS_DURATION=$(CHAOS_DURATION) go test -race -run 'TestChaosSoak' -count=$(CHAOS_SEEDS) -v ./internal/core/

# examples builds every program under examples/ into a temporary
# directory (removed afterwards) and runs each one; an example that
# exits non-zero or runs longer than 60 s fails the target.
examples:
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	go build -o "$$dir/" ./examples/...; \
	for bin in "$$dir"/*; do \
		echo "== examples/$$(basename "$$bin")"; \
		timeout 60s "$$bin" || { echo "examples/$$(basename "$$bin") failed" >&2; exit 1; }; \
	done

# fuzz-smoke runs every native fuzz target for FUZZ_TIME. It finds
# them with `go test -list`, so a new target joins the run by existing.
# The targets' seed corpora already run inside `go test` (and so `make
# check`); this is the short mutation run CI adds off the tier-1 path.
FUZZ_TIME ?= 20s
fuzz-smoke:
	@set -e; list="$$(go test -list '^Fuzz' ./...)"; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "go test $$pkg -fuzz=^$$target\$$ -fuzztime=$(FUZZ_TIME)"; \
		go test "$$pkg" -run '^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZ_TIME) || exit 1; \
	done

# bench-smoke runs every benchmark of the root module exactly once. Many
# benchmarks assert a statement or frame budget after their loop, and
# `go test` never runs a benchmark, so without this a stale assertion
# fails only when someone next benchmarks by hand. bench/ (drivobench)
# is a module of its own and is not included.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

tier1:
	go build ./...
	go test ./...

# race covers the grant paths, wire.Conn, and the dbms session loop,
# which binds its exec arguments from Recv's reused payload buffer.
race:
	go test -race ./internal/core/ ./internal/wire/ ./internal/dbms/ ./internal/sqlmini/ ./internal/driverimg/

doclint:
	scripts/doclint.sh

# bench/ (drivobench, BENCHMARK.json's entry point) is a module of its
# own, so the root `go build ./...` and `go test ./...` skip it; `make
# check` builds and vets it, and this target adds its tests and
# drivolint.
bench-module-check:
	cd bench && go vet ./... && go test ./... && go run repro/cmd/drivolint ./...

# loc prints, per package, Go lines outside _test.go files that are
# neither blank nor comment-only, then two groups, one line each: the
# lease-client group (internal/core's bootloader.go, renew.go and
# loadclient.go, the lease protocol's client side) and the protocol
# group (the four protocol.go files of the lease, dbms, cluster and
# sequoia protocols, plus wire/walk.go, which runs their declarations).
# It is the one count every simplicity PR's before/after claim uses.
loc:
	scripts/loc.sh lease-client: internal/core/bootloader.go internal/core/renew.go internal/core/loadclient.go \
		protocol: internal/core/protocol.go internal/dbms/protocol.go internal/cluster/protocol.go \
		internal/sequoia/protocol.go internal/wire/walk.go

# traffic builds drivobench, the examples, cmd/experiments, drivolutiond
# and drivoctl with coverage over repro/..., runs each once and prints
# the functions none of them entered: the evidence a deletion of
# unreached code cites. About two minutes; everything it writes goes to a
# temp dir.
traffic:
	scripts/traffic.sh

bench:
	scripts/bench.sh run

bench-baseline:
	scripts/bench.sh baseline

bench-compare:
	scripts/bench.sh compare

# loadtest is the fleet-scale tier, off the tier-1 critical path: the
# scaled-down deterministic scenario tests, then the full-population
# steady/storm scenarios gated against the committed BENCH_tail.json
# tail baseline (p50/p95/p99 + statements/sec; see scripts/README.md
# for thresholds and the refresh policy). CLUSTER=3 adds the
# multi-member tier: the scaled server-failover test plus the
# full-population "cluster" scenario (internal/cluster fleet, one
# member killed mid-run).
CLUSTER ?= 0
loadtest:
	CLUSTER="$(CLUSTER)" scripts/loadtest.sh check
	CLUSTER="$(CLUSTER)" scripts/loadtest.sh compare

loadtest-baseline:
	CLUSTER="$(CLUSTER)" scripts/loadtest.sh baseline
