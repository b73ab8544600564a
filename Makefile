# Drivolution reproduction — build/test/bench entry points.
#
#   make check           # the tier-1 gate: build + vet + lint + tests (+ bench/ build/vet)
#   make check-race      # tier-1 under the race detector (all packages)
#   make tier1           # build + tests only (what scripts/bench.sh gates on)
#   make race            # grant-path packages under the race detector
#   make lint            # gofmt + vet + doclint + drivolint (LINT_FILTER narrows analyzers)
#   make doclint         # every internal/ package must have a package comment
#   make chaos           # longer fault-injection soak across several seeds
#   make fuzz-smoke      # 20 s of native fuzzing per target (off the tier-1 path)
#   make bench-module-check  # vet + test + drivolint the separate bench/ module (drivobench)
#   make loc             # non-test Go code lines per package (what ROADMAP "non-test lines" means)
#   make bench           # run the perf-tracked benchmark set
#   make bench-baseline  # tier1 + benches, refresh BENCH_baseline.json
#   make bench-compare   # tier1 + benches, diff against BENCH_baseline.json
#   make loadtest        # fleet-scale load tier: scaled tests + tail gate vs BENCH_tail.json
#   make loadtest-baseline  # full-population load scenarios, refresh BENCH_tail.json
#
# Benchmark knobs (see scripts/README.md): BENCH_COUNT, BENCH_TIME,
# BENCH_FILTER ('.'' = full suite, includes slow lease-traffic sweeps),
# BENCH_PKGS.

.PHONY: check check-race tier1 race lint drivolint doclint chaos fuzz-smoke bench-module-check loc bench bench-baseline bench-compare loadtest loadtest-baseline

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

# chaos runs the randomized fault-injection soak longer and across
# several fresh seeds (each run logs its seed; rerun one exactly with
# CHAOS_SEED=<n>). Knobs: CHAOS_SEEDS (runs), CHAOS_DURATION (storm
# length per run).
CHAOS_SEEDS ?= 5
CHAOS_DURATION ?= 5s
chaos:
	CHAOS_DURATION=$(CHAOS_DURATION) go test -race -run 'TestChaosSoak' -count=$(CHAOS_SEEDS) -v ./internal/core/

# fuzz-smoke runs each native fuzz target for FUZZ_TIME. The targets'
# seed corpora already run inside `go test` (and so `make check`);
# this is the short mutation run CI adds off the tier-1 path.
FUZZ_TIME ?= 20s
fuzz-smoke:
	go test ./internal/driverimg -run '^$$' -fuzz=FuzzEncodedImage -fuzztime=$(FUZZ_TIME)
	go test ./internal/sqlmini -run '^$$' -fuzz=FuzzValueCompare -fuzztime=$(FUZZ_TIME)
	go test ./internal/sqlmini -run '^$$' -fuzz=FuzzSkipList -fuzztime=$(FUZZ_TIME)

tier1:
	go build ./...
	go test ./...

race:
	go test -race ./internal/core/ ./internal/wire/ ./internal/sqlmini/ ./internal/driverimg/

doclint:
	scripts/doclint.sh

# bench/ (drivobench, BENCHMARK.json's entry point) is a module of its
# own, so the root `go build ./...` and `go test ./...` skip it; `make
# check` builds and vets it, and this target adds its tests and
# drivolint.
bench-module-check:
	cd bench && go vet ./... && go test ./... && go run repro/cmd/drivolint ./...

# loc prints, per package, Go lines outside _test.go files that are
# neither blank nor comment-only, then the lease-protocol client files
# as one group: the one count every simplicity PR's before/after claim
# uses.
loc:
	scripts/loc.sh internal/core/bootloader.go internal/core/renew.go internal/core/loadclient.go

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
