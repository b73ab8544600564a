package main

import "time"

// Every constant of the run shape lives here and is the same on every
// commit. BENCHMARK.json admits only the contract's keys, so these
// cannot live there; bench/README.md repeats them.

// conns is the number of generator connections, one goroutine each:
// the box has two cores, and the load comes from no more than that.
const conns = 2

// defaultSeconds is the measured time of one run; it equals
// run_seconds in BENCHMARK.json. An untraced run spends all of it in
// the closed loop; a traced run divides it among its phases.
const defaultSeconds = 15

// warmup precedes every measured stretch on a new stack: caches fill,
// prepared handles are built, the samples are discarded.
const warmup = 500 * time.Millisecond

// A run is setupReps repetitions, each setting up and measuring a
// stack of its own. Set-up alone is then repeated until setupBudget is
// spent or maxSetupReps are done; setup_s is the median of them all.
const (
	setupReps    = 3
	setupBudget  = 1500 * time.Millisecond
	maxSetupReps = 25
)

// window is the length of the time windows a phase is cut into (a
// short phase is cut into minWindows instead). Every timing and rate
// is the median of its per-window values: the box is shared, a
// neighbour's burst lasts about a second, and a median over windows
// ignores a burst that a whole-phase figure would absorb.
const (
	window     = time.Second
	minWindows = 3
)

// windowsIn is how many windows a phase of the given length has.
func windowsIn(length time.Duration) int {
	if n := int(length / window); n > minWindows {
		return n
	}
	return minWindows
}

// workloadConfig fixes one workload's inputs.
type workloadConfig struct {
	// Name is the workload's name in BENCHMARK.json, which also records
	// why it exists.
	Name string
	// Population is the number of virtual clients holding a lease
	// after set-up (cold_bootstrap has none: every op is a new one).
	Population int
	// PayloadBytes sizes the driver image payload.
	PayloadBytes int
	// R1 and R2 are the open-loop arrival rates in ops/s over all
	// connections, calibrated once on the seed commit to about 25% and
	// 60% of the workload's closed-loop ops_per_s, rounded to two
	// significant digits and frozen. They are never derived at run
	// time: a faster program is not offered more load.
	R1, R2 float64
	// LimitUs is the latency limit on the r2 phase: when fewer than
	// 99% of its ops finish inside it, or the generator's lateness
	// grows through the phase, the phase is flagged saturated and its
	// latency rows are reported as unresolved.
	LimitUs float64
	// ItemRows seeds the application table of workloads with a target
	// DBMS.
	ItemRows int
	// Rounds makes the workload round-based: a full run (defaultSeconds
	// of measured time) runs exactly this many rounds, a shorter phase
	// its share of them, never "as many as fit". Calibrated once on the
	// seed commit (2 000 upgrades take about 0.2 s) and frozen.
	Rounds int
}

var workloads = []workloadConfig{
	{
		Name:         "steady_renew",
		Population:   20000,
		PayloadBytes: 1 << 10,
		R1:           6000, R2: 14000,
		LimitUs: 10000,
	},
	{
		Name:         "cold_bootstrap",
		PayloadBytes: 256 << 10,
		R1:           150, R2: 360,
		LimitUs:  100000,
		ItemRows: 5000,
	},
	{
		Name:         "upgrade_storm",
		Population:   2000,
		PayloadBytes: 16 << 10,
		R1:           2700, R2: 6500,
		LimitUs: 20000,
		Rounds:  60, // 20 on each of an untraced run's three stacks
	},
	{
		Name:         "external_mixed",
		Population:   5000,
		PayloadBytes: 16 << 10,
		R1:           5100, R2: 12000,
		LimitUs:  10000,
		ItemRows: 5000,
	},
}

func workloadByName(name string) (workloadConfig, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadConfig{}, false
}

// runParams is one run's shape: the workload's constants plus the
// lengths the command line (or the smoke test) chose.
type runParams struct {
	cfg     workloadConfig
	seed    int64
	measure time.Duration // the measured time of the run
	warmup  time.Duration
	// The run is setupReps repetitions; set-up alone is repeated on
	// until setupBudget is spent.
	setupReps   int
	setupBudget time.Duration
	// microBudget is how long each direct measurement of an exported
	// function runs, floorBudget each null-server run.
	microBudget time.Duration
	floorBudget time.Duration
	// fleetLease is the lease time of the null server's recorded OFFER,
	// which paces the workload.Fleet cross-check.
	fleetLease time.Duration
	outDir     string
}

func defaultParams(cfg workloadConfig, seed int64, seconds int, outDir string) runParams {
	return runParams{
		cfg:         cfg,
		seed:        seed,
		measure:     time.Duration(seconds) * time.Second,
		warmup:      warmup,
		setupReps:   setupReps,
		setupBudget: setupBudget,
		microBudget: 60 * time.Millisecond,
		floorBudget: 700 * time.Millisecond,
		fleetLease:  time.Second,
		outDir:      outDir,
	}
}
