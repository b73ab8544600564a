package main

import (
	"fmt"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarises (ops for a
	// latency, set-ups for setup_s); 0 for counters and ratios.
	Samples int `json:"samples,omitempty"`
	// Note flags a value that must not be read as resolved, e.g. a
	// latency from a saturated phase, or a derived residual.
	Note string `json:"note,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Metrics   []metric
	Attempted int
	Failed    int
	// Errors are the failed checks and the first failed op of each
	// phase; the run is correct when there are none.
	Errors []string
	// SpanFile is where a traced run wrote its spans.
	SpanFile string
}

func (r *result) add(name string, value float64, unit string, samples int, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples, Note: note})
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// count folds a phase's ops and failures into the run's totals.
func (r *result) count(name string, ph *phase) {
	r.Attempted += len(ph.latUs)
	r.Failed += ph.failed
	if ph.first != nil {
		r.Errors = append(r.Errors, fmt.Sprintf("%s phase: %d ops failed, first: %v", name, ph.failed, ph.first))
	}
}

// timeSetup sets the workload up once, from a collected heap, and
// returns the stack and how long it took.
func timeSetup(p runParams) (*instance, float64, error) {
	runtime.GC()
	start := time.Now()
	in, err := setupFor(p, nil)
	return in, time.Since(start).Seconds(), err
}

// runUntraced measures the end-to-end metrics of one workload. A run
// is setupReps repetitions, each on a stack of its own: set-up,
// warm-up, the closed loop for its share of the measured time (on a
// round-based workload: its share of the fixed rounds), the end
// checks, the heap held. Every metric is the median over the
// repetitions of the repetition's figure: each stack lays its memory
// out anew, and a run that samples several is steadier than one long
// closed loop on one. Within a repetition, rates and the p50 are
// medians over time windows, which shrugs off a neighbour's burst; the
// tail is taken over the whole stretch, because it sits among the ops
// a garbage collection delayed and a one-second window holds too few
// collections for their share to be steady.
//
// The bounded tail metric is the mean of the slowest 1% of ops, not
// the p99. A renewal takes 40 us and one in fifty is delayed by 0.6 to
// 4 ms (a collection, a scheduler tick), so the p99 stands on the edge
// of a cliff: when the shared box slowed by 12%, the p99 rose by 18 to
// 31% and the tail mean by 10 to 13% (README.md has the table). The
// p99 is still printed, as bench.lat_p99_us, without a bound.
//
// The open-loop phases are in the traced run: on this box their
// latencies do not repeat within any bound (see README.md), so they
// are reported there, without one.
func runUntraced(p runParams) (*result, error) {
	res := &result{Workload: p.cfg.Name, Seed: p.seed}
	gens, err := newGenerators(p.seed, nil)
	if err != nil {
		return nil, err
	}
	defer closeGenerators(gens)

	var setups, opsPerS, p50, p99, tail, cpu, heap, converge []float64
	ops := 0
	for rep := 0; rep < p.setupReps; rep++ {
		in, took, err := timeSetup(p)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		closed, err := measureClosed(p, res, in, gens)
		if err != nil {
			in.closeAll()
			return nil, err
		}
		ops += len(closed.latUs)
		opsPerS = append(opsPerS, closed.opsPerSecond())
		p50 = append(p50, closed.windowedQuantile(0.5))
		sorted := sortedCopy(closed.latUs)
		p99 = append(p99, quantile(sorted, 0.99))
		tail = append(tail, slowestMean(sorted))
		cpu = append(cpu, closed.cpuMsPerKop())
		if len(closed.roundS) > 0 {
			converge = append(converge, median(closed.roundS))
		}
		// What it costs to hold this population: the stack is still
		// up, the phase's samples are garbage by now (nothing but this
		// variable referred to them; TestPhaseIsFreed).
		closed = nil
		heap = append(heap, heapLiveMB())
		in.closeAll()
	}
	// A set-up of milliseconds is timed more often, until the budget
	// is spent: its median then rests on many.
	for spent := sum(setups); spent < p.setupBudget.Seconds() && len(setups) < maxSetupReps; {
		in, took, err := timeSetup(p)
		if err != nil {
			return nil, err
		}
		in.closeAll()
		res.Attempted += in.setupOps
		setups = append(setups, took)
		spent += took
	}

	res.add("setup_s", median(setups), "s", len(setups), "")
	res.add("ops_per_s", median(opsPerS), "1/s", ops, "")
	res.add("lat_p50_us", median(p50), "us", ops, "")
	res.add("lat_slowest1pct_us", median(tail), "us", ops/100, "")
	res.add("cpu_ms_per_kop", median(cpu), "ms", ops, "")
	res.add("heap_live_mb", median(heap), "MB", len(heap), "")
	res.add("bench.lat_p99_us", median(p99), "us", ops, "")
	if len(converge) > 0 {
		res.add("bench.converge_s", median(converge), "s", len(converge), "")
	}
	res.add("bench.fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted, "")
	return res, nil
}

// measureClosed warms one stack up, drives the closed loop on it for
// a repetition's share of the measured time, and runs the end checks.
func measureClosed(p runParams, res *result, in *instance, gens []*generator) (*phase, error) {
	res.Attempted += in.setupOps
	warm, err := runPhase(in, gens, load{}, p.warmup)
	if err != nil {
		return nil, err
	}
	res.count("warm-up", warm)
	closed, err := runPhase(in, gens, load{}, p.measure/time.Duration(p.setupReps))
	if err != nil {
		return nil, err
	}
	res.count("closed-loop", closed)
	res.check(in, "end check")
	return closed, nil
}

// heapLiveMB is the heap in use after two forced collections. The
// second one empties the victim caches of the program's sync.Pools,
// which survive a single collection or not depending on when the last
// background collection ran: half a megabyte of pooled buffers on
// upgrade_storm, a tenth of the figure, that came and went by chance.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readMem().HeapAlloc) / (1 << 20)
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

// check runs the workload's end-of-run checks; a failed one counts as
// one more failed attempt.
func (r *result) check(in *instance, name string) {
	if in.check != nil {
		r.Attempted++
		if err := in.check(); err != nil {
			r.fail("%s: %v", name, err)
		}
	}
}
