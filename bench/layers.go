package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
)

// runTraced produces the per-layer metrics of one workload. Every
// number is taken from outside the program: spans around the calls
// the harness makes, a timing store under the server, a null server
// that replays recorded frames, replays of captured statements on a
// bare engine, direct calls to exported functions, exported counters.
//
// The measured time is divided into five equal stretches: open loop
// at r1 and at r2 on a plain stack (no wrapper: the latencies a user
// would see, and the reference for the tracing overhead), then on the
// traced stack a solo stretch (one connection in flight, so every
// store span has exactly one possible parent), open loop at r1, and
// the closed loop.
func runTraced(p runParams) (*result, error) {
	res := &result{Workload: p.cfg.Name, Seed: p.seed, Traced: true}
	stretch := p.measure / 5

	refP50, err := openLoopReference(p, res, stretch)
	if err != nil {
		return nil, err
	}

	tr := newTracer(conns)
	in, err := setupFor(p, tr)
	if err != nil {
		return nil, err
	}
	defer in.closeAll()
	res.Attempted += in.setupOps
	gens, err := newGenerators(p.seed, tr)
	if err != nil {
		return nil, err
	}
	defer closeGenerators(gens)

	warm, err := runPhase(in, gens, load{}, p.warmup)
	if err != nil {
		return nil, err
	}
	res.count("warm-up", warm)

	soloFrom := tr.now()
	solo, err := runPhase(in, gens, load{solo: true}, stretch)
	if err != nil {
		return nil, err
	}
	soloTo := tr.now()
	res.count("solo", solo)

	r1, err := runPhase(in, gens, load{rate: p.cfg.R1}, stretch)
	if err != nil {
		return nil, err
	}
	res.count("traced r1", r1)
	res.add("bench.trace_overhead_frac", r1.windowedQuantile(0.5)/refP50-1, "ratio", len(r1.latUs), "")

	before := snapshotCounters(in)
	closedFrom := tr.now()
	closed, err := runPhase(in, gens, load{}, stretch)
	if err != nil {
		return nil, err
	}
	closedTo := tr.now()
	after := snapshotCounters(in)
	res.count("traced closed-loop", closed)
	res.check(in, "end check")
	res.add("bench.fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted, "")

	// The floor: the same client calls against a server that does
	// nothing but replay recorded frames.
	fl, err := measureFloor(p, in)
	if err != nil {
		return nil, fmt.Errorf("floor run: %w", err)
	}
	fl.report(res)

	reportSolo(res, in, tr, soloFrom, soloTo, fl.rttP50Us)
	reportClosed(res, in, tr, closed, closedFrom, closedTo, before, after, fl)
	reportServerSpans(res, tr)
	if err := reportInterception(res, in, p.floorBudget); err != nil {
		return nil, err
	}
	if err := reportMicro(res, p, in, fl.canned); err != nil {
		return nil, err
	}
	if in.connStore != nil {
		exec, _ := res.value("core.store.exec_p50_us")
		trip, _ := res.value("dbms.stmt_exec_p50_us")
		res.add("core.connstore.wait_us", exec-trip, "us", 0,
			"derived: store span p50 minus a bare dbms prepared round trip")
	}

	path, err := tr.write(p.outDir, p.cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.SpanFile = path
	return res, nil
}

// openLoopReference drives a plain, untraced stack open loop at r1
// and r2, timing every op from the instant it was due, and returns
// the r1 median for the tracing-overhead ratio.
func openLoopReference(p runParams, res *result, stretch time.Duration) (float64, error) {
	in, err := setupFor(p, nil)
	if err != nil {
		return 0, err
	}
	defer in.closeAll()
	res.Attempted += in.setupOps
	gens, err := newGenerators(p.seed, nil)
	if err != nil {
		return 0, err
	}
	defer closeGenerators(gens)
	warm, err := runPhase(in, gens, load{}, p.warmup)
	if err != nil {
		return 0, err
	}
	res.count("reference warm-up", warm)
	r1, err := runPhase(in, gens, load{rate: p.cfg.R1}, stretch)
	if err != nil {
		return 0, err
	}
	res.count("r1", r1)
	r2, err := runPhase(in, gens, load{rate: p.cfg.R2}, stretch)
	if err != nil {
		return 0, err
	}
	res.count("r2", r2)
	res.check(in, "reference end check")

	addOpenLoop(res, "r1", r1, "")
	note := ""
	if r2.saturated(p.cfg.LimitUs) {
		note = "unresolved: r2 phase saturated"
	}
	addOpenLoop(res, "r2", r2, note)
	lags := sortedCopy(append(append([]float64(nil), r1.lagUs...), r2.lagUs...))
	res.add("bench.sched_lag_p99_us", quantile(lags, 0.99), "us", len(lags), "")
	return r1.windowedQuantile(0.5), nil
}

// addOpenLoop reports one open-loop phase: the medians over time
// windows of the p50 and the p99 of latency from the due time.
func addOpenLoop(res *result, name string, ph *phase, note string) {
	n := len(ph.latUs)
	res.add("bench.lat_"+name+"_p50_us", ph.windowedQuantile(0.5), "us", n, note)
	res.add("bench.lat_"+name+"_p99_us", ph.windowedQuantile(0.99), "us", n, note)
}

// counters is every exported counter the closed loop is bracketed by.
type counters struct {
	srv        core.ServerCounters
	dbmsFrames int64
}

func snapshotCounters(in *instance) counters {
	c := counters{srv: in.srv.Counters()}
	if t := in.target; t != nil {
		c.dbmsFrames = t.QueriesServed() + t.PreparesServed() + t.StmtExecsServed() +
			t.VersionProbesServed() + t.BatchesServed()
	}
	return c
}

// reportSolo turns the solo stretch's op trees into the latency
// budget: the client call, the store time inside it, and the residual
// that is neither store nor wire floor.
func reportSolo(res *result, in *instance, tr *tracer, from, to int64, floorUs float64) {
	var request, store, server, harness, connect []float64
	for c := 0; c < conns; c++ {
		for _, tree := range tr.attribute(c, from, to) {
			self := tree.selfTimes()
			harness = append(harness, float64(self[spanOp])/1e3)
			var reqNs, storeNs int64
			stmts, updates := 0, 0
			hasRequest, hasDiscover := false, false
			for _, sp := range tree.spans {
				switch sp.name {
				case spanRequest:
					hasRequest = true
					reqNs += sp.end - sp.start
				case spanDiscover:
					hasDiscover = true
				case spanConnect:
					connect = append(connect, float64(sp.end-sp.start)/1e3)
				case spanStore:
					storeNs += sp.end - sp.start
					stmts++
					if sp.kind == kindUpdate {
						updates++
					}
				}
			}
			// The probe must not knock the server off the path it
			// measures: a no-change renewal is one guarded UPDATE, a
			// discover is answered from the catalog with no statement.
			if in.noChangeRenewals && hasRequest && (stmts != 1 || updates != 1) {
				res.fail("op %d: a no-change renewal ran %d statements (%d UPDATE), want exactly 1 UPDATE", tree.root.op, stmts, updates)
			}
			if hasDiscover && stmts != 0 {
				res.fail("op %d: a discover ran %d statements, want 0", tree.root.op, stmts)
			}
			if hasRequest {
				request = append(request, float64(reqNs)/1e3)
				store = append(store, float64(storeNs)/1e3)
				server = append(server, float64(reqNs-storeNs)/1e3-floorUs)
			}
		}
	}
	res.add("bench.self_us_per_op", mean(harness), "us", len(harness), "")
	if len(connect) > 0 {
		res.add("core.bootloader.connect_p50_us", median(connect), "us", len(connect), "")
	}
	if len(request) == 0 {
		return
	}
	reqP50, storeP50, serverP50 := median(request), median(store), median(server)
	res.add("core.client.request_p50_us", reqP50, "us", len(request), "")
	res.add("core.client.request_p99_us", quantile(sortedCopy(request), 0.99), "us", len(request), "")
	res.add("core.store.exec_solo_p50_us", storeP50, "us", len(store), "")
	res.add("core.server.self_p50_us", serverP50, "us", len(server),
		"derived: request - store - wire floor, until spans inside core exist")
}

// reportClosed reports what the traced closed loop shows: the store
// boundary under two connections, statement counts, the runtime's
// share, and the counters that bracket the phase.
func reportClosed(res *result, in *instance, tr *tracer, closed *phase,
	from, to int64, before, after counters, fl *floor) {
	ops := float64(len(closed.latUs))
	var (
		durs    []float64
		busyNs  int64
		byKind  [numKinds]int
		catalog int
	)
	tr.store.mu.Lock()
	for _, sp := range tr.store.list {
		if sp.name != spanStore || sp.start < from || sp.end > to {
			continue
		}
		durs = append(durs, float64(sp.end-sp.start)/1e3)
		busyNs += sp.end - sp.start
		byKind[sp.kind]++
		if sp.catalog {
			catalog++
		}
	}
	tr.store.mu.Unlock()
	sorted := sortedCopy(durs)
	res.add("core.store.exec_p50_us", quantile(sorted, 0.5), "us", len(durs), "")
	res.add("core.store.exec_p99_us", quantile(sorted, 0.99), "us", len(durs), "")
	res.add("core.store.busy_frac", float64(busyNs)/float64(to-from), "ratio", len(durs), "")
	res.add("core.store.stmts_per_op", float64(len(durs))/ops, "count", len(durs), "")
	for k := kindSelect; k <= kindDelete; k++ {
		res.add("core.store."+kindNames[k]+"_per_op", float64(byKind[k])/ops, "count", byKind[k], "")
	}
	if rounds := len(closed.roundS); rounds > 0 {
		res.add("core.catalog.reload_stmts_per_round", float64(catalog)/float64(rounds), "count", catalog, "")
		res.add("bench.converge_s", median(closed.roundS), "s", rounds, "")
	}

	res.add("bench.lat_p99_us", quantile(sortedCopy(closed.latUs), 0.99), "us", int(ops),
		"closed loop on the traced stack; the untraced run prints the plain one")
	res.add("proc.allocs_per_op", float64(closed.mem.mallocs)/ops, "count", int(ops), "")
	res.add("proc.alloc_kb_per_op", float64(closed.mem.bytes)/1024/ops, "KB", int(ops), "")
	res.add("proc.gc_cycles", float64(closed.mem.gcCycles), "count", 0, "")
	res.add("proc.gc_pause_ms_total", float64(closed.mem.gcPause)/1e6, "ms", int(closed.mem.gcCycles), "")

	if in.target != nil {
		res.add("dbms.frames_per_op", float64(after.dbmsFrames-before.dbmsFrames)/ops, "count", int(ops), "")
	}
	if bytesPerOp := float64(after.srv.BytesOut-before.srv.BytesOut) / ops; bytesPerOp > 0 {
		res.add("core.bootloader.transfer_us", bytesPerOp/(1<<20)/fl.fileMBPerS*1e6, "us", int(ops),
			"derived: transferred bytes per op / wire.file_chunk_mb_per_s")
	}
	if cs := in.connStore; cs != nil {
		st := cs.Stats()
		res.add("core.connstore.redials", float64(st.Redials), "count", 0, "")
		res.add("core.connstore.remote_prepares", float64(st.RemotePrepares), "count", 0, "")
	}
}

// reportServerSpans reports the spans around the server's own admin
// calls: reaper sweeps and AddDriver.
func reportServerSpans(res *result, tr *tracer) {
	var reap, add []float64
	tr.store.mu.Lock()
	for _, sp := range tr.store.list {
		switch sp.name {
		case spanReap:
			reap = append(reap, float64(sp.end-sp.start)/1e3)
		case spanAddDriver:
			add = append(add, float64(sp.end-sp.start)/1e6)
		}
	}
	tr.store.mu.Unlock()
	if len(reap) > 0 {
		res.add("core.reap.sweep_us", median(reap), "us", len(reap), "")
	}
	if len(add) > 0 {
		res.add("core.admin.add_driver_ms", median(add), "ms", len(add), "")
	}
}

// reportInterception measures what the bootloader adds to a connect
// once its driver is installed: connect + one query + close through
// the bootloader, minus the same through a plain legacy driver.
func reportInterception(res *result, in *instance, budget time.Duration) error {
	if in.installedConnect == nil {
		return nil
	}
	connectQueryClose := func(open func() (client.Conn, error)) (float64, error) {
		start := time.Now()
		conn, err := open()
		if err != nil {
			return 0, err
		}
		_, err = conn.Query(itemQuery, 1)
		_ = conn.Close()
		return float64(time.Since(start)) / 1e3, err
	}
	// The two are timed turn by turn, so a change in the box's speed
	// falls on both alike.
	var installed, legacy []float64
	for start := time.Now(); time.Since(start) < budget || len(installed) < 3; {
		a, err := connectQueryClose(in.installedConnect)
		if err != nil {
			return fmt.Errorf("interception overhead: %w", err)
		}
		b, err := connectQueryClose(in.legacyConnect)
		if err != nil {
			return fmt.Errorf("interception overhead: %w", err)
		}
		installed, legacy = append(installed, a), append(legacy, b)
	}
	res.add("core.bootloader.intercept_overhead_us", median(installed)-median(legacy), "us", len(installed),
		"derived: installed-bootloader connect+query minus legacy-driver connect+query")
	return nil
}

// perCallUs calls f in batches for about budget and returns the
// median microseconds per call over the batches, and the call count.
func perCallUs(budget time.Duration, batch int, f func()) (float64, int) {
	var per []float64
	calls := 0
	for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/1e3/float64(batch))
		calls += batch
	}
	return median(per), calls
}

// firstError keeps the first error of a timed loop whose body cannot
// return one.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// mallocsPer returns the heap allocations per call of f over n calls.
func mallocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}
