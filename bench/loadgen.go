package main

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// generator is one load connection: one goroutine, its own random
// streams, its own pacer and (traced runs) its own span buffer.
type generator struct {
	c     int
	opRng *rand.Rand // op choices: which client, which op of the mix
	gaps  *rand.Rand // open-loop arrival gaps
	pace  *pacer
	sp    *spanBuf
	ops   uint64        // ops started, for op ids
	done  *atomic.Int64 // the current phase's completed-op counter
}

// newGenerators derives every random stream from the seed: the same
// seed gives the same op sequence and the same arrival schedule.
func newGenerators(seed int64, tr *tracer) ([]*generator, error) {
	gens := make([]*generator, conns)
	for c := range gens {
		pc, err := newPacer()
		if err != nil {
			return nil, err
		}
		gens[c] = &generator{
			c:     c,
			opRng: rand.New(rand.NewSource(seed*1000003 + int64(c)*2 + 1)),
			gaps:  rand.New(rand.NewSource(seed*1000003 + int64(c)*2 + 2)),
			pace:  pc,
			sp:    tr.buf(c),
		}
	}
	return gens, nil
}

func closeGenerators(gens []*generator) {
	for _, g := range gens {
		g.pace.close()
	}
}

// schedule draws the due times (offsets from the phase start) of one
// connection's Poisson arrivals at rate/conns for length; with
// maxOps > 0 it draws exactly that many instead.
func (g *generator) schedule(rate float64, length time.Duration, maxOps int) []time.Duration {
	mean := float64(conns) / rate * float64(time.Second)
	var due []time.Duration
	at := 0.0
	for {
		at += -math.Log(1-g.gaps.Float64()) * mean
		if maxOps > 0 {
			if len(due) == maxOps {
				return due
			}
		} else if time.Duration(at) >= length {
			return due
		}
		due = append(due, time.Duration(at))
	}
}

// samples is what one phase measured.
type samples struct {
	latUs  []float64 // per op: completion - due (open loop) or - send (closed loop)
	lagUs  []float64 // per op: send - due, the generator's lateness (open loop)
	doneS  []float64 // per op: completion, seconds since the phase start
	failed int
	first  error // first failure, for the report
}

func (s *samples) merge(o *samples) {
	s.latUs = append(s.latUs, o.latUs...)
	s.lagUs = append(s.lagUs, o.lagUs...)
	s.doneS = append(s.doneS, o.doneS...)
	s.failed += o.failed
	if s.first == nil {
		s.first = o.first
	}
}

// failure counts one failed op or check.
func (s *samples) failure(err error) {
	s.failed++
	if s.first == nil {
		s.first = err
	}
}

func (g *generator) doOp(in *instance) error {
	g.ops++
	g.sp.beginOp(g.ops<<8 | uint64(g.c))
	err := in.op(g.c, g.opRng, g.sp)
	g.sp.end()
	g.done.Add(1)
	return err
}

// openLoop sends each op when it falls due, whatever the previous
// ones did, and times it from the due instant: a stall is charged to
// every op it delays. phaseStart anchors the completion times.
func (g *generator) openLoop(in *instance, due []time.Duration, phaseStart time.Time, out *samples) {
	start := time.Now()
	for _, d := range due {
		at := start.Add(d)
		if err := g.pace.waitUntil(at); err != nil && out.first == nil {
			out.first = err
		}
		sent := time.Now()
		err := g.doOp(in)
		done := time.Now()
		out.latUs = append(out.latUs, float64(done.Sub(at))/1e3)
		out.lagUs = append(out.lagUs, float64(sent.Sub(at))/1e3)
		out.doneS = append(out.doneS, done.Sub(phaseStart).Seconds())
		if err != nil {
			out.failure(err)
		}
	}
}

// closedLoop sends the next op when the previous one returns, until
// the deadline passes or maxOps (> 0) have run.
func (g *generator) closedLoop(in *instance, deadline time.Time, maxOps int, phaseStart time.Time, out *samples) {
	for n := 0; maxOps <= 0 || n < maxOps; n++ {
		sent := time.Now()
		if maxOps <= 0 && !sent.Before(deadline) {
			return
		}
		err := g.doOp(in)
		done := time.Now()
		out.latUs = append(out.latUs, float64(done.Sub(sent))/1e3)
		out.doneS = append(out.doneS, done.Sub(phaseStart).Seconds())
		if err != nil {
			out.failure(err)
		}
	}
}

// phase is one measured stretch of a run.
type phase struct {
	samples
	elapsed time.Duration
	windows int       // how many time windows the phase is cut into
	ticks   []tick    // window boundaries, the phase start first
	roundS  []float64 // round-based workloads: each round's length
	mem     memDelta
	// done counts completed ops. It is an allocation of its own: the
	// generators keep pointing at it after the phase, and a pointer
	// into the phase itself would keep every sample slice alive
	// through the forced GC that heap_live_mb is read after.
	done *atomic.Int64
}

// tick is the process's state at one window boundary.
type tick struct {
	at  time.Duration // since the phase start
	cpu time.Duration // user+system CPU so far
	ops int64         // ops completed so far
}

func (ph *phase) tick(start time.Time) error {
	cpu, err := cpuTime()
	if err != nil {
		return err
	}
	ph.ticks = append(ph.ticks, tick{at: time.Since(start), cpu: cpu, ops: ph.done.Load()})
	return nil
}

// perWindow maps f over consecutive window boundaries, skipping
// windows in which no op completed.
func (ph *phase) perWindow(f func(a, b tick) float64) []float64 {
	var out []float64
	for i := 1; i < len(ph.ticks); i++ {
		if a, b := ph.ticks[i-1], ph.ticks[i]; b.ops > a.ops {
			out = append(out, f(a, b))
		}
	}
	return out
}

// opsPerSecond is the median over windows of completions per second.
func (ph *phase) opsPerSecond() float64 {
	return median(ph.perWindow(func(a, b tick) float64 {
		return float64(b.ops-a.ops) / (b.at - a.at).Seconds()
	}))
}

// cpuMsPerKop is the median over windows of CPU milliseconds per
// thousand completed ops.
func (ph *phase) cpuMsPerKop() float64 {
	return median(ph.perWindow(func(a, b tick) float64 {
		return float64(b.cpu-a.cpu) / 1e6 / (float64(b.ops-a.ops) / 1000)
	}))
}

// memDelta is what the Go runtime did over a phase.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// load is how a phase drives the connections. The zero value is the
// closed loop on every connection at once.
type load struct {
	// rate > 0 makes the phase an open loop at that many ops/s over
	// all connections.
	rate float64
	// solo runs the connections one after another, never two in
	// flight: service time without contention, and traces in which a
	// store span has one possible parent.
	solo bool
}

// sampleWindows marks the window boundaries of a timed phase until
// the returned function is called.
func (ph *phase) sampleWindows(start time.Time, every time.Duration) (stop func()) {
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_ = ph.tick(start) // cpuTime worked a moment ago; a gap only widens a window
			}
		}
	}()
	return func() {
		close(done)
		sampler.Wait()
	}
}

// runPhase drives gens against in for length. A round-based workload
// runs the fixed number of rounds a phase of that length stands for,
// however long they take: both commits then do identical work against
// an identically grown catalog.
func runPhase(in *instance, gens []*generator, ld load, length time.Duration) (*phase, error) {
	rate := ld.rate
	ph := &phase{windows: windowsIn(length), done: new(atomic.Int64)}
	for _, g := range gens {
		g.done = ph.done
	}
	mem0 := readMem()
	start := time.Now()
	if err := ph.tick(start); err != nil {
		return nil, err
	}

	// each runs one stretch on every generator and merges the samples.
	each := func(maxOps int, stretch time.Duration) {
		parts := make([]samples, len(gens))
		var dues [][]time.Duration
		if rate > 0 {
			for _, g := range gens {
				dues = append(dues, g.schedule(rate, stretch, maxOps))
			}
		}
		drive := func(i int, g *generator, stretch time.Duration) {
			if rate > 0 {
				g.openLoop(in, dues[i], start, &parts[i])
			} else {
				g.closedLoop(in, time.Now().Add(stretch), maxOps, start, &parts[i])
			}
		}
		if ld.solo {
			for i, g := range gens {
				drive(i, g, stretch/time.Duration(len(gens)))
			}
		} else {
			var wg sync.WaitGroup
			for i, g := range gens {
				wg.Add(1)
				go func(i int, g *generator) {
					defer wg.Done()
					drive(i, g, stretch)
				}(i, g)
			}
			wg.Wait()
		}
		for i := range parts {
			ph.merge(&parts[i])
		}
	}

	if in.roundOps == 0 {
		stop := ph.sampleWindows(start, length/time.Duration(ph.windows))
		each(0, length)
		stop()
	} else {
		// A round is a window: rates are medians over the rounds. An
		// open loop offers length x rate ops whatever the program does,
		// so there the rate fixes the count.
		rounds := in.roundsIn(length)
		if rate > 0 {
			rounds = max(1, int(math.Round(rate*length.Seconds()/float64(in.roundOps*len(gens)))))
		}
		for ; rounds > 0; rounds-- {
			roundStart := time.Now()
			if err := in.beginRound(gens[0].opRng); err != nil {
				return nil, err
			}
			each(in.roundOps, 0)
			ph.roundS = append(ph.roundS, time.Since(roundStart).Seconds())
			if err := in.endRound(); err != nil {
				ph.failure(err)
			}
			if err := ph.tick(start); err != nil {
				return nil, err
			}
		}
	}

	ph.elapsed = time.Since(start)
	ph.mem = memSince(mem0)
	if len(ph.latUs) == 0 {
		return nil, errors.New("phase completed no ops")
	}
	return ph, nil
}

// windowedQuantile splits the phase into equal time windows by
// completion time and returns the median of the windows' q-quantile.
func (ph *phase) windowedQuantile(q float64) float64 {
	width := ph.elapsed.Seconds() / float64(ph.windows)
	byWindow := make([][]float64, ph.windows)
	for i, done := range ph.doneS {
		w := int(done / width)
		if w >= ph.windows {
			w = ph.windows - 1
		}
		byWindow[w] = append(byWindow[w], ph.latUs[i])
	}
	var qs []float64
	for _, w := range byWindow {
		if len(w) > 0 {
			qs = append(qs, quantile(sortedCopy(w), q))
		}
	}
	return median(qs)
}

// saturated reports whether an open-loop phase overran the workload's
// limit: fewer than 99% of ops inside limitUs, or the generator ending
// the phase later behind schedule than it began it by more than the
// limit.
func (ph *phase) saturated(limitUs float64) bool {
	inside := 0
	for _, l := range ph.latUs {
		if l <= limitUs {
			inside++
		}
	}
	if float64(inside) < 0.99*float64(len(ph.latUs)) {
		return true
	}
	fifth := len(ph.lagUs) / 5
	if fifth == 0 {
		return false
	}
	// lagUs is per connection in send order, concatenated; compare
	// each end of the whole slice, which mixes the connections alike.
	head := median(ph.lagUs[:fifth])
	tail := median(ph.lagUs[len(ph.lagUs)-fifth:])
	return tail-head > limitUs
}
