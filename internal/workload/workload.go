// Package workload drives simulated client applications against a
// database through any client.Driver (a legacy driver or a Drivolution
// bootloader) and records per-request outcomes, so the paper's
// operational claims — driver upgrades are disruptive today, transparent
// under Drivolution — become measurable error windows and latencies.
package workload

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
)

// Outcome is one recorded request.
type Outcome struct {
	Start   time.Time
	Latency time.Duration
	Err     error
	// ConnectFail marks outcomes where the connection could not even be
	// established (as opposed to an established connection failing an op).
	ConnectFail bool
}

// Recorder accumulates outcomes from concurrent workers. State is
// sharded — each shard has its own lock, histogram, and counters, and
// shards merge on read — so a six-figure virtual-client fleet never
// funnels every request through one mutex. In the default mode every
// Outcome is also retained for post-hoc inspection (Outcomes); the
// histogram-only mode (NewHistRecorder) keeps just the fixed-size
// histogram and counters per shard, so memory stays flat no matter how
// many requests a run records.
type Recorder struct {
	retain bool
	shards []recShard
	next   atomic.Uint64 // round-robin shard pick for unpinned Record calls
}

// recShard is one worker's slice of the recorder. The trailing pad
// keeps adjacent shards off one cache line — shards exist precisely so
// workers don't contend.
type recShard struct {
	mu                  sync.Mutex
	outcomes            []Outcome
	hist                Hist // successful-request latencies
	total               uint64
	errors              uint64
	retries             uint64
	timeouts            uint64
	firstFail, lastFail time.Time
	_                   [64]byte
}

// NewRecorder creates an outcome-retaining recorder (the default mode:
// full per-request history, suitable for scenario-sized runs).
func NewRecorder() *Recorder { return newRecorder(8, true) }

// NewHistRecorder creates a histogram-only recorder with one shard per
// expected worker: per-request outcomes are never retained, so memory
// is O(shards), not O(requests). This is the mode fleet-scale runs use.
func NewHistRecorder(shards int) *Recorder { return newRecorder(shards, false) }

func newRecorder(shards int, retain bool) *Recorder {
	if shards < 1 {
		shards = 1
	}
	return &Recorder{retain: retain, shards: make([]recShard, shards)}
}

// HistogramOnly reports whether the recorder retains outcomes.
func (r *Recorder) HistogramOnly() bool { return !r.retain }

// Record appends one outcome to some shard. Callers with a stable
// worker identity should prefer RecordShard, which avoids even the
// round-robin atomic.
func (r *Recorder) Record(o Outcome) {
	r.RecordShard(int(r.next.Add(1)), o)
}

// RecordShard appends one outcome to the shard owned by worker w
// (w mod shard count, so any id is safe).
func (r *Recorder) RecordShard(w int, o Outcome) {
	if w < 0 {
		w = -w
	}
	s := &r.shards[w%len(r.shards)]
	s.mu.Lock()
	s.total++
	if o.Err != nil {
		s.errors++
		if o.ConnectFail {
			s.retries++
		}
		if isTimeoutErr(o.Err) {
			s.timeouts++
		}
		end := o.Start.Add(o.Latency)
		if s.firstFail.IsZero() || end.Before(s.firstFail) {
			s.firstFail = end
		}
		if end.After(s.lastFail) {
			s.lastFail = end
		}
	} else {
		s.hist.Record(o.Latency)
	}
	if r.retain {
		s.outcomes = append(s.outcomes, o)
	}
	s.mu.Unlock()
}

// isTimeoutErr classifies deadline expiries: both transport-level
// timeouts (net.Error with Timeout() true, which includes
// os.ErrDeadlineExceeded from SetDeadline) and context deadlines
// (context.DeadlineExceeded — what a context-scoped op surfaces, which
// does NOT implement net.Error) count.
func isTimeoutErr(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Outcomes snapshots the recorded outcomes in start order. In
// histogram-only mode no outcomes are retained and Outcomes returns
// nil.
func (r *Recorder) Outcomes() []Outcome {
	if !r.retain {
		return nil
	}
	var out []Outcome
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.outcomes...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Hist returns the merged latency histogram of successful requests.
func (r *Recorder) Hist() Hist {
	var h Hist
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		h.Merge(&s.hist)
		s.mu.Unlock()
	}
	return h
}

// Stats summarizes a run.
type Stats struct {
	Total  int
	Errors int
	// ErrorWindow is the wall-clock span during which failures occurred:
	// the time between the first and the last failed request completion.
	// Concurrent workers make gap-to-recovery measures ambiguous; this
	// span is robust and still zero-ish for a one-off hiccup versus
	// ~outage-length for a real outage.
	ErrorWindow time.Duration
	// P50, P95, P99 are latency quantiles of successful requests, read
	// from the merged histogram (bucket upper bounds, ≤~3% high); Max
	// is the exact worst successful request.
	P50, P95, P99, Max time.Duration
	// Retries counts connect attempts that failed and were retried on
	// the backoff schedule.
	Retries int
	// Timeouts counts errors that were deadline expiries — transport
	// timeouts (net.Error with Timeout() true) or context deadlines
	// (context.DeadlineExceeded) — rather than hard failures.
	Timeouts int
}

// Stats computes the summary by merging every shard's counters and
// histogram; it never touches retained outcomes, so it costs the same
// in both recorder modes.
func (r *Recorder) Stats() Stats {
	var s Stats
	var h Hist
	var firstFail, lastFail time.Time
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		s.Total += int(sh.total)
		s.Errors += int(sh.errors)
		s.Retries += int(sh.retries)
		s.Timeouts += int(sh.timeouts)
		if !sh.firstFail.IsZero() && (firstFail.IsZero() || sh.firstFail.Before(firstFail)) {
			firstFail = sh.firstFail
		}
		if sh.lastFail.After(lastFail) {
			lastFail = sh.lastFail
		}
		h.Merge(&sh.hist)
		sh.mu.Unlock()
	}
	if !firstFail.IsZero() {
		s.ErrorWindow = lastFail.Sub(firstFail)
	}
	if h.Count() > 0 {
		s.P50 = h.Quantile(0.50)
		s.P95 = h.Quantile(0.95)
		s.P99 = h.Quantile(0.99)
		s.Max = h.Max()
	}
	return s
}

// Runner is a closed-loop client application: Workers goroutines, each
// holding one connection, issuing Op every Think interval, reconnecting
// after failures (what a real application's retry loop does).
type Runner struct {
	// Driver opens connections; a legacy driver or a bootloader.
	Driver client.Driver
	// URL is the application's connection URL.
	URL string
	// Props are connection properties.
	Props client.Props
	// Op issues one request on a connection. Default: SELECT 1.
	Op func(c client.Conn, worker, iter int) error
	// Workers is the number of concurrent clients (default 1).
	Workers int
	// Think is the inter-request delay per worker (default 1ms).
	Think time.Duration
	// Backoff is the reconnect schedule after connect failures. Zero
	// value derives a jittered exponential schedule from Think, so a
	// dead server is probed at the workload's own cadence at first and
	// progressively less often, never in lockstep across workers.
	Backoff faultnet.Policy

	rec    *Recorder
	stopCh chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// NewRunner builds a runner with defaults applied.
func NewRunner(drv client.Driver, url string, props client.Props) *Runner {
	return &Runner{
		Driver:  drv,
		URL:     url,
		Props:   props,
		Workers: 1,
		Think:   time.Millisecond,
		rec:     NewRecorder(),
		stopCh:  make(chan struct{}),
	}
}

// Recorder exposes the run's outcomes.
func (r *Runner) Recorder() *Recorder { return r.rec }

// Start launches the workers.
func (r *Runner) Start() {
	if r.Op == nil {
		r.Op = func(c client.Conn, _, _ int) error {
			_, err := c.Query("SELECT 1")
			return err
		}
	}
	for w := 0; w < r.Workers; w++ {
		r.wg.Add(1)
		go r.worker(w)
	}
}

// Stop halts the workers and waits for them.
func (r *Runner) Stop() {
	r.once.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

// RunFor starts the workload, lets it run for d, then stops it and
// returns the stats.
func (r *Runner) RunFor(d time.Duration) Stats {
	r.Start()
	timer := time.NewTimer(d)
	defer timer.Stop()
	<-timer.C
	r.Stop()
	return r.rec.Stats()
}

// backoffPolicy resolves the reconnect schedule, deriving one from
// Think when the Backoff field is left zero.
func (r *Runner) backoffPolicy() faultnet.Policy {
	if r.Backoff != (faultnet.Policy{}) {
		return r.Backoff
	}
	return faultnet.Policy{Initial: r.Think, Max: 32 * r.Think, Factor: 2, Jitter: 0.5}
}

func (r *Runner) worker(id int) {
	defer r.wg.Done()
	var conn client.Conn
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	bo := faultnet.NewBackoff(r.backoffPolicy())
	for iter := 0; ; iter++ {
		select {
		case <-r.stopCh:
			return
		default:
		}
		start := time.Now()
		var err error
		connectAttempt := conn == nil
		if connectAttempt {
			conn, err = r.Driver.Connect(r.URL, r.Props)
		}
		if err == nil {
			err = r.Op(conn, id, iter)
		}
		r.rec.RecordShard(id, Outcome{Start: start, Latency: time.Since(start), Err: err,
			ConnectFail: connectAttempt && conn == nil})
		if err != nil && conn != nil {
			_ = conn.Close()
			conn = nil // reconnect next loop
		}
		if err != nil && conn == nil {
			// Connect failed: back off on the shared jittered schedule so
			// a dead server isn't hammered, then go straight to the next
			// attempt (the backoff already replaces the think pause).
			if !bo.Sleep(r.stopCh) {
				return
			}
			continue
		}
		bo.Reset()
		select {
		case <-r.stopCh:
			return
		case <-time.After(r.Think):
		}
	}
}
