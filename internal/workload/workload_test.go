package workload

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

func startTarget(t *testing.T) *dbms.Server {
	t.Helper()
	db := sqlmini.NewDB()
	db.MustExec("CREATE TABLE t (x INTEGER)")
	db.MustExec("INSERT INTO t (x) VALUES (1)")
	s := dbms.NewServer("wl", dbms.WithUser("u", "p"))
	s.AddDatabase("d", db)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestRunnerHappyPath(t *testing.T) {
	s := startTarget(t)
	r := NewRunner(dbms.NewNativeDriver(dbver.V(1, 0, 0), 1),
		"dbms://"+s.Addr()+"/d", client.Props{"user": "u", "password": "p"})
	r.Workers = 4
	r.Think = 100 * time.Microsecond
	stats := r.RunFor(300 * time.Millisecond)
	if stats.Total == 0 {
		t.Fatal("no requests recorded")
	}
	if stats.Errors != 0 {
		t.Fatalf("errors = %d", stats.Errors)
	}
	if stats.ErrorWindow != 0 {
		t.Fatalf("error window = %v, want 0", stats.ErrorWindow)
	}
	if stats.P50 <= 0 || stats.Max < stats.P95 || stats.P95 < stats.P50 {
		t.Fatalf("latency stats inconsistent: %+v", stats)
	}
}

func TestRunnerMeasuresOutageWindow(t *testing.T) {
	s := startTarget(t)
	addr := s.Addr()
	r := NewRunner(dbms.NewNativeDriver(dbver.V(1, 0, 0), 1),
		"dbms://"+addr+"/d", client.Props{"user": "u", "password": "p"})
	r.Workers = 2
	r.Think = time.Millisecond
	r.Start()
	time.Sleep(50 * time.Millisecond)

	// Hard outage: restart-based upgrade.
	s.Stop()
	time.Sleep(100 * time.Millisecond)
	if err := s.Start(addr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	stats := r.rec.Stats()
	if stats.Errors == 0 {
		t.Fatal("outage produced no errors — measurement is broken")
	}
	if stats.ErrorWindow < 50*time.Millisecond {
		t.Fatalf("error window = %v, want >= ~100ms outage", stats.ErrorWindow)
	}
	// Recovery happened: a further run after the restart records more
	// requests and no more errors.
	time.Sleep(100 * time.Millisecond)
	r.Stop()
	after := r.rec.Stats()
	if after.Total <= stats.Total || after.Errors != stats.Errors {
		t.Fatalf("workload did not recover after restart: %d requests, %d errors, then %d requests, %d errors",
			stats.Total, stats.Errors, after.Total, after.Errors)
	}
}

func TestRecorderStatsEdgeCases(t *testing.T) {
	r := NewHistRecorder(8)
	if s := r.Stats(); s.Total != 0 || s.ErrorWindow != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
	base := time.Now()
	boom := errors.New("x")
	// Window spans first to last failure completion.
	r.Record(Outcome{Start: base, Err: boom})
	r.Record(Outcome{Start: base.Add(10 * time.Millisecond), Err: boom})
	s := r.Stats()
	if s.Errors != 2 || s.ErrorWindow != 10*time.Millisecond {
		t.Fatalf("stats = %+v", s)
	}
	// Successes don't widen the failure window.
	r.Record(Outcome{Start: base.Add(30 * time.Millisecond), Latency: time.Millisecond})
	s = r.Stats()
	if s.ErrorWindow != 10*time.Millisecond {
		t.Fatalf("window = %v, want 10ms", s.ErrorWindow)
	}
	// A later failure (including its latency) extends it.
	r.Record(Outcome{Start: base.Add(40 * time.Millisecond), Latency: 5 * time.Millisecond, Err: boom})
	s = r.Stats()
	if s.ErrorWindow != 45*time.Millisecond {
		t.Fatalf("window = %v, want 45ms", s.ErrorWindow)
	}
	// A single failure is a zero-width window.
	r2 := NewHistRecorder(8)
	r2.Record(Outcome{Start: base, Err: boom})
	if s := r2.Stats(); s.ErrorWindow != 0 {
		t.Fatalf("single-failure window = %v", s.ErrorWindow)
	}
}

// TestStatsTimeoutClassification pins both timeout paths (the
// net.Error path and the context.DeadlineExceeded path, which does NOT
// implement net.Error) plus the hard-failure negative.
func TestStatsTimeoutClassification(t *testing.T) {
	// A real transport deadline error: read from a net.Pipe with an
	// expired deadline.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	_ = c1.SetReadDeadline(time.Now().Add(-time.Second))
	_, netErr := c1.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(netErr, &ne) || !ne.Timeout() {
		t.Fatalf("fixture broken: %v is not a net timeout", netErr)
	}

	// A wrapped context deadline. context.DeadlineExceeded itself
	// happens to implement net.Error today (an implementation detail),
	// so ALSO pin an error that matches only errors.Is — classification
	// must not lean on that accident.
	ctxErr := fmt.Errorf("op: %w", context.DeadlineExceeded)
	bare := deadlineIsErr{}
	if errors.As(bare, &ne) {
		t.Fatal("fixture broken: deadlineIsErr must not be a net.Error")
	}

	r := NewHistRecorder(8)
	base := time.Now()
	r.Record(Outcome{Start: base, Err: netErr})
	r.Record(Outcome{Start: base, Err: ctxErr})
	r.Record(Outcome{Start: base, Err: bare})
	r.Record(Outcome{Start: base, Err: errors.New("hard failure")})
	s := r.Stats()
	if s.Timeouts != 3 {
		t.Fatalf("timeouts = %d, want 3 (net timeout + wrapped and bare context deadlines)", s.Timeouts)
	}
	if s.Errors != 4 {
		t.Fatalf("errors = %d, want 4", s.Errors)
	}
}

// deadlineIsErr reports itself as a context deadline via errors.Is but
// implements neither Timeout() nor Temporary() — the shape of an
// application-level deadline error.
type deadlineIsErr struct{}

func (deadlineIsErr) Error() string        { return "renewal budget exhausted" }
func (deadlineIsErr) Is(target error) bool { return target == context.DeadlineExceeded }

// TestHistRecorderRetainsNothing pins the fleet-scale recorder: stats
// and histograms merge across shards from counters alone.
func TestHistRecorderRetainsNothing(t *testing.T) {
	r := NewHistRecorder(4)
	base := time.Now()
	for w := 0; w < 4; w++ {
		for i := 1; i <= 1000; i++ {
			r.RecordShard(w, Outcome{Start: base, Latency: time.Duration(i) * time.Microsecond})
		}
	}
	r.RecordShard(1, Outcome{Start: base.Add(time.Second), Latency: time.Millisecond, Err: errors.New("x")})
	r.RecordShard(3, Outcome{Start: base.Add(3 * time.Second), Latency: time.Millisecond, Err: errors.New("y")})
	s := r.Stats()
	if s.Total != 4002 || s.Errors != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// The error window spans shards: first fail on shard 1, last on 3.
	if want := 2 * time.Second; s.ErrorWindow != want {
		t.Fatalf("window = %v, want %v", s.ErrorWindow, want)
	}
	if s.Max != time.Millisecond || s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 || s.Max < s.P99 {
		t.Fatalf("latency stats inconsistent: %+v", s)
	}
	if h := r.Hist(); h.Count() != 4000 {
		t.Fatalf("hist count = %d, want 4000 successes", h.Count())
	}
}

// TestRecorderShardMerge pins that per-shard recording merges into the
// same stats regardless of which shard took which outcome.
func TestRecorderShardMerge(t *testing.T) {
	base := time.Now()
	mk := func(r *Recorder, spread bool) Stats {
		for i := 0; i < 900; i++ {
			w := 0
			if spread {
				w = i
			}
			r.RecordShard(w, Outcome{Start: base, Latency: time.Duration(i+1) * time.Microsecond})
		}
		return r.Stats()
	}
	one := mk(NewHistRecorder(1), false)
	many := mk(NewHistRecorder(16), true)
	if one != many {
		t.Fatalf("sharded stats diverge:\none:  %+v\nmany: %+v", one, many)
	}
}

func TestRunnerCustomOp(t *testing.T) {
	s := startTarget(t)
	r := NewRunner(dbms.NewNativeDriver(dbver.V(1, 0, 0), 1),
		"dbms://"+s.Addr()+"/d", client.Props{"user": "u", "password": "p"})
	r.Op = func(c client.Conn, worker, iter int) error {
		_, err := c.Exec("INSERT INTO t (x) VALUES (?)", worker*1000+iter)
		return err
	}
	r.Think = 200 * time.Microsecond
	stats := r.RunFor(100 * time.Millisecond)
	if stats.Errors != 0 || stats.Total == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	res, err := s.Database("d").Query("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got < int64(stats.Total) {
		t.Fatalf("rows = %d, recorded = %d", got, stats.Total)
	}
}
