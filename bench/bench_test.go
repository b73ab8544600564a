package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// The smoke tier: every workload at a population of 200 and a fifth
// of a second, untraced and traced. It proves the harness, not the
// numbers.

func loadTestContract(t *testing.T) *contract {
	t.Helper()
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smokeParams(t *testing.T, cfg workloadConfig) runParams {
	t.Helper()
	if cfg.Population > 0 {
		cfg.Population = 200
	}
	if cfg.ItemRows > 0 {
		cfg.ItemRows = 100
	}
	return runParams{
		cfg:         cfg,
		seed:        7,
		measure:     200 * time.Millisecond,
		warmup:      50 * time.Millisecond,
		setupReps:   1,
		setupBudget: 0,
		microBudget: 2 * time.Millisecond,
		floorBudget: 30 * time.Millisecond,
		fleetLease:  100 * time.Millisecond,
		outDir:      t.TempDir(),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestContractIsWellFormed(t *testing.T) {
	c := loadTestContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d configured", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, config.go has %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, d := range append(append([]metricDecl(nil), c.EndToEnd...), c.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s, unit s, better lower")
	}
}

// checkResult asserts what every run must satisfy: no failed check,
// every printed name declared, the contract line complete and parsable.
func checkResult(t *testing.T, c *contract, res *result) {
	t.Helper()
	if len(res.Errors) != 0 || res.Failed != 0 {
		t.Fatalf("%s: %d failed, errors: %v", res.Workload, res.Failed, res.Errors)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: nothing attempted", res.Workload)
	}
	declared := make(map[string]bool)
	for _, d := range append(append([]metricDecl(nil), c.EndToEnd...), c.PerLayer...) {
		declared[d.Name] = true
	}
	for _, m := range res.Metrics {
		if !declared[m.Name] {
			t.Errorf("%s prints %q, which BENCHMARK.json does not declare", res.Workload, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, m.Name, m.Value)
		}
	}
	line, err := c.line(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(line); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("contract line does not parse: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[key]; !ok || len(back) != 4 {
			t.Fatalf("contract line keys = %v, want exactly correct, attempted, failed, metrics", back)
		}
	}
	if !res.Traced {
		for _, d := range c.EndToEnd {
			if v, _ := res.value(d.Name); v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, d.Name, v)
			}
		}
	}
}

func TestUntracedSmoke(t *testing.T) {
	t.Parallel() // beside the traced smoke: the tier proves the harness, not the numbers
	c := loadTestContract(t)
	for _, cfg := range workloads {
		t.Run(cfg.Name, func(t *testing.T) {
			res, err := runUntraced(smokeParams(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, c, res)
		})
	}
}

type spanLine struct {
	Conn   int    `json:"conn"`
	Span   int32  `json:"span"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func TestTracedSmoke(t *testing.T) {
	c := loadTestContract(t)
	t.Parallel()
	measured := make(map[string]bool)
	ran := 0
	for _, cfg := range workloads {
		t.Run(cfg.Name, func(t *testing.T) {
			res, err := runTraced(smokeParams(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, c, res)
			ran++
			for _, m := range res.Metrics {
				measured[m.Name] = true
			}
			// A layer the workload never enters is left out of the
			// report, not printed as 0.
			_, hasDBMS := res.value("dbms.connect_us")
			_, hasConverge := res.value("bench.converge_s")
			if want := cfg.ItemRows > 0; hasDBMS != want {
				t.Errorf("dbms rows reported = %v, workload has a target DBMS = %v", hasDBMS, want)
			}
			if want := cfg.Rounds > 0; hasConverge != want {
				t.Errorf("bench.converge_s reported = %v, workload runs rounds = %v", hasConverge, want)
			}

			// The span file: every client span nests inside its parent.
			f, err := os.Open(res.SpanFile)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			byConn := make(map[int][]spanLine)
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var sp spanLine
				if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				byConn[sp.Conn] = append(byConn[sp.Conn], sp)
			}
			if len(byConn[0]) == 0 || len(byConn[storeConnIndex]) == 0 {
				t.Fatalf("span file has %d client and %d store spans", len(byConn[0]), len(byConn[storeConnIndex]))
			}
			for conn, spans := range byConn {
				for _, sp := range spans {
					if sp.End < sp.Start {
						t.Fatalf("conn %d span %d ends before it starts", conn, sp.Span)
					}
					if sp.Parent == noParent {
						continue
					}
					parent := spans[sp.Parent]
					if parent.Op != sp.Op || sp.Start < parent.Start || sp.End > parent.End {
						t.Fatalf("conn %d span %d (%s) does not nest in its parent %d (%s)",
							conn, sp.Span, sp.Name, parent.Span, parent.Name)
					}
				}
			}
		})
	}
	if ran != len(workloads) {
		return // a -run filter picked some workloads; the union below needs all
	}
	// A per-layer metric no workload reports measures nothing.
	for _, d := range c.PerLayer {
		if d.Name == "core.reap.sweep_us" {
			continue // the reaper sweeps once a second; the smoke run is shorter
		}
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload reports it", d.Name)
		}
	}
}

// TestPhaseIsFreed: once the caller drops a phase nothing else holds
// it, so its sample buffers (16 B per op) are not in the heap that
// heap_live_mb reads after its forced collection. The generators
// outlive the phase and keep its op counter, which is why that counter
// is an allocation of its own.
func TestPhaseIsFreed(t *testing.T) {
	p := smokeParams(t, workloads[0])
	in, err := setupFor(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.closeAll()
	gens, err := newGenerators(p.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeGenerators(gens)
	freed := make(chan struct{})
	func() {
		ph, err := runPhase(in, gens, load{}, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(ph, func(*phase) { close(freed) })
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("a finished phase is still reachable after the caller dropped it: heap_live_mb would count its samples")
}

// TestStormRunsFixedRounds: a round-based phase runs its share of the
// workload's fixed round count, not as many rounds as fit its length.
func TestStormRunsFixedRounds(t *testing.T) {
	cfg, _ := workloadByName("upgrade_storm")
	p := smokeParams(t, cfg)
	in, err := setupFor(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.closeAll()
	gens, err := newGenerators(p.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeGenerators(gens)
	if got := in.roundsIn(defaultSeconds * time.Second / setupReps); got != cfg.Rounds/setupReps {
		t.Errorf("a repetition of a full run has %d rounds, want %d", got, cfg.Rounds/setupReps)
	}
	// Half a second stands for 2 of the 60 rounds; at a population of
	// 200 a round takes some 20 ms, so 25 would fit.
	ph, err := runPhase(in, gens, load{}, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.roundS) != 2 || len(ph.latUs) != 2*200 {
		t.Errorf("phase ran %d rounds and %d ops, want 2 rounds of 200", len(ph.roundS), len(ph.latUs))
	}
	if ph.failed != 0 {
		t.Errorf("%d failures, first: %v", ph.failed, ph.first)
	}
}

// TestSelfTimesSumToRoot drives a traced steady_renew solo and checks
// the accounting the budget rests on: within one op, the self times of
// all spans, adopted store spans included, add up to the root span.
func TestSelfTimesSumToRoot(t *testing.T) {
	p := smokeParams(t, workloads[0])
	tr := newTracer(conns)
	in, err := setupFor(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.closeAll()
	gens, err := newGenerators(p.seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer closeGenerators(gens)
	from := tr.now()
	if _, err := runPhase(in, gens, load{solo: true}, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	trees := tr.attribute(0, from, tr.now())
	if len(trees) < 10 {
		t.Fatalf("only %d op trees", len(trees))
	}
	for _, tree := range trees {
		var sum int64
		stores := 0
		for name, self := range tree.selfTimes() {
			if self < 0 {
				t.Fatalf("op %d: span %s has negative self time %d", tree.root.op, name, self)
			}
			sum += self
		}
		for _, sp := range tree.spans {
			if sp.name == spanStore {
				stores++
			}
		}
		if root := tree.root.end - tree.root.start; sum != root {
			t.Fatalf("op %d: self times sum to %d ns, root span is %d ns", tree.root.op, sum, root)
		}
		if stores != 1 {
			t.Fatalf("op %d: %d store spans adopted, a no-change renewal has 1", tree.root.op, stores)
		}
	}
}

// TestTimingStoreKeepsFastPaths: a server on the timing store still
// answers a steady-state discover with no statement and a no-change
// renewal with exactly one UPDATE — the probe does not knock the
// server off the path it measures.
func TestTimingStoreKeepsFastPaths(t *testing.T) {
	spans := &storeSpans{base: time.Now()}
	store := &timedLocal{LocalStore: core.NewLocalStore(sqlmini.NewDB()), p: newStoreProbe(spans)}
	for _, capability := range []string{"GenerationStore", "TableVersionStore", "TxStore", "StmtStore", "BatchStore"} {
		var ok bool
		switch capability {
		case "GenerationStore":
			_, ok = core.Store(store).(core.GenerationStore)
		case "TableVersionStore":
			_, ok = core.Store(store).(core.TableVersionStore)
		case "TxStore":
			_, ok = core.Store(store).(core.TxStore)
		case "StmtStore":
			_, ok = core.Store(store).(core.StmtStore)
		case "BatchStore":
			_, ok = core.Store(store).(core.BatchStore)
		}
		if !ok {
			t.Errorf("timing store hides %s", capability)
		}
	}
	var ext core.Store = &timedConn{}
	if _, ok := ext.(core.OptionalGenerationStore); !ok {
		t.Error("external timing store hides OptionalGenerationStore")
	}

	srv, err := core.NewServer("probe", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if _, err := srv.AddDriver(newImage(dbver.V(1, 0, 0), 1<<10), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	lc, err := core.DialLeaseClient(srv.Addr(), opTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	req := baseRequest("probe-client")
	offer, err := lc.Request(req)
	if err != nil {
		t.Fatal(err)
	}
	req.LeaseID, req.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
	if _, err := lc.Request(req); err != nil { // warm: handles prepared, catalog loaded
		t.Fatal(err)
	}
	count := func() (n int, kinds []stmtKind) {
		spans.mu.Lock()
		defer spans.mu.Unlock()
		for _, sp := range spans.list {
			kinds = append(kinds, sp.kind)
		}
		return len(spans.list), kinds
	}
	before, _ := count()
	if _, err := lc.Discover(baseRequest("probe-client")); err != nil {
		t.Fatal(err)
	}
	if after, _ := count(); after != before {
		t.Errorf("a steady-state discover ran %d statements, want 0", after-before)
	}
	if _, err := lc.Request(req); err != nil {
		t.Fatal(err)
	}
	after, kinds := count()
	if after-before != 1 || kinds[after-1] != kindUpdate {
		t.Errorf("a no-change renewal ran %d statements (last kind %s), want exactly 1 UPDATE",
			after-before, kindNames[kinds[after-1]])
	}
}

// TestSameSeedSameSchedule: the arrival schedule and the op choices
// are functions of the seed alone.
func TestSameSeedSameSchedule(t *testing.T) {
	draw := func(seed int64) ([][]time.Duration, [][]int) {
		gens, err := newGenerators(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer closeGenerators(gens)
		var dues [][]time.Duration
		var picks [][]int
		for _, g := range gens {
			dues = append(dues, g.schedule(5000, 100*time.Millisecond, 0))
			var p []int
			for i := 0; i < 100; i++ {
				p = append(p, g.opRng.Intn(1000))
			}
			picks = append(picks, p)
		}
		return dues, picks
	}
	d1, p1 := draw(42)
	d2, p2 := draw(42)
	d3, _ := draw(43)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(p1, p2) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(d1, d3) {
		t.Error("two seeds gave the same schedule")
	}
	if len(d1[0]) < 100 || d1[0][0] <= 0 {
		t.Errorf("schedule has %d arrivals on connection 0", len(d1[0]))
	}
	if reflect.DeepEqual(d1[0], d1[1]) {
		t.Error("both connections drew the same arrivals")
	}
}

// TestNullServerReplays: the null server answers a renewal, a
// bootstrap and a transfer with the frames recorded from the real one.
func TestNullServerReplays(t *testing.T) {
	c, err := recordCanned(newImage(dbver.V(1, 0, 0), 300<<10), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.exchanges) != 4 || len(c.exchanges[1].replies) < 2 {
		t.Fatalf("recorded %d exchanges, transfer in %d frames", len(c.exchanges), len(c.exchanges[1].replies))
	}
	null, err := newNullServer(c)
	if err != nil {
		t.Fatal(err)
	}
	defer null.close()
	lc, err := core.DialLeaseClient(null.addr(), opTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	boot, err := lc.Request(baseRequest("someone-else"))
	if err != nil || !boot.HasDriver || boot.LeaseID != c.leaseID {
		t.Fatalf("bootstrap against the null server: %+v, %v", boot, err)
	}
	n, err := lc.FetchFile(boot.LeaseID)
	if err != nil || n != c.blobBytes {
		t.Fatalf("transfer against the null server: %d bytes (recorded %d), %v", n, c.blobBytes, err)
	}
	req := baseRequest("someone-else")
	req.LeaseID, req.CurrentChecksum = c.leaseID, c.checksum
	renewal, err := lc.Request(req)
	if err != nil || renewal.HasDriver || renewal.LeaseTime != time.Second {
		t.Fatalf("renewal against the null server: %+v, %v", renewal, err)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, the driver's own measure.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 12, 11, 15, 14, 13, 19, 18, 20, 16})
	if q1 != 11.75 || q2 != 14.5 || q3 != 18.25 {
		t.Errorf("quartiles = %v %v %v, Python gives 11.75 14.5 18.25", q1, q2, q3)
	}
}
