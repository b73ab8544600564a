package scenarios

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// This file is the fleet-scale tier: four canonical load scenarios
// driving 100k+ *simulated* bootloaders (workload.Fleet virtual
// clients over a bounded connection pool) against a real Drivolution
// server, reporting tail latencies from mergeable histograms plus the
// exact server-side statement rate. cmd/experiments -load runs them at
// full population into BENCH_tail.json; loadtest_test.go runs the
// same scenarios scaled down as the deterministic storm/soak test
// tier.

// LoadScenarios lists the canonical load scenarios in run order.
func LoadScenarios() []string {
	return []string{"steady", "storm", "license", "restart"}
}

// LoadConfig parameterizes one load scenario; zero fields take the
// defaults noted per field.
type LoadConfig struct {
	// Population is the number of simulated bootloaders (default 1000).
	Population int
	// Workers is the real-connection pool size (default 8).
	Workers int
	// Duration is the measured steady phase, after the bootstrap ramp
	// (default 5s).
	Duration time.Duration
	// Seed fixes every schedule decision (default 1).
	Seed int64
	// Lease is the server's default lease term. The default scales
	// with population (1.5ms per client, floor 2s) so the renewal rate
	// stays within a single box's capacity at 100k+ clients while
	// small runs still turn over several lease periods. The scaling is
	// sized from measured capacity: one core sustains ~1.7k req/s with
	// a 100k-row lease log (writes serialize on the table latch), and
	// 1.5ms/client puts steady renewal demand near 930 req/s at 100k —
	// a bit under 2x headroom so the schedule never falls behind.
	Lease time.Duration
	// Payload is the driver blob size in bytes (default 1KiB).
	Payload int
	// Cluster is the member count for the cluster scenario (default
	// 3); the single-server scenarios ignore it.
	Cluster int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Population <= 0 {
		c.Population = 1000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Lease <= 0 {
		c.Lease = time.Duration(c.Population) * 1500 * time.Microsecond
		if c.Lease < 2*time.Second {
			c.Lease = 2 * time.Second
		}
	}
	if c.Payload <= 0 {
		c.Payload = 1 << 10
	}
	return c
}

// LoadResult is one scenario's outcome, shaped for BENCH_tail.json:
// flat keys, one metric per line once marshaled with indentation, so
// scripts/loadtest.sh can compare runs with awk alone.
type LoadResult struct {
	Scenario   string `json:"scenario"`
	Population int    `json:"population"`
	Workers    int    `json:"workers"`
	Seed       int64  `json:"seed"`

	ElapsedMs      float64 `json:"elapsed_ms"`
	Requests       int     `json:"requests"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	// StatementsPerSec is the exact server-side store statement rate
	// (counted at the Store boundary), not an estimate: in steady
	// state a no-change renewal is exactly one guarded UPDATE, so this
	// tracks RequestsPerSec; grant-heavy phases run several statements
	// per request.
	StatementsPerSec float64 `json:"statements_per_sec"`

	Errors        int     `json:"errors"`
	Timeouts      int     `json:"timeouts"`
	ErrorWindowMs float64 `json:"error_window_ms"`

	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`

	Upgrades         int64   `json:"upgrades"`
	Denied           int64   `json:"denied"`
	Rebootstraps     int64   `json:"rebootstraps"`
	Redirects        int64   `json:"redirects"`
	TransferBytes    int64   `json:"transfer_bytes"`
	ScheduleLagMaxMs float64 `json:"schedule_lag_max_ms"`

	// ConvergeMs is how long the fleet took to fully adopt the new
	// driver generation after AddDriver (storm/restart scenarios).
	ConvergeMs float64 `json:"converge_ms"`
	// PeakLicenses / LicenseCap report the license scenario's observed
	// peak seats in use against the configured cap.
	PeakLicenses int `json:"peak_licenses"`
	LicenseCap   int `json:"license_cap"`
}

// RunLoad runs one canonical load scenario by name.
func RunLoad(name string, cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	switch name {
	case "steady":
		return loadSteady(cfg)
	case "storm":
		return loadStorm(cfg)
	case "license":
		return loadLicense(cfg)
	case "restart":
		return loadRestart(cfg)
	case "cluster":
		// The opt-in multi-member tier (`make loadtest CLUSTER=3`);
		// not in LoadScenarios so `-load all` stays single-server.
		return loadCluster(cfg)
	default:
		return nil, fmt.Errorf("scenarios: unknown load scenario %q (have %v plus \"cluster\")", name, LoadScenarios())
	}
}

// loadServer boots a Drivolution server for a load scenario and
// returns it with its statement counter.
func loadServer(cfg LoadConfig, opts ...core.ServerOption) (*core.Server, *core.CountingGenerationStore, error) {
	store := core.NewCountingGenerationStore(core.NewLocalStore(sqlmini.NewDB()))
	opts = append([]core.ServerOption{core.WithDefaultLease(cfg.Lease)}, opts...)
	srv, err := core.NewServer("load-drv", store, opts...)
	if err != nil {
		return nil, nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	return srv, store, nil
}

// loadImage builds a driver image for load scenarios (same shape the
// Stack fixture uses; the fleet never runs it, so credentials only
// need to satisfy matching).
func loadImage(ver dbver.Version, payload int) *driverimg.Image {
	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i*31 + int(ver.Major))
	}
	return &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         ver,
			ProtocolVersion: 1,
			Options:         map[string]string{"user": "app", "password": "app-pw"},
		},
		Payload: body,
	}
}

// fleetFor builds the fleet for a load scenario pointed at addr.
func fleetFor(cfg LoadConfig, addr string) (*workload.Fleet, error) {
	return workload.NewFleet(workload.FleetConfig{
		Addr:           addr,
		Database:       "prod",
		User:           "app",
		Password:       "app-pw",
		Population:     cfg.Population,
		Workers:        cfg.Workers,
		Seed:           cfg.Seed,
		RampUp:         rampFor(cfg),
		RenewAhead:     0.8,
		RetryInterval:  cfg.Lease / 4,
		OpTimeout:      5 * time.Second,
		FetchOnUpgrade: true,
	})
}

// rampFor spreads bootstraps over most of a lease term so the grant
// burst (several statements per request, vs one per renewal) stays
// within capacity even at 100k clients.
func rampFor(cfg LoadConfig) time.Duration {
	r := cfg.Lease * 3 / 4
	if r < 500*time.Millisecond {
		r = 500 * time.Millisecond
	}
	return r
}

// result folds a fleet report and the server-side statement count
// (from the CountingGenerationStore, or table-version deltas for the
// cluster tier) into the persisted shape.
func result(name string, cfg LoadConfig, rep workload.FleetReport, stmts int64) *LoadResult {
	stmtRate := 0.0
	if rep.Elapsed > 0 {
		stmtRate = float64(stmts) / rep.Elapsed.Seconds()
	}
	return &LoadResult{
		Scenario:         name,
		Population:       cfg.Population,
		Workers:          cfg.Workers,
		Seed:             cfg.Seed,
		ElapsedMs:        float64(rep.Elapsed) / float64(time.Millisecond),
		Requests:         rep.Stats.Total,
		RequestsPerSec:   rep.RequestsPerSec,
		StatementsPerSec: stmtRate,
		Errors:           rep.Stats.Errors,
		Timeouts:         rep.Stats.Timeouts,
		ErrorWindowMs:    float64(rep.Stats.ErrorWindow) / float64(time.Millisecond),
		P50Us:            float64(rep.Stats.P50) / float64(time.Microsecond),
		P95Us:            float64(rep.Stats.P95) / float64(time.Microsecond),
		P99Us:            float64(rep.Stats.P99) / float64(time.Microsecond),
		MaxUs:            float64(rep.Stats.Max) / float64(time.Microsecond),
		Upgrades:         rep.Upgrades,
		Denied:           rep.Denied,
		Rebootstraps:     rep.Rebootstraps,
		Redirects:        rep.Redirects,
		TransferBytes:    rep.TransferBytes,
		ScheduleLagMaxMs: float64(rep.ScheduleLagMax) / float64(time.Millisecond),
	}
}

// loadSteady is the steady-state renewal fleet: every client
// bootstraps during the ramp and then renews on its jittered schedule.
// The tail of this scenario is the paper's steady-state overhead claim
// at fleet scale: renewals must stay cheap (one guarded UPDATE) no
// matter how many clients hold leases.
func loadSteady(cfg LoadConfig) (*LoadResult, error) {
	srv, store, err := loadServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	if _, err := srv.AddDriver(loadImage(dbver.V(1, 0, 0), cfg.Payload), dbver.FormatImage); err != nil {
		return nil, err
	}
	f, err := fleetFor(cfg, srv.Addr())
	if err != nil {
		return nil, err
	}
	rep := f.RunFor(rampFor(cfg) + cfg.Duration)
	res := result("steady", cfg, rep, store.Statements())
	if rep.Stats.Errors != 0 {
		return res, fmt.Errorf("steady-state fleet saw %d errors: %s", rep.Stats.Errors, rep)
	}
	if rep.Live != cfg.Population {
		return res, fmt.Errorf("steady-state fleet: %d/%d clients hold a lease", rep.Live, cfg.Population)
	}
	return res, nil
}

// pollPolicy is the schedule fleet-condition polls run on: short first
// probes so fast scenarios finish fast, capped growth so slow ones
// are still sampled often enough, jitter disabled so scenario timings
// stay deterministic run to run.
var pollPolicy = faultnet.Policy{
	Initial: 2 * time.Millisecond,
	Max:     20 * time.Millisecond,
	Factor:  2,
	Jitter:  -1,
}

// pollUntil re-probes cond on the pollPolicy schedule until it holds
// or the deadline passes.
func pollUntil(deadline time.Time, cond func() bool) bool {
	b := faultnet.NewBackoff(pollPolicy)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		b.Sleep(nil)
	}
	return true
}

// settle waits until every client holds a lease (or deadline).
func settle(f *workload.Fleet, cfg LoadConfig) error {
	deadline := time.Now().Add(rampFor(cfg) + cfg.Lease + 30*time.Second)
	if !pollUntil(deadline, func() bool { return f.Live() >= cfg.Population }) {
		return fmt.Errorf("fleet stuck settling: %d/%d live", f.Live(), cfg.Population)
	}
	return nil
}

// waitConverged polls until the whole population runs a generation
// that was not present before the storm, returning the time it took.
func waitConverged(f *workload.Fleet, cfg LoadConfig, before map[string]int, patience time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(patience)
	converged := func() bool {
		sums := f.Checksums()
		if len(sums) != 1 {
			return false
		}
		for sum, n := range sums {
			if _, old := before[sum]; !old && n == cfg.Population {
				return true
			}
		}
		return false
	}
	if !pollUntil(deadline, converged) {
		return 0, fmt.Errorf("fleet did not converge to the new driver generation: %v", f.Checksums())
	}
	return time.Since(start), nil
}

// loadStorm is the upgrade storm: a settled fleet, then one AddDriver
// publishes a new generation and every renewal turns into an upgrade
// offer + transfer. The scenario measures how long fleet-wide hot-swap
// takes and what it does to the tail.
func loadStorm(cfg LoadConfig) (*LoadResult, error) {
	srv, store, err := loadServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	if _, err := srv.AddDriver(loadImage(dbver.V(1, 0, 0), cfg.Payload), dbver.FormatImage); err != nil {
		return nil, err
	}
	f, err := fleetFor(cfg, srv.Addr())
	if err != nil {
		return nil, err
	}
	f.Start()
	defer f.Stop()
	if err := settle(f, cfg); err != nil {
		return nil, err
	}
	before := f.Checksums()

	if _, err := srv.AddDriver(loadImage(dbver.V(2, 0, 0), cfg.Payload), dbver.FormatImage); err != nil {
		return nil, err
	}
	// Convergence needs every client to renew once: a bit over one
	// lease term, padded generously for loaded CI boxes.
	converge, err := waitConverged(f, cfg, before, 2*cfg.Lease+30*time.Second)
	if err != nil {
		return nil, err
	}
	f.Stop()
	rep := f.Report()
	res := result("storm", cfg, rep, store.Statements())
	res.ConvergeMs = float64(converge) / float64(time.Millisecond)
	if rep.Stats.Errors != 0 {
		return res, fmt.Errorf("upgrade storm saw %d errors: %s", rep.Stats.Errors, rep)
	}
	if rep.Upgrades < int64(cfg.Population) {
		return res, fmt.Errorf("upgrade storm: only %d/%d clients upgraded", rep.Upgrades, cfg.Population)
	}
	return res, nil
}

// loadLicense is contention at the license cap: half as many seats as
// clients (license mode, single-lease drivers), with release churn so
// capacity circulates. The invariant — the server never grants more
// seats than the cap — is sampled throughout the run.
func loadLicense(cfg LoadConfig) (*LoadResult, error) {
	seats := cfg.Population / 2
	if seats < 1 {
		seats = 1
	}
	srv, store, err := loadServer(cfg,
		core.WithLicenseMode(),
		// Seats are interchangeable license copies: renewals must keep
		// the granted seat, not churn between copies as upgrades.
		core.WithDefaultPolicies(core.RenewKeep, core.AfterCommit))
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	for i := 0; i < seats; i++ {
		if _, err := srv.AddDriver(loadImage(dbver.V(1, 0, i), cfg.Payload), dbver.FormatImage); err != nil {
			return nil, err
		}
	}

	fc := workload.FleetConfig{
		Addr:                 srv.Addr(),
		Database:             "prod",
		User:                 "app",
		Password:             "app-pw",
		Population:           cfg.Population,
		Workers:              cfg.Workers,
		Seed:                 cfg.Seed,
		RampUp:               rampFor(cfg),
		RenewAhead:           0.8,
		RetryInterval:        cfg.Lease / 4,
		OpTimeout:            5 * time.Second,
		ReleaseAfterRenewals: 2,
	}
	f, err := workload.NewFleet(fc)
	if err != nil {
		return nil, err
	}
	f.Start()

	// Sample the server-side seat count while the fleet contends.
	peak := 0
	stopAt := time.Now().Add(rampFor(cfg) + cfg.Duration)
	for time.Now().Before(stopAt) {
		n, lerr := srv.LicensesInUse()
		if lerr != nil {
			f.Stop()
			return nil, lerr
		}
		if n > peak {
			peak = n
		}
		//lint:sleep-ok fixed-cadence seat sampling; backoff would undersample the peak
		time.Sleep(10 * time.Millisecond)
	}
	f.Stop()
	rep := f.Report()
	res := result("license", cfg, rep, store.Statements())
	res.PeakLicenses = peak
	res.LicenseCap = seats
	if peak > seats {
		return res, fmt.Errorf("license cap exceeded: peak %d seats, cap %d", peak, seats)
	}
	if rep.Denied == 0 {
		return res, fmt.Errorf("no denials with %d clients contending for %d seats", cfg.Population, seats)
	}
	return res, nil
}

// loadRestart is the worst day: an upgrade storm with flaky client
// connections (every 8th connection through the fault proxy is
// rejected) and a full server restart mid-storm. The fleet must ride
// it out — keep lease identities through the outage (leases survive in
// the store), re-dial on the jittered backoff, and still converge to
// the new generation — with the error window bounded by the outage,
// not the fleet size.
func loadRestart(cfg LoadConfig) (*LoadResult, error) {
	srv, store, err := loadServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	if _, err := srv.AddDriver(loadImage(dbver.V(1, 0, 0), cfg.Payload), dbver.FormatImage); err != nil {
		return nil, err
	}
	addr := srv.Addr()

	proxy, err := faultnet.NewProxy(addr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	proxy.SetPlanner(func(i int, _ *rand.Rand) faultnet.Plan {
		return faultnet.Plan{Reject: i%8 == 7}
	})

	f, err := fleetFor(cfg, proxy.Addr())
	if err != nil {
		return nil, err
	}
	f.Start()
	defer f.Stop()
	if err := settle(f, cfg); err != nil {
		return nil, err
	}
	before := f.Checksums()

	// Publish the new generation, let the storm get going, then
	// restart the server under it.
	if _, err := srv.AddDriver(loadImage(dbver.V(2, 0, 0), cfg.Payload), dbver.FormatImage); err != nil {
		return nil, err
	}
	//lint:sleep-ok scripted outage timeline: the storm must be mid-flight when the server dies
	time.Sleep(cfg.Lease / 4)
	srv.Stop()
	outage := cfg.Lease / 2
	//lint:sleep-ok scripted outage timeline: the outage length is the variable under test
	time.Sleep(outage)
	if err := restartOn(srv, addr); err != nil {
		return nil, err
	}

	converge, err := waitConverged(f, cfg, before, 4*cfg.Lease+60*time.Second)
	if err != nil {
		return nil, err
	}
	f.Stop()
	rep := f.Report()
	res := result("restart", cfg, rep, store.Statements())
	res.ConvergeMs = float64(converge) / float64(time.Millisecond)
	if rep.Stats.Errors == 0 {
		return res, fmt.Errorf("restart storm saw no errors — the outage was not exercised")
	}
	// The error window must track the outage, not the run length: the
	// whole fleet may fail during the outage, but failures stop once
	// clients' jittered retries land after the restart.
	bound := outage + 2*cfg.Lease
	if rep.Stats.ErrorWindow > bound {
		return res, fmt.Errorf("availability loss not bounded: error window %v > %v (outage %v + 2 lease terms)",
			rep.Stats.ErrorWindow, bound, outage)
	}
	return res, nil
}

// restartOn rebinds a stopped server to its old address, retrying
// briefly in case the kernel hasn't released the port yet.
func restartOn(srv *core.Server, addr string) error {
	b := faultnet.NewBackoff(faultnet.Policy{
		Initial:     5 * time.Millisecond,
		Max:         100 * time.Millisecond,
		Factor:      2,
		Jitter:      -1,
		MaxAttempts: 50,
	})
	var err error
	for {
		if err = srv.Start(addr); err == nil {
			return nil
		}
		if !b.Sleep(nil) {
			return fmt.Errorf("scenarios: server restart on %s: %w", addr, err)
		}
	}
}
