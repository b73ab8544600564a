package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// startDrvServer boots a Drivolution server with one matching driver
// and returns it plus the AddDriver hook for upgrades.
func startDrvServer(t *testing.T, opts ...core.ServerOption) *core.Server {
	t.Helper()
	srv, err := core.NewServer("fleet-test", core.NewLocalStore(sqlmini.NewDB()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

func fleetImage(ver dbver.Version, payload int) *driverimg.Image {
	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i * 31)
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

func fleetConfig(addr string, pop int) FleetConfig {
	return FleetConfig{
		Addr:          addr,
		Database:      "prod",
		User:          "app",
		Password:      "app-pw",
		Population:    pop,
		Workers:       4,
		Seed:          42,
		RampUp:        50 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
		OpTimeout:     2 * time.Second,
	}
}

// TestFleetSteadyState pins the harness core loop: every virtual
// client bootstraps during the ramp, renews on the jittered schedule,
// and the fleet sustains multiple renewal rounds with zero errors.
func TestFleetSteadyState(t *testing.T) {
	srv := startDrvServer(t, core.WithDefaultLease(400*time.Millisecond))
	if _, err := srv.AddDriver(fleetImage(dbver.V(1, 0, 0), 256), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}

	cfg := fleetConfig(srv.Addr(), 200)
	// Renew at 80% of the term: the 80ms slack between renewal cadence
	// and expiry keeps the end-of-run LicensesInUse check robust to
	// scheduler hiccups on a loaded single-core CI box.
	cfg.RenewAhead = 0.8
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := f.RunFor(1100 * time.Millisecond)

	if rep.Stats.Errors != 0 {
		t.Fatalf("steady state produced errors: %s", rep)
	}
	if rep.Live != 200 {
		t.Fatalf("live = %d, want 200 (every client holds a lease)", rep.Live)
	}
	// ~1.1s at a 400ms lease renewed at ~80%: at least 2 renewal
	// rounds beyond the 200 bootstraps.
	if rep.Stats.Total < 200+2*200 {
		t.Fatalf("too few requests for a renewing fleet: %s", rep)
	}
	if rep.Stats.P50 <= 0 || rep.Stats.P99 < rep.Stats.P50 || rep.Stats.Max < rep.Stats.P99 {
		t.Fatalf("latency stats inconsistent: %+v", rep.Stats)
	}
	sums := f.Checksums()
	if len(sums) != 1 {
		t.Fatalf("checksums = %v, want exactly one generation", sums)
	}
	for sum, n := range sums {
		if sum == "" || n != 200 {
			t.Fatalf("checksums = %v, want all 200 on one real driver", sums)
		}
	}
	if got, err := srv.LicensesInUse(); err != nil || got != 200 {
		t.Fatalf("server live leases = %d (%v), want 200", got, err)
	}
	c := srv.Counters()
	if c.LeasesGranted != 200 {
		t.Fatalf("leases granted = %d, want 200 (no client re-bootstrapped)", c.LeasesGranted)
	}
	if c.RenewKeeps == 0 {
		t.Fatalf("no keep-renewals recorded: %+v", c)
	}
}

// TestFleetUpgradeConverges pins upgrade handling: adding a new driver
// generation mid-run turns renewals into upgrade offers, every client
// fetches the new blob, and the fleet converges with no client left on
// the old generation.
func TestFleetUpgradeConverges(t *testing.T) {
	srv := startDrvServer(t, core.WithDefaultLease(100*time.Millisecond))
	if _, err := srv.AddDriver(fleetImage(dbver.V(1, 0, 0), 256), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}

	cfg := fleetConfig(srv.Addr(), 100)
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	// Let the fleet settle on v1, then publish v2.
	time.Sleep(250 * time.Millisecond)
	before := f.Checksums()
	if len(before) != 1 {
		t.Fatalf("fleet not settled before storm: %v", before)
	}
	if _, err := srv.AddDriver(fleetImage(dbver.V(2, 0, 0), 512), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		sums := f.Checksums()
		if len(sums) == 1 {
			converged := true
			for sum := range sums {
				if _, was := before[sum]; was {
					converged = false // still the old generation
				}
			}
			if converged {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not converge to the new driver: %v", f.Checksums())
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.Stop()

	rep := f.Report()
	if rep.Upgrades < 100 {
		t.Fatalf("upgrades = %d, want >= 100 (every client swapped)", rep.Upgrades)
	}
	if rep.TransferBytes < 100*512 {
		t.Fatalf("transfer bytes = %d, want >= %d", rep.TransferBytes, 100*512)
	}
	if rep.Stats.Errors != 0 {
		t.Fatalf("upgrade storm produced errors: %s", rep)
	}
}

// TestFleetLicenseDenialAndRelease pins license-mode behavior: with
// fewer seats than clients the surplus is denied (not errored into
// oblivion), and release churn recirculates seats.
func TestFleetLicenseDenialAndRelease(t *testing.T) {
	srv := startDrvServer(t,
		core.WithDefaultLease(80*time.Millisecond),
		core.WithLicenseMode(),
		// Keep renewals on the granted seat: no upgrade churn between
		// the three license copies mid-test.
		core.WithDefaultPolicies(core.RenewKeep, core.AfterCommit))
	// 3 seats for 6 clients.
	for i := 0; i < 3; i++ {
		img := fleetImage(dbver.V(1, 0, i), 64)
		if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
			t.Fatal(err)
		}
	}

	cfg := fleetConfig(srv.Addr(), 6)
	cfg.Workers = 2
	cfg.RampUp = 10 * time.Millisecond
	cfg.RetryInterval = 15 * time.Millisecond
	cfg.ReleaseAfterRenewals = 2
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()

	// Sample the server-side license count while churning.
	peak := 0
	for i := 0; i < 40; i++ {
		n, err := srv.LicensesInUse()
		if err != nil {
			t.Fatal(err)
		}
		if n > peak {
			peak = n
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.Stop()
	rep := f.Report()

	if peak > 3 {
		t.Fatalf("license cap exceeded: peak %d seats in use, cap 3", peak)
	}
	if rep.Denied == 0 {
		t.Fatal("no denials with 6 clients contending for 3 seats")
	}
	if rep.Releases == 0 {
		t.Fatal("release churn never released")
	}
	// Denials are clean protocol errors, recorded as failures — but
	// they must be NO_DRIVER denials, not timeouts.
	if rep.Stats.Timeouts != 0 {
		t.Fatalf("license contention should not time out: %s", rep)
	}
}

// TestFleetSeededScheduleIsDeterministic pins that the jitter schedule
// is a pure function of (seed, client, event) — same seed, same
// delays.
func TestFleetSeededScheduleIsDeterministic(t *testing.T) {
	mk := func(seed int64) *Fleet {
		f, err := NewFleet(FleetConfig{Addr: "127.0.0.1:1", Population: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b, c := mk(7), mk(7), mk(8)
	for id := int32(0); id < 8; id++ {
		for seq := uint16(0); seq < 4; seq++ {
			if a.renewDelay(time.Second, id, seq) != b.renewDelay(time.Second, id, seq) {
				t.Fatal("same seed produced different renewal schedules")
			}
			if a.retryDelay(id, seq) != b.retryDelay(id, seq) {
				t.Fatal("same seed produced different retry schedules")
			}
		}
	}
	diff := false
	for id := int32(0); id < 8 && !diff; id++ {
		if a.renewDelay(time.Second, id, 1) != c.renewDelay(time.Second, id, 1) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical schedules — jitter is not seeded")
	}
}
