package scenarios

import (
	"errors"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/faultnet"
	"repro/internal/license"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// Q1 measures the paper's central operational claim: a traditional
// restart-based driver upgrade disrupts the application; a Drivolution
// hot swap does not. Both run the same workload for the same duration.
func Q1() (*Report, error) {
	r := &Report{ID: "Q1", Title: "Q1 — upgrade disruption: traditional restart vs Drivolution hot swap"}

	const (
		warm        = 60 * time.Millisecond
		manualWork  = 120 * time.Millisecond // stop+uninstall+install+configure, compressed
		cool        = 120 * time.Millisecond
		thinkPeriod = 500 * time.Microsecond
	)

	// --- Traditional: the application must stop for the driver change.
	tradStats, err := func() (workload.Stats, error) {
		s, err := NewStack(StackConfig{})
		if err != nil {
			return workload.Stats{}, err
		}
		defer s.Close()
		run := workload.NewRunner(s.LegacyDriver(1), s.AppURL(), s.LegacyProps())
		run.Workers = 4
		run.Think = thinkPeriod
		run.Start()
		//lint:sleep-ok scripted experiment timeline: warm-up span is part of the measured protocol
		time.Sleep(warm)

		// The upgrade: the app is stopped, the driver replaced, the app
		// restarted. We model "stopped" faithfully: workers' connections
		// die and reconnects fail until the restart completes. Here the
		// application process is simulated by gating the target server.
		addr := s.Target.Addr()
		s.Target.Stop()
		//lint:sleep-ok scripted experiment timeline: manual-upgrade downtime is the quantity under test
		time.Sleep(manualWork)
		if err := s.Target.Start(addr); err != nil {
			return workload.Stats{}, err
		}
		//lint:sleep-ok scripted experiment timeline: cool-down span is part of the measured protocol
		time.Sleep(cool)
		run.Stop()
		return run.Recorder().Stats(), nil
	}()
	if err != nil {
		return r, err
	}

	// --- Drivolution: one insert, hot swap under AFTER_COMMIT.
	drvStats, swapDur, err := func() (workload.Stats, time.Duration, error) {
		s, err := NewStack(StackConfig{})
		if err != nil {
			return workload.Stats{}, 0, err
		}
		defer s.Close()
		if _, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 4096), dbver.FormatImage); err != nil {
			return workload.Stats{}, 0, err
		}
		b := s.Bootloader()
		run := workload.NewRunner(b, s.AppURL(), nil)
		run.Workers = 4
		run.Think = thinkPeriod
		run.Start()
		//lint:sleep-ok scripted experiment timeline: warm-up span is part of the measured protocol
		time.Sleep(warm)

		start := time.Now()
		if _, err := s.Drv.AddDriver(s.Image(dbver.V(2, 0, 0), 1, 4096), dbver.FormatImage); err != nil {
			return workload.Stats{}, 0, err
		}
		if err := b.ForceRenew("prod"); err != nil {
			return workload.Stats{}, 0, err
		}
		swap := time.Since(start)
		//lint:sleep-ok scripted experiment timeline: matched observation span for a fair comparison
		time.Sleep(manualWork + cool) // same observation span as traditional
		run.Stop()
		if b.Version() != dbver.V(2, 0, 0) {
			return workload.Stats{}, 0, errors.New("hot swap did not land")
		}
		return run.Recorder().Stats(), swap, nil
	}()
	if err != nil {
		return r, err
	}

	r.logf("traditional: %5d requests, %4d errors (%d retries), error window %8v  (app stopped for driver change)",
		tradStats.Total, tradStats.Errors, tradStats.Retries, tradStats.ErrorWindow.Round(time.Millisecond))
	r.logf("drivolution: %5d requests, %4d errors (%d retries), error window %8v  (hot swap in %v, AFTER_COMMIT)",
		drvStats.Total, drvStats.Errors, drvStats.Retries, drvStats.ErrorWindow.Round(time.Millisecond), swapDur.Round(time.Microsecond))
	shape := tradStats.ErrorWindow > 50*time.Millisecond &&
		drvStats.ErrorWindow < tradStats.ErrorWindow/2
	r.logf("paper's shape (hard outage vs transparent upgrade): %v", mark(shape))
	r.Pass = shape
	return r, nil
}

// Q2 sweeps the lease time and measures the §3.2 trade-off: "Shorter
// lease times allow faster reaction to upgrades but higher traffic to
// the Drivolution Server." It also shows the dedicated push channel
// reacting immediately regardless of lease time.
func Q2() (*Report, error) {
	r := &Report{ID: "Q2", Title: "Q2 — lease time vs server traffic vs upgrade reaction (§3.2)"}
	const observe = 400 * time.Millisecond

	type row struct {
		lease    time.Duration
		requests int64
		reaction time.Duration
		push     bool
	}
	var rows []row

	runOne := func(lease time.Duration, push bool) (row, error) {
		s, err := NewStack(StackConfig{ServerOpts: []core.ServerOption{core.WithDefaultLease(lease)}})
		if err != nil {
			return row{}, err
		}
		defer s.Close()
		if _, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 512), dbver.FormatImage); err != nil {
			return row{}, err
		}
		opts := []core.BootloaderOption{core.WithRenewAhead(0.8)}
		if push {
			opts = append(opts, core.WithPushUpdates())
		}
		b := s.Bootloader(opts...)
		if _, err := b.Connect(s.AppURL(), nil); err != nil {
			return row{}, err
		}
		//lint:sleep-ok scripted experiment timeline: half the observation span before the upgrade lands
		time.Sleep(observe / 2)

		// Central upgrade; measure propagation without forcing.
		start := time.Now()
		if _, err := s.Drv.AddDriver(s.Image(dbver.V(2, 0, 0), 1, 512), dbver.FormatImage); err != nil {
			return row{}, err
		}
		deadline := time.Now().Add(observe)
		reaction := time.Duration(-1)
		for time.Now().Before(deadline) {
			if b.Version() == dbver.V(2, 0, 0) {
				reaction = time.Since(start)
				break
			}
			//lint:sleep-ok 2ms fixed cadence bounds the reaction-time measurement error; backoff would coarsen it
			time.Sleep(2 * time.Millisecond)
		}
		return row{lease: lease, requests: s.Drv.Counters().Requests, reaction: reaction, push: push}, nil
	}

	for _, lease := range []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		rw, err := runOne(lease, false)
		if err != nil {
			return r, err
		}
		rows = append(rows, rw)
	}
	pushRow, err := runOne(200*time.Millisecond, true)
	if err != nil {
		return r, err
	}
	rows = append(rows, pushRow)

	r.logf("%-12s %-16s %-18s %s", "lease", "server requests", "upgrade reaction", "mode")
	for _, rw := range rows {
		mode := "lease pull"
		if rw.push {
			mode = "push channel"
		}
		reaction := "not observed"
		if rw.reaction >= 0 {
			reaction = rw.reaction.Round(time.Millisecond).String()
		}
		r.logf("%-12v %-16d %-18s %s", rw.lease, rw.requests, reaction, mode)
	}
	// Shape: shorter lease → more requests; push reacts despite long lease.
	monotone := rows[0].requests >= rows[2].requests
	pushFast := pushRow.reaction >= 0 && pushRow.reaction < rows[3].lease
	r.logf("shorter lease -> more server traffic: %v; push reacts below one long-lease period: %v",
		mark(monotone), mark(pushFast))
	r.Pass = monotone && pushFast
	return r, nil
}

// SampleCode reproduces Sample code 1 and 2 end to end through the wire
// protocol: preferences, fallback, and permission-table routing.
func SampleCode() (*Report, error) {
	r := &Report{ID: "S", Title: "Sample code 1 & 2 — server-side driver matchmaking"}
	s, err := NewStack(StackConfig{})
	if err != nil {
		return r, err
	}
	defer s.Close()

	// Three drivers: two generic versions and one platform-specific.
	if _, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 128), dbver.FormatImage); err != nil {
		return r, err
	}
	if _, err := s.Drv.AddDriver(s.Image(dbver.V(2, 0, 0), 1, 128), dbver.FormatImage); err != nil {
		return r, err
	}
	winImg := s.Image(dbver.V(1, 5, 0), 1, 128)
	winImg.Manifest.Platform = dbver.PlatformWindowsI586
	if _, err := s.Drv.AddDriver(winImg, dbver.FormatImage); err != nil {
		return r, err
	}

	// Preference-free client gets the newest (2.0.0).
	b1 := s.Bootloader()
	if _, err := b1.Connect(s.AppURL(), nil); err != nil {
		return r, err
	}
	got1 := b1.Version()
	r.logf("no preference            -> v%s (newest compatible) %v", got1, mark(got1 == dbver.V(2, 0, 0)))

	// Version preference pins 1.0.0.
	b2 := s.Bootloader(core.WithPreferredVersion(dbver.V(1, 0, 0)))
	if _, err := b2.Connect(s.AppURL(), nil); err != nil {
		return r, err
	}
	got2 := b2.Version()
	r.logf("preferred version 1.0.0  -> v%s %v", got2, mark(got2 == dbver.V(1, 0, 0)))

	// Windows client can also take the platform-specific build via
	// Sample code 1's platform LIKE.
	bw := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformWindowsI586,
		[]string{s.Drv.Addr()}, s.RT,
		core.WithCredentials("app", "app-pw"),
		core.WithPreferredVersion(dbver.V(1, 5, 0)),
		core.WithDialTimeout(2*time.Second))
	defer bw.Close()
	if _, err := bw.Connect(s.AppURL(), nil); err != nil {
		return r, err
	}
	got3 := bw.Version()
	r.logf("windows-i586, pref 1.5.0 -> v%s (platform-specific build) %v", got3, mark(got3 == dbver.V(1, 5, 0)))

	// Permission table routes a specific user to the old driver.
	drivers, err := s.Drv.Drivers()
	if err != nil {
		return r, err
	}
	var v1ID int64
	for _, d := range drivers {
		if d.Version == dbver.V(1, 0, 0) {
			v1ID = d.DriverID
		}
	}
	if _, err := s.Drv.SetPermission(core.Permission{
		User: "batch", DriverID: v1ID, LeaseTime: time.Hour,
		RenewPolicy: core.RenewKeep, ExpirationPolicy: core.AfterClose,
		TransferMethod: core.TransferAny,
	}); err != nil {
		return r, err
	}
	bb := s.Bootloader(core.WithCredentials("batch", "any"))
	// Server-side auth is open in this stack; the permission row keys on
	// the request's user.
	if _, err := bb.Connect(s.AppURL(), client.Props{"user": "app", "password": "app-pw"}); err != nil {
		return r, err
	}
	got4 := bb.Version()
	r.logf("user 'batch' permission  -> v%s (Sample code 2 routing) %v", got4, mark(got4 == dbver.V(1, 0, 0)))

	r.Pass = got1 == dbver.V(2, 0, 0) && got2 == dbver.V(1, 0, 0) &&
		got3 == dbver.V(1, 5, 0) && got4 == dbver.V(1, 0, 0)
	return r, nil
}

// Assembly reproduces §5.4.1: NLS/GIS/Kerberos feature packages
// assembled into customized drivers on demand.
func Assembly() (*Report, error) {
	r := &Report{ID: "A", Title: "§5.4.1 — assembling drivers on demand"}
	ps := driverimg.NewPackageStore()
	ps.AddPackage("nls-fr", make([]byte, 2048), map[string]string{"locale": "fr"})
	ps.AddPackage("gis", make([]byte, 8192), map[string]string{"gis": "enabled"})
	ps.AddPackage("kerberos", make([]byte, 4096), map[string]string{"auth": "krb5"})

	s, err := NewStack(StackConfig{ServerOpts: []core.ServerOption{core.WithPackages(ps)}})
	if err != nil {
		return r, err
	}
	defer s.Close()
	if _, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 1024), dbver.FormatImage); err != nil {
		return r, err
	}

	base := s.Bootloader()
	if _, err := base.Connect(s.AppURL(), nil); err != nil {
		return r, err
	}
	baseBytes := base.Stats().BytesFetched

	gis := s.Bootloader(core.WithRequiredPackages("gis"))
	if _, err := gis.Connect(s.AppURL(), nil); err != nil {
		return r, err
	}
	gisBytes := gis.Stats().BytesFetched

	full := s.Bootloader(core.WithRequiredPackages("gis", "nls-fr", "kerberos"))
	if _, err := full.Connect(s.AppURL(), nil); err != nil {
		return r, err
	}
	fullBytes := full.Stats().BytesFetched

	r.logf("base driver:                    %6d bytes", baseBytes)
	r.logf("base + gis:                     %6d bytes", gisBytes)
	r.logf("base + gis + nls-fr + kerberos: %6d bytes", fullBytes)
	r.logf("clients fetch only the features they request (paper: \"prevents applications")
	r.logf("from loading an unnecessary large driver\")")
	ordered := baseBytes < gisBytes && gisBytes < fullBytes
	r.logf("sizes strictly ordered by feature set: %v", mark(ordered))
	r.Pass = ordered
	return r, nil
}

// License reproduces §5.4.2: Drivolution as a per-user license server
// with failure detection through the database engine.
func License() (*Report, error) {
	r := &Report{ID: "L", Title: "§5.4.2 — Drivolution as a license server"}

	appDB := sqlmini.NewDB()
	appDB.MustExec("CREATE TABLE t (x INTEGER)")
	target := dbms.NewServer("db", dbms.WithUser("u1", "pw"), dbms.WithUser("u2", "pw"))
	target.AddDatabase("prod", appDB)
	if err := target.Start("127.0.0.1:0"); err != nil {
		return r, err
	}
	defer target.Stop()

	srv, err := core.NewServer("license", core.NewLocalStore(sqlmini.NewDB()),
		core.WithLicenseMode(), core.WithDefaultLease(time.Hour))
	if err != nil {
		return r, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return r, err
	}
	defer srv.Stop()
	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind: dbms.DriverKind, API: dbver.APIOf("JDBC", 3, 0),
			Version: dbver.V(1, 0, 0), ProtocolVersion: 1,
		},
		Payload: []byte("per-user license key"),
	}
	if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
		return r, err
	}

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	mkBL := func(addr, user, id string) *core.Bootloader {
		return core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
			[]string{addr}, rt,
			core.WithCredentials(user, "pw"), core.WithClientID(id),
			core.WithDialTimeout(time.Second))
	}
	url := "dbms://" + target.Addr() + "/prod"

	// Client 1 reaches the server through a proxy, so its crash can cut
	// the path: a bootloader that closes gives its lease back.
	path1, err := faultnet.NewProxy(srv.Addr(), 1)
	if err != nil {
		return r, err
	}
	defer path1.Close()
	b1 := mkBL(path1.Addr(), "u1", "c1")
	defer b1.Close()
	c1, err := b1.Connect(url, client.Props{"user": "u1", "password": "pw"})
	if err != nil {
		return r, err
	}
	r.logf("client 1 acquires the license (lease %d)", b1.LeaseID())

	b2 := mkBL(srv.Addr(), "u2", "c2")
	defer b2.Close()
	_, err2 := b2.Connect(url, client.Props{"user": "u2", "password": "pw"})
	var pe *core.ProtocolError
	denied := errors.As(err2, &pe) && pe.Code == core.ErrCodeNoDriver
	r.logf("client 2 denied while license is held: %v", mark(denied))

	// Client 1 crashes, sending nothing; the DBMS-integrated failure
	// detector reclaims.
	path1.DropAll()
	_ = c1.Close()
	b1.Close()
	deadline := time.Now().Add(2 * time.Second)
	pollUntil(deadline, func() bool { return !target.UserHasSession("u1") })
	mgr := license.NewManager(srv, license.DetectorFromDBMS(target))
	n, err := mgr.SweepOnce()
	if err != nil {
		return r, err
	}
	r.logf("client 1 crashes; engine shows no session; manager reclaims %d license %v", n, mark(n == 1))

	_, err3 := b2.Connect(url, client.Props{"user": "u2", "password": "pw"})
	r.logf("client 2 acquires the freed license: %v", mark(err3 == nil))
	r.Pass = denied && n == 1 && err3 == nil
	return r, nil
}
