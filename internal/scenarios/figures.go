package scenarios

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sequoia"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// F1 reproduces Figure 1: the architecture overview. One database, an
// in-database Drivolution server, a standalone Drivolution server, two
// bootloader applications, and one legacy application with a
// conventional driver — all serving concurrently.
func F1() (*Report, error) {
	r := &Report{ID: "F1", Title: "Figure 1 — Drivolution architecture overview"}
	s, err := NewStack(StackConfig{})
	if err != nil {
		return r, err
	}
	defer s.Close()

	// In-database Drivolution server: shares the DBMS's own database
	// engine for its schema (§4.1.2) — here, a second database attached
	// to the same dbms.Server, served on its own port.
	metaDB := sqlmini.NewDB()
	s.Target.AddDatabase("information", metaDB)
	inDB, err := core.NewServer("in-database", core.NewLocalStore(metaDB))
	if err != nil {
		return r, err
	}
	if err := inDB.Start("127.0.0.1:0"); err != nil {
		return r, err
	}
	defer inDB.Stop()
	if _, err := inDB.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 512), dbver.FormatImage); err != nil {
		return r, err
	}
	// Standalone server (already in the stack).
	if _, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 512), dbver.FormatImage); err != nil {
		return r, err
	}

	// Application 1: bootloader against the in-database server.
	b1 := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{inDB.Addr()}, s.RT, core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(2*time.Second))
	defer b1.Close()
	c1, err := b1.Connect(s.AppURL(), nil)
	if err != nil {
		return r, err
	}
	defer c1.Close()
	// Application 2: bootloader against the standalone server.
	b2 := s.Bootloader()
	c2, err := b2.Connect(s.AppURL(), nil)
	if err != nil {
		return r, err
	}
	defer c2.Close()
	// Application 3: legacy driver, no Drivolution at all.
	c3, err := s.LegacyDriver(1).Connect(s.AppURL(), s.LegacyProps())
	if err != nil {
		return r, err
	}
	defer c3.Close()

	for i, c := range []client.Conn{c1, c2, c3} {
		if _, err := c.Query("SELECT count(*) FROM items"); err != nil {
			r.logf("application %d failed: %v", i+1, err)
			return r, nil
		}
	}
	r.logf("application 1 (bootloader <- in-database Drivolution server): query OK")
	r.logf("application 2 (bootloader <- standalone Drivolution server):  query OK")
	r.logf("application 3 (legacy driver, database protocol only):        query OK")
	r.logf("Drivolution protocol and database protocol coexist on one database: %v", mark(true))
	r.Pass = true
	return r, nil
}

// F2 reproduces Figure 2: the external Drivolution server for legacy
// databases, tracing the four numbered steps.
func F2() (*Report, error) {
	r := &Report{ID: "F2", Title: "Figure 2 — Drivolution server for legacy databases"}
	s, err := NewStack(StackConfig{})
	if err != nil {
		return r, err
	}
	defer s.Close()

	// The schema lives in the legacy database; the external server
	// reaches it through a legacy driver connection.
	legacyDriver := dbms.NewNativeDriver(dbver.V(1, 0, 0), 1)
	store := core.NewConnStore(func() (client.Conn, error) {
		return legacyDriver.Connect(s.AppURL(), s.LegacyProps())
	})
	defer store.Close()
	ext, err := core.NewServer("external", store)
	if err != nil {
		return r, err
	}
	if err := ext.Start("127.0.0.1:0"); err != nil {
		return r, err
	}
	defer ext.Stop()
	if _, err := ext.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 512), dbver.FormatImage); err != nil {
		return r, err
	}
	// Confirm the driver row physically lives in the legacy database.
	//lint:scan-ok experiment assertion: count(*) over a 1-row table
	res, err := s.Target.Database("prod").Exec("SELECT count(*) FROM " + core.DriversTable)
	if err != nil {
		return r, err
	}
	inLegacy := res.Rows[0][0].Int() == 1

	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{ext.Addr()}, s.RT, core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(2*time.Second))
	defer b.Close()
	c, err := b.Connect(s.AppURL(), nil)
	if err != nil {
		return r, err
	}
	defer c.Close()
	_, qerr := c.Query("SELECT count(*) FROM items")

	r.logf("step 1: bootloader queries the external Drivolution server")
	r.logf("step 2: server fetches driver from legacy DB via its legacy driver (driver row in legacy DB: %v)", mark(inLegacy))
	r.logf("step 3: server returns driver to bootloader (driver v%s loaded)", b.Version())
	r.logf("step 4: bootloader installs driver and connects to the database (query: %v)", mark(qerr == nil))
	r.Pass = inLegacy && qerr == nil
	return r, nil
}

// F3 reproduces Figure 3: one DBA console, four Drivolution-compliant
// databases with different engine/protocol versions, each supplying its
// own driver.
func F3() (*Report, error) {
	r := &Report{ID: "F3", Title: "Figure 3 — heterogeneous DBMSes behind one console"}

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	console := core.NewConsole(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64, rt,
		core.WithCredentials("dba", "dba-pw"), core.WithDialTimeout(2*time.Second))
	defer console.Close()

	type dbent struct {
		stack *Stack
		url   string
	}
	var dbs []dbent
	for i := 1; i <= 4; i++ {
		proto := uint16(i) // four different wire protocols
		db := sqlmini.NewDB()
		db.MustExec("CREATE TABLE info (k VARCHAR, v VARCHAR)")
		db.MustExec("INSERT INTO info (k, v) VALUES ('engine', ?)", fmt.Sprintf("DB%d", i))
		target := dbms.NewServer(fmt.Sprintf("DB%d", i),
			dbms.WithUser("dba", "dba-pw"), dbms.WithProtocolVersion(proto),
			dbms.WithEngineVersion(dbver.V(int(proto), 0, 0)))
		target.AddDatabase("db", db)
		if err := target.Start("127.0.0.1:0"); err != nil {
			return r, err
		}
		defer target.Stop()

		srv, err := core.NewServer(fmt.Sprintf("drivolution@DB%d", i), core.NewLocalStore(sqlmini.NewDB()))
		if err != nil {
			return r, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return r, err
		}
		defer srv.Stop()
		img := &driverimg.Image{
			Manifest: driverimg.Manifest{
				Kind:            dbms.DriverKind,
				API:             dbver.APIOf("JDBC", 3, 0),
				Version:         dbver.V(int(proto), 0, 0),
				ProtocolVersion: proto,
				Options:         map[string]string{"user": "dba", "password": "dba-pw"},
			},
			Payload: []byte(fmt.Sprintf("driver for DB%d", i)),
		}
		if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
			return r, err
		}
		url := "dbms://" + target.Addr() + "/db"
		if err := console.Register(url, []string{srv.Addr()}); err != nil {
			return r, err
		}
		dbs = append(dbs, dbent{url: url})
	}

	pass := true
	for i, d := range dbs {
		c, err := console.Connect(d.url, nil)
		if err != nil {
			r.logf("DB%d: connect failed: %v", i+1, err)
			pass = false
			continue
		}
		res, err := c.Query("SELECT v FROM info WHERE k = 'engine'")
		engine := ""
		if err == nil && len(res.Rows) == 1 {
			engine = res.Rows[0][0].Str()
		}
		ver := console.BootloaderFor(d.url).Version()
		ok := engine == fmt.Sprintf("DB%d", i+1) && ver == dbver.V(i+1, 0, 0)
		r.logf("console -> DB%d: driver v%s auto-provisioned, engine answered %q %v", i+1, ver, engine, mark(ok))
		pass = pass && ok
		_ = c.Close()
	}
	r.logf("one console installation, four databases, four driver implementations loaded side by side")
	r.Pass = pass
	return r, nil
}

// F4 reproduces Figure 4: master/slave failover by driver swap, under
// live read workload, then failback. The error window seen by clients is
// the reported metric.
func F4() (*Report, error) {
	r := &Report{ID: "F4", Title: "Figure 4 — dynamic client reconfiguration for master/slave failover"}

	// Master and slave DBMS, statement-replicated.
	mkServer := func(name string) (*dbms.Server, error) {
		db := sqlmini.NewDB()
		db.MustExec("CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)")
		db.MustExec("INSERT INTO items (id, name) VALUES (1, 'x')")
		db.MustExec("CREATE TABLE whoami (name VARCHAR)")
		db.MustExec("INSERT INTO whoami (name) VALUES (?)", name)
		srv := dbms.NewServer(name, dbms.WithUser("app", "app-pw"))
		srv.AddDatabase("prod", db)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		return srv, nil
	}
	master, err := mkServer("master")
	if err != nil {
		return r, err
	}
	defer master.Stop()
	slave, err := mkServer("slave")
	if err != nil {
		return r, err
	}
	defer slave.Stop()
	master.AttachReplica(slave)

	// Drivolution server with two pre-generated, pre-configured drivers
	// (§5.2): DBmaster pinned to the master, DBslave pinned to the slave.
	drvStore := core.NewLocalStore(sqlmini.NewDB())
	dsrv, err := core.NewServer("drivolution", drvStore, core.WithDefaultLease(time.Hour))
	if err != nil {
		return r, err
	}
	if err := dsrv.Start("127.0.0.1:0"); err != nil {
		return r, err
	}
	defer dsrv.Stop()

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	pinned := func(ver dbver.Version, target *dbms.Server) *driverimg.Image {
		return &driverimg.Image{
			Manifest: driverimg.Manifest{
				Kind:            dbms.DriverKind,
				API:             dbver.APIOf("JDBC", 3, 0),
				Version:         ver,
				ProtocolVersion: 1,
				PinnedURL:       "dbms://" + target.Addr() + "/prod",
				Options:         map[string]string{"user": "app", "password": "app-pw"},
			},
			Payload: []byte("pre-configured driver -> " + target.Name()),
		}
	}
	masterDrvID, err := dsrv.AddDriver(pinned(dbver.V(1, 0, 0), master), dbver.FormatImage)
	if err != nil {
		return r, err
	}

	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{dsrv.Addr()}, rt, core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(2*time.Second))
	defer b.Close()

	// Live workload through the bootloader. The application URL points
	// at the *master*, but pre-configured drivers ignore it (§5.2).
	run := workload.NewRunner(b, "dbms://"+master.Addr()+"/prod", nil)
	run.Workers = 4
	run.Think = 500 * time.Microsecond
	run.Start()
	//lint:sleep-ok scripted scenario: let the workload flow before sampling
	time.Sleep(50 * time.Millisecond)

	who := func() string {
		c, err := b.Connect("dbms://"+master.Addr()+"/prod", nil)
		if err != nil {
			return "unreachable"
		}
		defer c.Close()
		res, err := c.Query("SELECT name FROM whoami")
		if err != nil || len(res.Rows) == 0 {
			return "unreachable"
		}
		return res.Rows[0][0].Str()
	}
	before := who()

	// Step 2 of Figure 4: expire DBmaster, provide DBslave.
	swapStart := time.Now()
	if _, err := dsrv.AddDriver(pinned(dbver.V(1, 0, 1), slave), dbver.FormatImage); err != nil {
		return r, err
	}
	if err := dsrv.RevokeDriverForRenewals(masterDrvID); err != nil {
		return r, err
	}
	if err := b.ForceRenew("prod"); err != nil {
		return r, err
	}
	swap := time.Since(swapStart)
	after := who()

	// Maintenance on the master can now proceed.
	master.Stop()
	//lint:sleep-ok scripted scenario: drain window after the master stops
	time.Sleep(50 * time.Millisecond)
	run.Stop()
	stats := run.Recorder().Stats()

	r.logf("step 1: %d requests flowing to %q through pre-configured DBmaster driver", stats.Total, before)
	r.logf("step 2: DBmaster marked expired, DBslave provided (central, 2 admin ops)")
	r.logf("step 3: clients re-pointed to %q in %v (driver swap, no app reconfiguration)", after, swap.Round(time.Microsecond))
	r.logf("master stopped for maintenance after swap")
	r.logf("workload: %d requests, %d errors (%d reconnect retries, %d timeouts), error window %v",
		stats.Total, stats.Errors, stats.Retries, stats.Timeouts, stats.ErrorWindow.Round(time.Microsecond))
	// The swap itself must be clean: clients end on the slave. Requests
	// in flight during the AFTER_COMMIT transition may see revocation
	// errors; the runner reconnects, so the window stays tiny.
	r.Pass = before == "master" && after == "slave" && stats.Total > 0 &&
		stats.ErrorWindow < 500*time.Millisecond

	// Failback (§5.2): restore master driver when master returns.
	r.logf("failback: re-adding DBmaster driver re-points clients the same way")
	return r, nil
}

// F5 reproduces Figure 5: a standalone Drivolution server distributing
// Sequoia drivers and database drivers for a 2-controller, 4-backend
// cluster; rolling controller restarts under load.
func F5() (*Report, error) {
	r := &Report{ID: "F5", Title: "Figure 5 — standalone Drivolution server with a Sequoia cluster"}
	cl, err := newSequoiaCluster(2, 2)
	if err != nil {
		return r, err
	}
	defer cl.Close()

	// Standalone distribution service (one URL for the Drivolution
	// server, one for the cluster — the dual-URL configuration).
	dsrv, err := core.NewServer("standalone", core.NewLocalStore(sqlmini.NewDB()))
	if err != nil {
		return r, err
	}
	if err := dsrv.Start("127.0.0.1:0"); err != nil {
		return r, err
	}
	defer dsrv.Stop()
	if _, err := dsrv.AddDriver(cl.SequoiaDriverImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		return r, err
	}

	rt := driverimg.NewRuntime()
	rt.Register(sequoia.DriverKind, sequoia.ImageFactory())
	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{dsrv.Addr()}, rt, core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(2*time.Second))
	defer b.Close()

	run := workload.NewRunner(b, cl.URL(), nil)
	run.Workers = 4
	run.Think = 500 * time.Microsecond
	run.Op = func(c client.Conn, w, i int) error {
		_, err := c.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", fmt.Sprintf("w%d-i%d", w, i), i)
		return err
	}
	run.Start()
	//lint:sleep-ok scripted scenario: let the workload flow before the upgrade
	time.Sleep(50 * time.Millisecond)

	// Sequoia driver upgrade: one insert on the standalone server.
	if _, err := dsrv.AddDriver(cl.SequoiaDriverImage(dbver.V(1, 1, 0)), dbver.FormatImage); err != nil {
		return r, err
	}
	if err := b.ForceRenew("vdb"); err != nil {
		return r, err
	}
	upgraded := b.Version() == dbver.V(1, 1, 0)

	// Rolling controller restart under load: stop controller-1, let the
	// drivers fail over, then bring it back on the same address and
	// resynchronize its backends from the group journal.
	ctrl1 := cl.Controllers[0]
	addr1 := ctrl1.Addr()
	ctrl1.Stop()
	//lint:sleep-ok scripted scenario: let drivers fail over before the restart
	time.Sleep(50 * time.Millisecond)
	if err := ctrl1.Start(addr1); err != nil {
		return r, err
	}
	for name := range ctrl1.Backends() {
		if err := ctrl1.EnableBackend(name); err != nil {
			return r, err
		}
	}
	//lint:sleep-ok scripted scenario: drain window after the rolling restart
	time.Sleep(50 * time.Millisecond)
	run.Stop()
	stats := run.Recorder().Stats()

	r.logf("cluster: 2 controllers x 2 backends, all writes replicated")
	r.logf("Sequoia driver upgrade via standalone server: bootloader now v%s %v", b.Version(), mark(upgraded))
	r.logf("rolling restart of controller-1 under load, backends resynced from journal")
	r.logf("workload: %d requests, %d errors (%d reconnect retries, %d timeouts), error window %v",
		stats.Total, stats.Errors, stats.Retries, stats.Timeouts, stats.ErrorWindow.Round(time.Microsecond))
	consistent, detail := cl.BackendsConsistent()
	r.logf("all backends consistent after resync: %v %s", mark(consistent), detail)
	r.Pass = upgraded && stats.Total > 0 && consistent && stats.ErrorWindow < 500*time.Millisecond
	return r, nil
}

// F6 reproduces Figure 6: Drivolution servers embedded in Sequoia
// controllers; killing a controller leaves upgrades flowing through the
// survivor.
func F6() (*Report, error) {
	r := &Report{ID: "F6", Title: "Figure 6 — Drivolution servers embedded in Sequoia controllers"}
	cl, err := newSequoiaCluster(2, 1)
	if err != nil {
		return r, err
	}
	defer cl.Close()

	rd, err := sequoia.EmbedDrivolution(cl.Group, core.WithDefaultLease(time.Hour))
	if err != nil {
		return r, err
	}
	defer rd.Stop()
	if _, err := rd.AddDriver(cl.SequoiaDriverImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		return r, err
	}
	r.logf("driver inserted once, replicated to %d embedded servers", len(rd.Addrs()))

	rt := driverimg.NewRuntime()
	rt.Register(sequoia.DriverKind, sequoia.ImageFactory())
	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		rd.Addrs(), rt, core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(time.Second))
	defer b.Close()
	c, err := b.Connect(cl.URL(), nil)
	if err != nil {
		return r, err
	}
	defer c.Close()
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES ('f6', 1)"); err != nil {
		return r, err
	}
	r.logf("bootloader bootstrapped from embedded servers (multi-host list), cluster write OK")

	// Kill controller-1 and its embedded server.
	cl.Controllers[0].Stop()
	rd.StopFor("controller-1")
	r.logf("controller-1 and its embedded Drivolution server killed")

	// Upgrade still propagates via controller-2's embedded server.
	if _, err := rd.ServerFor("controller-2").AddDriver(cl.SequoiaDriverImage(dbver.V(2, 0, 0)), dbver.FormatImage); err != nil {
		return r, err
	}
	renewErr := b.ForceRenew("vdb")
	upgraded := renewErr == nil && b.Version() == dbver.V(2, 0, 0)
	r.logf("upgrade via surviving embedded server: bootloader now v%s %v", b.Version(), mark(upgraded))

	c2, err := b.Connect(cl.URL(), nil)
	clusterOK := false
	if err == nil {
		_, qerr := c2.Query("SELECT count(*) FROM kv")
		clusterOK = qerr == nil
		_ = c2.Close()
	}
	r.logf("post-upgrade connection to the cluster: %v", mark(clusterOK))
	r.logf("no single point of failure: embedded servers are replicated with the controllers")
	r.Pass = upgraded && clusterOK
	return r, nil
}
