package scenarios

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
)

// T1 reproduces Table 1: the drivers information-schema table, created
// and populated through the live schema path, columns verified against
// the paper's definition.
func T1() (*Report, error) {
	r := &Report{ID: "T1", Title: "Table 1 — information schema driver table definition"}
	db := sqlmini.NewDB()
	st := core.NewLocalStore(db)
	if err := core.EnsureSchema(st); err != nil {
		return r, err
	}
	//lint:scan-ok schema introspection: LIMIT 0 reads column metadata, no rows
	res, err := db.Query("SELECT * FROM " + core.DriversTable + " LIMIT 0")
	if err != nil {
		return r, err
	}
	want := []string{
		"driver_id", "api_name", "api_version_major", "api_version_minor",
		"platform", "driver_version_major", "driver_version_minor",
		"driver_version_micro", "binary_code", "binary_format",
	}
	r.logf("%-24s (paper Table 1 columns)", core.DriversTable)
	ok := len(res.Cols) == len(want)
	for i, c := range want {
		got := ""
		if i < len(res.Cols) {
			got = res.Cols[i]
		}
		match := got == c
		ok = ok && match
		r.logf("  %-24s %v", c, mark(match))
	}
	// Constraint spot-checks.
	_, errPK := db.Exec("INSERT INTO "+core.DriversTable+
		" (driver_id, api_name, binary_code, binary_format) VALUES (1, 'JDBC', ?, 'IMAGE')", []byte{1})
	_, errDup := db.Exec("INSERT INTO "+core.DriversTable+
		" (driver_id, api_name, binary_code, binary_format) VALUES (1, 'JDBC', ?, 'IMAGE')", []byte{1})
	r.logf("  PRIMARY KEY enforced: %v", mark(errPK == nil && errDup != nil))
	ok = ok && errPK == nil && errDup != nil
	r.Pass = ok
	return r, nil
}

// T2 reproduces Table 2: the driver_permission table with its policy
// encodings.
func T2() (*Report, error) {
	r := &Report{ID: "T2", Title: "Table 2 — driver_permission table description"}
	db := sqlmini.NewDB()
	st := core.NewLocalStore(db)
	if err := core.EnsureSchema(st); err != nil {
		return r, err
	}
	//lint:scan-ok schema introspection: LIMIT 0 reads column metadata, no rows
	res, err := db.Query("SELECT * FROM " + core.PermissionTable + " LIMIT 0")
	if err != nil {
		return r, err
	}
	want := []string{
		"user", "client_ip", "database", "driver_id", "driver_options",
		"start_date", "end_date", "lease_time_in_ms", "renew_policy",
		"expiration_policy", "transfer_method",
	}
	ok := true
	r.logf("%s (paper Table 2 columns)", core.PermissionTable)
	cols := strings.Join(res.Cols, ",")
	for _, c := range want {
		match := strings.Contains(cols, c)
		ok = ok && match
		r.logf("  %-20s %v", c, mark(match))
	}
	r.logf("policy encodings: RENEW=%d UPGRADE=%d REVOKE=%d | AFTER_CLOSE=%d AFTER_COMMIT=%d IMMEDIATE=%d | ANY=%d",
		core.RenewKeep, core.RenewUpgrade, core.RenewRevoke,
		core.AfterClose, core.AfterCommit, core.Immediate, core.TransferAny)
	encOK := core.RenewKeep == 0 && core.RenewUpgrade == 1 && core.RenewRevoke == 2 &&
		core.AfterClose == 0 && core.AfterCommit == 1 && core.Immediate == 2 &&
		core.TransferAny == -1
	r.logf("  encodings match paper: %v", mark(encOK))
	r.Pass = ok && encOK
	return r, nil
}

// T3 reproduces Table 3: the bootstrap protocol, traced end to end over
// TCP with message and byte counts.
func T3() (*Report, error) {
	r := &Report{ID: "T3", Title: "Table 3 — Drivolution bootstrap protocol"}
	s, err := NewStack(StackConfig{})
	if err != nil {
		return r, err
	}
	defer s.Close()
	const payload = 64 << 10
	if _, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, payload), dbver.FormatImage); err != nil {
		return r, err
	}

	b := s.Bootloader()
	start := time.Now()
	c, err := b.Connect(s.AppURL(), nil)
	if err != nil {
		return r, err
	}
	bootstrap := time.Since(start)
	defer c.Close()
	if _, err := c.Query("SELECT count(*) FROM items"); err != nil {
		return r, err
	}

	sc := s.Drv.Counters()
	m := b.Stats()
	r.logf("bootloader -> DRIVOLUTION_REQUEST -> server")
	r.logf("server     -> DRIVOLUTION_OFFER (lease %d)", b.LeaseID())
	r.logf("bootloader -> FILE_REQUEST; server -> FILE_DATA (%d bytes)", m.BytesFetched)
	r.logf("bootloader: decode(binary_format, binary_code); load(...)")
	r.logf("bootstrap latency: %v; first query OK through loaded driver", bootstrap.Round(time.Microsecond))
	r.logf("server counters: requests=%d offers=%d errors=%d transfers=%d bytes=%d",
		sc.Requests, sc.Offers, sc.ErrorsSent, sc.Transfers, sc.BytesOut)
	r.Pass = m.Bootstraps == 1 && sc.Transfers == 1 && m.BytesFetched >= payload && sc.ErrorsSent == 0
	return r, nil
}

// T4 reproduces Table 4: the renewal protocol, exercising the RENEW,
// UPGRADE, and REVOKE branches and all three expiration policies.
func T4() (*Report, error) {
	r := &Report{ID: "T4", Title: "Table 4 — lease renewal protocol (3 branches x 3 policies)"}
	pass := true

	// Branch 1: RENEW (driver still valid → OFFER without data).
	{
		s, err := NewStack(StackConfig{})
		if err != nil {
			return r, err
		}
		if _, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 1024), dbver.FormatImage); err != nil {
			s.Close()
			return r, err
		}
		b := s.Bootloader()
		if _, err := b.Connect(s.AppURL(), nil); err != nil {
			s.Close()
			return r, err
		}
		before := s.Drv.Counters().Transfers
		err = b.ForceRenew("prod")
		after := s.Drv.Counters().Transfers
		ok := err == nil && b.Stats().Renewals == 1 && before == after
		r.logf("RENEW branch: OFFER without data, lease extended, no transfer  %v", mark(ok))
		pass = pass && ok
		s.Close()
	}

	// Branch 2: UPGRADE under each expiration policy (new driver
	// available → OFFER + FILE_DATA). The bootloader talks through a
	// proxy that counts its frames: the upgrade renewal is one REQUEST,
	// the file rides the OFFER, no FILE_REQUEST.
	for _, pol := range []core.ExpirationPolicy{core.AfterClose, core.AfterCommit, core.Immediate} {
		s, err := NewStack(StackConfig{})
		if err != nil {
			return r, err
		}
		id1, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 1024), dbver.FormatImage)
		if err != nil {
			s.Close()
			return r, err
		}
		if _, err := s.Drv.SetPermission(core.Permission{
			DriverID: id1, LeaseTime: time.Hour,
			RenewPolicy: core.RenewUpgrade, ExpirationPolicy: pol, TransferMethod: core.TransferAny,
		}); err != nil {
			s.Close()
			return r, err
		}
		p, err := faultnet.NewProxy(s.Drv.Addr(), 1)
		if err != nil {
			s.Close()
			return r, err
		}
		s.Defer(p.Close)
		b := s.bootloaderVia(p.Addr())
		idle, err := b.Connect(s.AppURL(), nil)
		if err != nil {
			s.Close()
			return r, err
		}
		busy, err := b.Connect(s.AppURL(), nil)
		if err != nil {
			s.Close()
			return r, err
		}
		_ = busy.Begin()
		_, _ = busy.Exec("UPDATE items SET name = 'wip' WHERE id = 1")

		id2, err := s.Drv.AddDriver(s.Image(dbver.V(2, 0, 0), 1, 1024), dbver.FormatImage)
		if err != nil {
			s.Close()
			return r, err
		}
		if _, err := s.Drv.SetPermission(core.Permission{
			DriverID: id2, LeaseTime: time.Hour,
			RenewPolicy: core.RenewUpgrade, ExpirationPolicy: pol, TransferMethod: core.TransferAny,
		}); err != nil {
			s.Close()
			return r, err
		}
		framesBefore := p.Frames(faultnet.Up)
		if err := b.ForceRenew("prod"); err != nil {
			s.Close()
			return r, err
		}
		sent := p.Frames(faultnet.Up) - framesBefore
		m := b.Stats()
		_, idleErr := idle.Query("SELECT 1")
		var ok bool
		switch pol {
		case core.AfterClose:
			// both connections keep working until app closes them
			_, busyErr := busy.Exec("UPDATE items SET name = 'still' WHERE id = 1")
			ok = idleErr == nil && busyErr == nil && m.ForcedCloses == 0
		case core.AfterCommit:
			// idle closed now; busy drains at commit
			commitErr := busy.Commit()
			_, afterErr := busy.Query("SELECT 1")
			ok = idleErr != nil && commitErr == nil && afterErr != nil &&
				m.AbortedTx == 0
		case core.Immediate:
			_, busyErr := busy.Exec("SELECT 1")
			ok = idleErr != nil && busyErr != nil && b.Stats().AbortedTx == 1
		}
		ok = ok && m.Upgrades == 1 && b.Version() == dbver.V(2, 0, 0) && sent == 1
		r.logf("UPGRADE branch, %-12s: OFFER + FILE_DATA (%d client frame), new conns on v2, old conns transitioned  %v",
			pol, sent, mark(ok))
		pass = pass && ok
		s.Close()
	}

	// Branch 3: REVOKE (no driver available → DRIVOLUTION_ERROR).
	{
		s, err := NewStack(StackConfig{})
		if err != nil {
			return r, err
		}
		id, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 1024), dbver.FormatImage)
		if err != nil {
			s.Close()
			return r, err
		}
		b := s.Bootloader()
		if _, err := b.Connect(s.AppURL(), nil); err != nil {
			s.Close()
			return r, err
		}
		if err := s.Drv.DeleteDriver(id); err != nil {
			s.Close()
			return r, err
		}
		renewErr := b.ForceRenew("prod")
		_, connErr := b.Connect(s.AppURL(), nil)
		ok := renewErr != nil && connErr != nil && b.Stats().Revocations == 1
		r.logf("REVOKE branch: DRIVOLUTION_ERROR, new connections blocked       %v", mark(ok))
		pass = pass && ok
		s.Close()
	}

	r.Pass = pass
	return r, nil
}

// T5 reproduces Table 5: DBA procedures with and without Drivolution,
// executing the Drivolution side live and counting steps.
func T5() (*Report, error) {
	r := &Report{ID: "T5", Title: "Table 5 — driver tasks for 2 DBAs, current vs Drivolution"}

	for _, row := range table5() {
		r.logf("%s:", row.task)
		r.logf("  current state-of-the-art (%d steps):", len(row.current))
		for i, s := range row.current {
			r.logf("    %d. %s", i+1, s)
		}
		r.logf("  Drivolution (%d steps):", len(row.drivolution))
		for i, s := range row.drivolution {
			r.logf("    %d. %s", i+1, s)
		}
	}

	// Execute the Drivolution side against a live stack: two DBA
	// consoles "just connect"; upgrading is insert + revoke.
	s, err := NewStack(StackConfig{})
	if err != nil {
		return r, err
	}
	defer s.Close()
	id1, err := s.Drv.AddDriver(s.Image(dbver.V(1, 0, 0), 1, 512), dbver.FormatImage)
	if err != nil {
		return r, err
	}

	liveSteps := 0
	for i := 0; i < 2; i++ { // DBA1, DBA2 connect — one step each
		b := s.Bootloader()
		if _, err := b.Connect(s.AppURL(), nil); err != nil {
			return r, err
		}
		liveSteps++
	}
	accessOK := liveSteps == 2
	r.logf("live run, accessing a new database: %d Drivolution steps executed %v", liveSteps, mark(accessOK))

	// Upgrade: 1. insert drivers in database, 2. revoke old driver.
	liveSteps = 0
	if _, err := s.Drv.AddDriver(s.Image(dbver.V(2, 0, 0), 1, 512), dbver.FormatImage); err != nil {
		return r, err
	}
	liveSteps++
	if err := s.Drv.RevokeDriverForRenewals(id1); err != nil {
		return r, err
	}
	liveSteps++
	upgradeOK := liveSteps == 2
	r.logf("live run, database driver upgrade:   %d Drivolution steps executed %v", liveSteps, mark(upgradeOK))

	// Scaling comparison from the executable step model.
	for _, n := range []int{2, 10, 100} {
		trad := countSteps(traditionalUpdate(), n)
		drv := countSteps(drivolutionUpdate(), n)
		r.logf("upgrade scaling, %3d clients: traditional %4d steps (%d disruptive) vs Drivolution %d step",
			n, trad.steps, trad.disruptive, drv.steps)
	}
	r.Pass = accessOK && upgradeOK
	return r, nil
}

func mark(ok bool) string {
	if ok {
		return "[ok]"
	}
	return "[FAIL]"
}
