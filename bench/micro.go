package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
	"repro/internal/wire"
	"repro/internal/workload"
)

// coldLeaseRows is the leases-table size the statements are replayed
// at for a workload that keeps no population: cold_bootstrap's table
// stays small.
const coldLeaseRows = 200

// reportMicro measures single layers by calling their exported
// functions directly, at this workload's sizes: its image payload, its
// leases table. Only the wire codec and Hist.Record rows (three, 0.2 s)
// do not depend on the workload; a layer the workload never enters
// (dbms without a target DBMS) is not measured at all.
func reportMicro(res *result, p runParams, in *instance, c *canned) error {
	if err := microWire(res, p.microBudget, c); err != nil {
		return err
	}
	var h workload.Hist
	ns, n := perCallUs(p.microBudget, 1000, func() { h.Record(137 * time.Microsecond) })
	res.add("workload.hist.record_ns", ns*1e3, "ns", n, "")
	if err := microDriverimg(res, p.microBudget, p.cfg.PayloadBytes); err != nil {
		return err
	}
	if in.target != nil {
		if err := microDBMS(res, p.microBudget, p.seed); err != nil {
			return err
		}
	}
	rows := p.cfg.Population
	if rows == 0 {
		rows = coldLeaseRows
	}
	return microSqlmini(res, p.microBudget, rows)
}

// encodeRequestShaped writes r with the field sequence of a
// DRIVOLUTION_REQUEST. core keeps its codec unexported, so this is a
// copy of the message's shape: it times the exported Encoder on a
// message of the renewal's size, and the decoder below fails loudly
// on the recorded renewal if the real layout ever moves away from it.
func encodeRequestShaped(e *wire.Encoder, r core.Request) {
	e.String(r.Database)
	e.String(r.User)
	e.String(r.Password)
	e.String(r.API.Name)
	e.Int32(int32(r.API.Major))
	e.Int32(int32(r.API.Minor))
	e.String(string(r.ClientPlatform))
	e.String(r.PreferredFormat)
	e.Int32(int32(r.PreferredVersion.Major))
	e.Int32(int32(r.PreferredVersion.Minor))
	e.Int32(int32(r.PreferredVersion.Micro))
	e.StringSlice(r.RequiredPackages)
	e.Uint64(r.LeaseID)
	e.String(r.CurrentChecksum)
	e.String(r.ClientID)
}

func decodeRequestShaped(payload []byte) (leaseID uint64, checksum string, err error) {
	d := wire.NewDecoder(payload)
	for i := 0; i < 4; i++ {
		_ = d.String()
	}
	_, _ = d.Int32(), d.Int32()
	_, _ = d.String(), d.String()
	_, _, _ = d.Int32(), d.Int32(), d.Int32()
	_ = d.StringSlice()
	leaseID = d.Uint64()
	checksum = d.String()
	_ = d.String()
	if d.Err() == nil && d.Remaining() != 0 {
		return 0, "", errors.New("trailing bytes")
	}
	return leaseID, checksum, d.Err()
}

func microWire(res *result, microBudget time.Duration, c *canned) error {
	recorded := c.renewalRequest()
	leaseID, checksum, err := decodeRequestShaped(recorded.Payload)
	if err != nil || leaseID != c.leaseID || checksum != c.checksum {
		return fmt.Errorf("recorded renewal no longer has the request shape this harness copies (lease %d, err %v)", leaseID, err)
	}
	req := baseRequest("recorded-client")
	req.LeaseID, req.CurrentChecksum = c.leaseID, c.checksum
	var failed firstError
	enc, n := perCallUs(microBudget, 1000, func() {
		e := wire.GetEncoder(256)
		encodeRequestShaped(e, req)
		failed.note(wire.WriteFrame(io.Discard, wire.Frame{Type: recorded.Type, Payload: e.Bytes()}))
		wire.PutEncoder(e)
	})
	res.add("wire.encode_ns_per_msg", enc*1e3, "ns", n, "")
	dec, n := perCallUs(microBudget, 1000, func() {
		_, _, err := decodeRequestShaped(recorded.Payload)
		failed.note(err)
	})
	res.add("wire.decode_ns_per_msg", dec*1e3, "ns", n, "")
	return failed.err
}

// microDriverimg times the image codec and the runtime load on an
// image of the workload's payload size.
func microDriverimg(res *result, microBudget time.Duration, payload int) error {
	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	img := newImage(dbver.V(1, 0, 0), payload)
	blob := img.Encode()
	size := fmt.Sprintf("%d-byte payload", payload)
	var failed firstError
	note := failed.note
	us, n := perCallUs(microBudget, 1, func() { _ = img.Encode() })
	res.add("driverimg.encode_us", us, "us", n, size)
	us, n = perCallUs(microBudget, 1, func() { _, err := driverimg.Decode(blob); note(err) })
	res.add("driverimg.decode_us", us, "us", n, size)
	us, n = perCallUs(microBudget, 1, func() { _, err := driverimg.EncodedChecksum(blob); note(err) })
	res.add("driverimg.checksum_us", us, "us", n, size)
	us, n = perCallUs(microBudget, 1, func() { _, err := rt.Load(img); note(err) })
	res.add("driverimg.load_us", us, "us", n, size)
	res.add("driverimg.bytes_per_payload_byte", float64(len(blob))/float64(payload), "ratio", 0, size)
	if failed.err != nil {
		return fmt.Errorf("driverimg at %s: %w", size, failed.err)
	}
	return nil
}

// microDBMS times the native driver against a bare DBMS server over a
// protocol-v2 session: handshake, ad-hoc query, prepared execution.
func microDBMS(res *result, microBudget time.Duration, seed int64) error {
	db, err := newItemsDB(seed, 100)
	if err != nil {
		return err
	}
	srv := dbms.NewServer("micro-db", dbms.WithUser(appUser, appPassword))
	srv.AddDatabase("prod", db)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Stop()
	url := "dbms://" + srv.Addr() + "/prod"
	props := client.Props{"user": appUser, "password": appPassword}
	drv := dbms.NewNativeDriver(dbver.V(1, 0, 0), 2)

	var failed firstError
	note := failed.note
	us, n := perCallUs(microBudget, 1, func() {
		conn, err := drv.Connect(url, props)
		note(err)
		if err == nil {
			note(conn.Close())
		}
	})
	res.add("dbms.connect_us", us, "us", n, "")

	conn, err := drv.Connect(url, props)
	if err != nil {
		return err
	}
	defer conn.Close()
	us, n = perCallUs(microBudget, 1, func() { note(queryItem(conn, seed, 1)) })
	res.add("dbms.query_p50_us", us, "us", n, "")
	sc, ok := conn.(client.StmtConn)
	if !ok {
		return errors.New("native v2 connection has no prepared statements")
	}
	stmt, err := sc.Prepare(itemQuery)
	if err != nil {
		return err
	}
	us, n = perCallUs(microBudget, 1, func() { _, err := stmt.Query(1); note(err) })
	res.add("dbms.stmt_exec_p50_us", us, "us", n, "")
	note(stmt.Close())
	return failed.err
}

// hotStatements boots a throwaway server on a timing store, takes it
// through a bootstrap, a no-change renewal, an upgrade renewal and a
// sweep, and returns the lease statements the store saw, keyed by the
// role they play.
func hotStatements() (map[string]capturedStmt, error) {
	probe := newStoreProbe(&storeSpans{base: time.Now()})
	store := &timedLocal{LocalStore: core.NewLocalStore(sqlmini.NewDB()), p: probe}
	srv, err := core.NewServer("capture", store)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer srv.Stop()
	if _, err := srv.AddDriver(newImage(dbver.V(1, 0, 0), 1<<10), dbver.FormatImage); err != nil {
		return nil, err
	}
	lc, err := core.DialLeaseClient(srv.Addr(), opTimeout)
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	req := baseRequest("capture-client")
	offer, err := lc.Request(req) // grant: INSERT
	if err != nil {
		return nil, err
	}
	req.LeaseID, req.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
	if _, err := lc.Request(req); err != nil { // no-change renewal: guarded UPDATE
		return nil, err
	}
	if _, err := srv.AddDriver(newImage(dbver.V(1, 1, 0), 1<<10), dbver.FormatImage); err != nil {
		return nil, err
	}
	if _, err := lc.Request(req); err != nil { // upgrade renewal: lease SELECT + UPDATE
		return nil, err
	}
	if _, err := srv.ReapExpiredLeases(); err != nil { // sweep: range UPDATE
		return nil, err
	}

	hot := make(map[string]capturedStmt)
	for _, st := range probe.captured() {
		if !strings.Contains(st.sql, core.LeasesTable) || len(st.args) != 1 {
			continue
		}
		args, ok := st.args[0].(sqlmini.Args)
		if !ok {
			continue
		}
		_, byID := args["id"]
		_, byNow := args["now"]
		switch {
		case st.kind == kindUpdate && byID:
			hot["renew_update"] = st
		case st.kind == kindInsert && byID:
			hot["grant_insert"] = st
		case st.kind == kindUpdate && byNow:
			hot["sweep_update"] = st
		case st.kind == kindSelect && byID:
			hot["lease_select"] = st
		}
	}
	for _, role := range []string{"renew_update", "grant_insert", "sweep_update", "lease_select"} {
		if _, ok := hot[role]; !ok {
			return nil, fmt.Errorf("the store never saw a %s statement", role)
		}
	}
	return hot, nil
}

// microSqlmini replays the captured hot statements on a bare engine
// holding the Drivolution schema and a leases table of the workload's
// size: 200 rows on cold_bootstrap, 20 000 on steady_renew, so a
// change that helps one size and hurts the other shows across the
// workloads' reports.
func microSqlmini(res *result, microBudget time.Duration, rows int) error {
	hot, err := hotStatements()
	if err != nil {
		return err
	}
	db := sqlmini.NewDB()
	for _, ddl := range core.SchemaStatements() {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	// As after a real set-up: one driver, every lease its own expiry.
	now := time.Now()
	const batch = 200
	for lo := 0; lo < rows; lo += batch {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO ` + core.LeasesTable + ` (lease_id, driver_id, database,
			user, client_id, granted_at, expires_at, released, renewals) VALUES `)
		args := sqlmini.Args{"g": now}
		for i := lo; i < lo+batch && i < rows; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, 1, 'prod', 'app', 'client-%d', $g, $e%d, FALSE, 0)", i+1, i, i-lo)
			args[fmt.Sprintf("e%d", i-lo)] = now.Add(time.Hour + time.Duration(i)*time.Millisecond)
		}
		if _, err := db.Exec(sb.String(), args); err != nil {
			return err
		}
	}

	// Collect the table build's garbage now: a collection running
	// through a 60 ms replay taxes every allocation in it fivefold.
	runtime.GC()

	next := 0 // replays walk the table, and grant ids continue past it
	replay := func(role string, bind func(a sqlmini.Args)) (float64, int, float64, error) {
		st := hot[role]
		h, err := db.Prepare(st.sql)
		if err != nil {
			return 0, 0, 0, err
		}
		args := sqlmini.Args{}
		for k, v := range st.args[0].(sqlmini.Args) {
			args[k] = v
		}
		var failed firstError
		call := func() {
			bind(args)
			_, err := h.Exec(args)
			failed.note(err)
		}
		// Batches of 20: a statement's cost is heavy-tailed (a grant
		// INSERT at 20 000 rows: p50 45 us, p90 350 us), what a caller
		// pays is the mean, and the median over batch means is steady
		// where the median over calls flips between the two modes.
		us, n := perCallUs(microBudget, 20, call)
		allocs := mallocsPer(500, call)
		return us, n, allocs, failed.err
	}
	existing := func(a sqlmini.Args) {
		next++
		a["id"] = int64(next%rows + 1)
		a["exp"] = now.Add(2*time.Hour + time.Duration(next)*time.Millisecond)
	}
	size := fmt.Sprintf("leases table of %d rows", rows)

	us, n, allocs, err := replay("renew_update", existing)
	if err != nil {
		return fmt.Errorf("replay renew_update: %w", err)
	}
	res.add("sqlmini.renew_update_us", us, "us", n, size)
	res.add("sqlmini.allocs_per_stmt", allocs, "count", 500, "the renewal UPDATE, "+size)

	us, n, _, err = replay("lease_select", func(a sqlmini.Args) { next++; a["id"] = int64(next%rows + 1) })
	if err != nil {
		return fmt.Errorf("replay lease_select: %w", err)
	}
	res.add("sqlmini.lease_select_us", us, "us", n, size)

	// The sweep finds nothing expired: the cost of the range seek.
	us, n, _, err = replay("sweep_update", func(a sqlmini.Args) { a["now"] = now.Add(-time.Hour) })
	if err != nil {
		return fmt.Errorf("replay sweep_update: %w", err)
	}
	res.add("sqlmini.sweep_update_us", us, "us", n, size)

	// Grants last: they grow the table.
	fresh := rows
	us, n, _, err = replay("grant_insert", func(a sqlmini.Args) {
		fresh++
		a["id"] = int64(fresh)
		a["granted"], a["exp"] = now, now.Add(3*time.Hour+time.Duration(fresh)*time.Millisecond)
	})
	if err != nil {
		return fmt.Errorf("replay grant_insert: %w", err)
	}
	res.add("sqlmini.grant_insert_us", us, "us", n, size)
	return nil
}
