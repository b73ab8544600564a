package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// Tests for ConnStore's v2 session capabilities: remote prepared
// handles (Prepare over msgPrepare/msgExecStmt) and wire version probes
// (Versions over msgTableVersions), including the capability fallback
// against v1 peers and the redial/invalidate contract.

// remoteFixture is the Figure 2 shape with a capability-negotiating
// driver: a legacy DBMS holding the schema database, and a ConnStore
// dialing it at the given protocol range.
type remoteFixture struct {
	legacy   *dbms.Server
	legacyDB *sqlmini.DB
	store    *ConnStore
}

func newRemoteFixture(t *testing.T, protoMax uint16, serverOpts ...dbms.ServerOption) *remoteFixture {
	t.Helper()
	legacyDB := sqlmini.NewDB()
	opts := append([]dbms.ServerOption{dbms.WithUser("svc", "pw")}, serverOpts...)
	legacy := dbms.NewServer("legacy-db", opts...)
	legacy.AddDatabase("meta", legacyDB)
	if err := legacy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(legacy.Stop)
	drv := dbms.NewNativeDriver(dbver.V(2, 0, 0), protoMax, dbms.WithProtocolFloor(1))
	addr := legacy.Addr()
	store := NewConnStore(func() (client.Conn, error) {
		return drv.Connect("dbms://"+addr+"/meta", client.Props{"user": "svc", "password": "pw"})
	})
	t.Cleanup(store.Close)
	return &remoteFixture{legacy: legacy, legacyDB: legacyDB, store: store}
}

// TestConnStoreRemotePreparedEquivalence: a ConnStore prepared handle
// returns what ad-hoc Exec returns — results and errors — while the
// remote server parses each statement once per connection, not once
// per call.
func TestConnStoreRemotePreparedEquivalence(t *testing.T) {
	f := newRemoteFixture(t, 2)
	if err := EnsureSchema(f.store); err != nil {
		t.Fatal(err)
	}
	f.legacyDB.MustExec(`CREATE TABLE kv (k INTEGER NOT NULL PRIMARY KEY, v VARCHAR)`)
	f.legacyDB.MustExec(`INSERT INTO kv (k, v) VALUES (1, 'one'), (2, 'two')`)

	st, err := f.store.Prepare(`SELECT v FROM kv WHERE k = $k`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, k := range []int{1, 2, 1, 2} {
		pr, err := st.Exec(sqlmini.Args{"k": k})
		if err != nil {
			t.Fatal(err)
		}
		ar, err := f.store.Exec(`SELECT v FROM kv WHERE k = $k`, sqlmini.Args{"k": k})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Rows[0][0].Str() != ar.Rows[0][0].Str() {
			t.Fatalf("k=%d: prepared %v, ad hoc %v", k, pr.Rows[0][0], ar.Rows[0][0])
		}
	}
	// One connection served everything: one remote parse of the
	// prepared text, four handle executions.
	if got := f.legacy.PreparesServed(); got != 1 {
		t.Fatalf("PreparesServed = %d, want 1 (handle cached per connection)", got)
	}
	if got := f.legacy.StmtExecsServed(); got != 4 {
		t.Fatalf("StmtExecsServed = %d, want 4", got)
	}

	// Error equivalence: statement-level failures surface identically
	// and keep the connection pooled.
	bad, err := f.store.Prepare(`SELECT v FROM nowhere`)
	if err != nil {
		t.Fatal(err)
	}
	_, prepErr := bad.Exec()
	_, adhocErr := f.store.Exec(`SELECT v FROM nowhere`)
	if prepErr == nil || adhocErr == nil || prepErr.Error() != adhocErr.Error() {
		t.Fatalf("error drift: prepared %v, ad hoc %v", prepErr, adhocErr)
	}
}

// TestConnStoreRemotePreparedMutation: mutating statements work through
// remote handles, and the store-level handle survives pool rotation.
func TestConnStoreRemotePreparedMutation(t *testing.T) {
	f := newRemoteFixture(t, 2)
	f.legacyDB.MustExec(`CREATE TABLE n (id INTEGER NOT NULL PRIMARY KEY, c INTEGER)`)
	f.legacyDB.MustExec(`INSERT INTO n (id, c) VALUES (1, 0)`)
	st, err := f.store.Prepare(`UPDATE n SET c = c + 1 WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	res := f.legacyDB.MustExec(`SELECT c FROM n WHERE id = 1`)
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("c = %d, want 5", res.Rows[0][0].Int())
	}
}

// TestConnStoreRemotePreparedRedial: a server bounce kills every
// remote handle; a read-only prepared statement transparently
// re-prepares on the replacement connection and replays.
func TestConnStoreRemotePreparedRedial(t *testing.T) {
	f := newRemoteFixture(t, 2)
	f.legacyDB.MustExec(`CREATE TABLE kv (k INTEGER NOT NULL PRIMARY KEY, v VARCHAR)`)
	f.legacyDB.MustExec(`INSERT INTO kv (k, v) VALUES (1, 'one')`)
	st, err := f.store.Prepare(`SELECT v FROM kv WHERE k = $k`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(sqlmini.Args{"k": 1}); err != nil {
		t.Fatal(err)
	}
	preparesBefore := f.legacy.PreparesServed()

	// Bounce the legacy database: pooled connections and their remote
	// handles are all dead.
	addr := f.legacy.Addr()
	f.legacy.Stop()
	if err := f.legacy.Start(addr); err != nil {
		t.Fatal(err)
	}

	res, err := st.Exec(sqlmini.Args{"k": 1})
	if err != nil {
		t.Fatalf("read-only prepared statement must survive a bounce: %v", err)
	}
	if res.Rows[0][0].Str() != "one" {
		t.Fatalf("row = %v", res.Rows[0][0])
	}
	if got := f.legacy.PreparesServed() - preparesBefore; got != 1 {
		t.Fatalf("replacement connection must re-prepare exactly once, did %d times", got)
	}
	if f.store.Stats().Redials == 0 {
		t.Fatal("the bounce must be visible as a redial in Stats")
	}
}

// TestConnStoreRemotePreparedAmbiguousMutation: a mutating prepared
// statement whose connection dies mid-execution must NOT be replayed —
// the outcome is unknown. Simulated with a conn wrapper that kills the
// connection after the statement may have reached the server.
func TestConnStoreRemotePreparedAmbiguousMutation(t *testing.T) {
	f := newRemoteFixture(t, 2)
	f.legacyDB.MustExec(`CREATE TABLE n (id INTEGER NOT NULL PRIMARY KEY, c INTEGER)`)
	f.legacyDB.MustExec(`INSERT INTO n (id, c) VALUES (1, 0)`)

	// A store whose connections report an ambiguous failure on the
	// first mutating handle execution.
	drv := dbms.NewNativeDriver(dbver.V(2, 0, 0), 2, dbms.WithProtocolFloor(1))
	addr := f.legacy.Addr()
	trip := &tripwire{}
	store := NewConnStore(func() (client.Conn, error) {
		c, err := drv.Connect("dbms://"+addr+"/meta", client.Props{"user": "svc", "password": "pw"})
		if err != nil {
			return nil, err
		}
		return &ambushConn{sessionConn: c.(sessionConn), trip: trip}, nil
	})
	t.Cleanup(store.Close)

	st, err := store.Prepare(`UPDATE n SET c = c + 1 WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil { // warm the handle
		t.Fatal(err)
	}
	trip.armed = true
	_, err = st.Exec()
	if !errors.Is(err, ErrExecOutcomeUnknown) {
		t.Fatalf("ambiguous mutating prepared exec: err = %v, want ErrExecOutcomeUnknown", err)
	}
	// Exactly one application happened before arming; the ambiguous
	// attempt DID reach the server (the wrapper cut the reply path), so
	// the counter shows it — but no replay doubled it.
	res := f.legacyDB.MustExec(`SELECT c FROM n WHERE id = 1`)
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("c = %d: the ambiguous attempt must apply at most once (no replay)", got)
	}
}

// tripwire arms the ambushConn failure injection.
type tripwire struct{ armed bool }

// ambushConn wraps a live driver connection; when armed, handle
// executions pass the statement to the server but report a
// connection-level failure (reply lost), and subsequent pings fail —
// the ambiguous mid-statement death.
type ambushConn struct {
	sessionConn
	trip *tripwire
	dead bool
}

func (a *ambushConn) Prepare(sql string) (client.ConnStmt, error) {
	h, err := a.sessionConn.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &ambushStmt{inner: h, c: a}, nil
}

func (a *ambushConn) Ping() error {
	if a.dead {
		return errors.New("ambush: connection lost")
	}
	return a.sessionConn.Ping()
}

type ambushStmt struct {
	inner client.ConnStmt
	c     *ambushConn
}

func (s *ambushStmt) Exec(args ...any) (*client.Result, error) {
	res, err := s.inner.Exec(args...)
	if s.c.trip.armed {
		s.c.trip.armed = false
		s.c.dead = true
		_ = res
		// The statement reached the server (it executed), but the
		// caller sees a connection death without ErrStatementNotSent.
		return nil, errors.New("ambush: connection reset mid-reply")
	}
	return res, err
}

func (s *ambushStmt) Query(args ...any) (*client.Result, error) { return s.Exec(args...) }
func (s *ambushStmt) Close() error                              { return s.inner.Close() }

// TestConnStoreGenerationProbe: ConnStore reports live table versions
// over the wire, observes writes made by OTHER clients of the legacy
// database (the thing the SQL fallback existed for), and executes zero
// SQL doing it.
func TestConnStoreGenerationProbe(t *testing.T) {
	f := newRemoteFixture(t, 2)
	if err := EnsureSchema(f.store); err != nil {
		t.Fatal(err)
	}
	queriesBefore := f.legacy.QueriesServed()
	d1, p1, ok := f.store.Versions()
	if !ok {
		t.Fatal("v2 sessions must support version probes")
	}
	// A remote peer (here: the embedded handle, standing in for any
	// other client of the legacy DBMS) mutates the drivers table behind
	// the store's back.
	f.legacyDB.MustExec(`INSERT INTO `+DriversTable+
		` (driver_id, api_name, api_version_major, api_version_minor, platform,
		   driver_version_major, driver_version_minor, driver_version_micro,
		   binary_code, binary_format)
		  VALUES (1, 'JDBC', 3, 0, '%', 1, 0, 0, $b, 'image')`,
		sqlmini.Args{"b": []byte("peer-written blob")})
	d2, p2, ok := f.store.Versions()
	if !ok || d2 <= d1 || p2 != p1 {
		t.Fatalf("versions must observe a remote peer's driver write: (%d,%d) then (%d,%d) ok=%v", d1, p1, d2, p2, ok)
	}
	// Lease churn must NOT move the versions (the catalog contract).
	f.legacyDB.MustExec(`INSERT INTO `+LeasesTable+` (lease_id, driver_id, database,
		user, client_id, granted_at, expires_at, released, renewals)
		VALUES (1, 1, 'prod', 'app', 'c', $t, $t, FALSE, 0)`, sqlmini.Args{"t": time.Now()})
	if d3, p3, _ := f.store.Versions(); d3 != d2 || p3 != p2 {
		t.Fatalf("lease churn moved the versions: (%d,%d) then (%d,%d)", d2, p2, d3, p3)
	}
	if got := f.legacy.QueriesServed() - queriesBefore; got != 0 {
		t.Fatalf("version probes executed %d SQL statements, want 0", got)
	}
}

// TestConnStoreGenerationDisabledOnV1: against a v1-only server (the
// paper's legacy database) Versions reports ok == false, so the catalog
// keeps the SQL matchmaking path.
func TestConnStoreGenerationDisabledOnV1(t *testing.T) {
	f := newRemoteFixture(t, 2, dbms.WithProtocolVersion(1))
	if err := EnsureSchema(f.store); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := f.store.Versions(); ok {
			t.Fatal("v1 sessions cannot report table versions")
		}
	}
	// Prepared handles fall back to per-call SQL on the same code path.
	st, err := f.store.Prepare(`SELECT count(*) FROM ` + DriversTable)
	if err != nil {
		t.Fatal(err)
	}
	queriesBefore := f.legacy.QueriesServed()
	for i := 0; i < 3; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.legacy.QueriesServed() - queriesBefore; got != 3 {
		t.Fatalf("fallback handle must run plain SQL per call: %d statements, want 3", got)
	}
	if got := f.legacy.PreparesServed(); got != 0 {
		t.Fatalf("v1 sessions must never see msgPrepare: %d", got)
	}
}

// TestConnStoreGenerationDemotedOnDowngrade: when the legacy DBMS is
// replaced mid-life by a build that no longer speaks the capability,
// the store demotes its version support for good instead of burning a
// failing probe (plus a ping) on every future matchmaking request.
func TestConnStoreGenerationDemotedOnDowngrade(t *testing.T) {
	f := newRemoteFixture(t, 2)
	if err := EnsureSchema(f.store); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.store.Versions(); !ok {
		t.Fatal("v2 fixture must start supported")
	}

	// Replace the server with a v1-only build on the same address.
	addr := f.legacy.Addr()
	f.legacy.Stop()
	downgraded := dbms.NewServer("legacy-db",
		dbms.WithUser("svc", "pw"), dbms.WithProtocolVersion(1))
	downgraded.AddDatabase("meta", f.legacyDB)
	if err := downgraded.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(downgraded.Stop)

	if _, _, ok := f.store.Versions(); ok {
		t.Fatal("a probe against a v1 peer must report ok == false")
	}
	if !f.store.noVersions.Load() {
		t.Fatal("version support must demote after an ErrNotSupported probe")
	}
	// The store itself keeps working over SQL.
	if _, err := f.store.Exec(`SELECT count(*) FROM ` + DriversTable); err != nil {
		t.Fatalf("SQL path after demotion: %v", err)
	}
}

// TestConnStoreStats: the pool health counters move with real traffic.
func TestConnStoreStats(t *testing.T) {
	f := newRemoteFixture(t, 2)
	f.legacyDB.MustExec(`CREATE TABLE s (id INTEGER NOT NULL PRIMARY KEY)`)

	if st := f.store.Stats(); st.Dials != 0 || st.InUse != 0 || st.Idle != 0 {
		t.Fatalf("fresh store stats = %+v", st)
	}
	if _, err := f.store.Exec(`SELECT count(*) FROM s`); err != nil {
		t.Fatal(err)
	}
	st := f.store.Stats()
	if st.Dials != 1 || st.Idle != 1 || st.InUse != 0 {
		t.Fatalf("after one statement: %+v", st)
	}

	h, err := f.store.Prepare(`SELECT count(*) FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Exec(); err != nil {
		t.Fatal(err)
	}
	st = f.store.Stats()
	if st.RemotePrepares != 1 || st.RemoteHandlesLive != 1 {
		t.Fatalf("after one prepared exec: %+v", st)
	}

	// A transaction holds a connection while open.
	tx, err := f.store.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if got := f.store.Stats().InUse; got != 1 {
		t.Fatalf("InUse during tx = %d, want 1", got)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := f.store.Stats().InUse; got != 0 {
		t.Fatalf("InUse after rollback = %d, want 0", got)
	}

	// A bounce retires the pooled connections and their handles.
	addr := f.legacy.Addr()
	f.legacy.Stop()
	if err := f.legacy.Start(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Exec(); err != nil {
		t.Fatal(err)
	}
	st = f.store.Stats()
	if st.Redials == 0 {
		t.Fatalf("bounce must count as redial: %+v", st)
	}
	if st.RemoteHandlesLive != 1 || st.RemotePrepares != 2 {
		t.Fatalf("after bounce + re-prepare: %+v", st)
	}
}

// TestExternalMatchmakingZeroSQL is the acceptance pin: with a v2
// legacy DBMS, steady-state matchmaking on the EXTERNAL deployment
// issues zero SQL statements — the only per-request remote traffic is
// the generation probe. The CountingStore counts statements
// crossing the storage boundary and the legacy server counts what
// reaches it; both must stay flat across matches.
func TestExternalMatchmakingZeroSQL(t *testing.T) {
	f := newRemoteFixture(t, 2)
	cs := NewCountingStore(f.store)
	srv, err := NewServer("external", cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	req := catalogRequest()
	// Warm: first match loads the catalog (SQL) and fixes capability
	// detection.
	if _, perr := srv.match(req); perr != nil {
		t.Fatal(perr)
	}
	cs.Reset()
	queriesBefore := f.legacy.QueriesServed()
	probesBefore := f.legacy.VersionProbesServed()
	const matches = 10
	for i := 0; i < matches; i++ {
		g, perr := srv.match(req)
		if perr != nil {
			t.Fatal(perr)
		}
		if g.driverID == 0 {
			t.Fatal("match must resolve the driver")
		}
	}
	if got := cs.Statements(); got != 0 {
		t.Fatalf("steady-state external matchmaking issued %d SQL statements, want 0", got)
	}
	if got := f.legacy.QueriesServed() - queriesBefore; got != 0 {
		t.Fatalf("%d statements reached the legacy DBMS, want 0", got)
	}
	// The generation probe is the only per-request remote traffic.
	if got := f.legacy.VersionProbesServed() - probesBefore; got != matches {
		t.Fatalf("version probes = %d, want %d (one per match)", got, matches)
	}

	// An admin mutation through the store is visible to the very next
	// match — the generation probe catches it without SQL polling.
	if _, err := srv.AddDriver(catalogImage(dbver.V(2, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	g, perr := srv.match(req)
	if perr != nil {
		t.Fatal(perr)
	}
	if g.driverID != 2 {
		t.Fatalf("matched driver %d after upgrade, want 2", g.driverID)
	}
}

// TestExternalRenewalStatementBudget: on the external deployment a
// no-change renewal is one statement — the guarded UPDATE through a
// remote prepared handle — and nothing else reaches the legacy DBMS:
// no generation probe, because the UPDATE's reply carries the table
// versions the catalog is checked against.
func TestExternalRenewalStatementBudget(t *testing.T) {
	f := newRemoteFixture(t, 2)
	cs := NewCountingStore(f.store)
	srv, err := NewServer("external", cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	offer, perr := srv.grant(catalogRequest(), false)
	if perr != nil {
		t.Fatal(perr)
	}
	renew := catalogRequest()
	renew.LeaseID = offer.LeaseID
	renew.CurrentChecksum = offer.DriverChecksum
	if _, perr := srv.grant(renew, false); perr != nil { // warm handles
		t.Fatal(perr)
	}
	cs.Reset()
	queriesBefore := f.legacy.QueriesServed()
	probesBefore := f.legacy.VersionProbesServed()
	preparesBefore := f.legacy.PreparesServed()
	const renewals = 5
	for i := 0; i < renewals; i++ {
		if _, perr := srv.grant(renew, false); perr != nil {
			t.Fatal(perr)
		}
	}
	if got := cs.Statements(); got != renewals {
		t.Fatalf("%d renewals issued %d statements, want exactly %d (1 each)", renewals, got, renewals)
	}
	if got := f.legacy.QueriesServed() - queriesBefore; got != renewals {
		t.Fatalf("%d statements reached the legacy DBMS, want %d", got, renewals)
	}
	if got := f.legacy.VersionProbesServed() - probesBefore; got != 0 {
		t.Fatalf("%d renewals made %d version probes, want 0", renewals, got)
	}
	// Statements, probes and prepares are every frame a ConnStore sends
	// here, so each renewal was one DBMS frame.
	if got := f.legacy.PreparesServed() - preparesBefore; got != 0 {
		t.Fatalf("%d renewals prepared %d statements, want 0", renewals, got)
	}
}

// TestExternalGrantRoundTrips: over a watched v2 session, a REQUEST that
// touches its lease row reaches the legacy DBMS with its statements
// only, because the first one's reply carries the versions its catalog
// is checked against. A bootstrap is 1 statement (the lease INSERT), an
// upgrade renewal 2 (the lease SELECT and the guarded UPDATE), and
// neither probes. DISCOVER writes nothing, so it still validates its
// catalog first: 0 statements and 1 probe.
func TestExternalGrantRoundTrips(t *testing.T) {
	f := newRemoteFixture(t, 2)
	cs := NewCountingStore(f.store)
	srv, err := NewServer("external", cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	offer, perr := srv.grant(catalogRequest(), false) // warm the catalog, ids and handles
	if perr != nil {
		t.Fatal(perr)
	}
	upgrade := catalogRequest()
	upgrade.LeaseID, upgrade.CurrentChecksum = offer.LeaseID, "an older driver"
	ops := []struct {
		name          string
		op            func() *ProtocolError
		stmts, probes int64
	}{
		{"bootstrap", func() *ProtocolError {
			o, perr := srv.grant(catalogRequest(), false)
			if perr == nil && (o.LeaseID == 0 || !o.HasDriver) {
				t.Fatalf("bootstrap offered %+v", o)
			}
			return perr
		}, 1, 0},
		{"upgrade renewal", func() *ProtocolError {
			o, perr := srv.grant(upgrade, false)
			if perr == nil && !o.HasDriver {
				t.Fatalf("upgrade renewal offered %+v", o)
			}
			return perr
		}, 2, 0},
		{"discover", func() *ProtocolError {
			_, perr := srv.match(catalogRequest())
			return perr
		}, 0, 1},
	}
	for _, tc := range ops {
		if perr := tc.op(); perr != nil { // warm this operation's handles
			t.Fatal(perr)
		}
		cs.Reset()
		queries, probes := f.legacy.QueriesServed(), f.legacy.VersionProbesServed()
		const n = 5
		for i := 0; i < n; i++ {
			if perr := tc.op(); perr != nil {
				t.Fatalf("%s %d: %v", tc.name, i, perr)
			}
		}
		if got := cs.Statements(); got != n*tc.stmts {
			t.Fatalf("%d of %s issued %d statements, want %d", n, tc.name, got, n*tc.stmts)
		}
		q, p := f.legacy.QueriesServed()-queries, f.legacy.VersionProbesServed()-probes
		if q != n*tc.stmts || p != n*tc.probes {
			t.Fatalf("%d of %s: the legacy DBMS served %d statements and %d probes, want %d and %d",
				n, tc.name, q, p, n*tc.stmts, n*tc.probes)
		}
	}
	if n := srv.Counters().Redos; n != 0 {
		t.Fatalf("a steady catalog redid %d answers, want 0", n)
	}
}
