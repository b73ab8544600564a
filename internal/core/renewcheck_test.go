package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
)

// Tests for the renewal that checks its catalog after it writes: a
// no-change renewal answers from the cached catalog, runs its guarded
// UPDATE, and keeps the answer only if the table versions read right
// after that UPDATE still equal the catalog's labels.

// proxiedStore is a ConnStore to the fixture's legacy DBMS through a
// faultnet.Proxy, which counts the frames each renewal costs.
func proxiedStore(t *testing.T, f *remoteFixture) (*ConnStore, *faultnet.Proxy) {
	t.Helper()
	p, err := faultnet.NewProxy(f.legacy.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	drv := dbms.NewNativeDriver(dbver.V(2, 0, 0), 2, dbms.WithProtocolFloor(1))
	store := NewConnStore(func() (client.Conn, error) {
		return drv.Connect("dbms://"+p.Addr()+"/meta", client.Props{"user": "svc", "password": "pw"})
	})
	t.Cleanup(store.Close)
	return store, p
}

// TestExternalNoChangeRenewalIsOneRoundTrip: over a watched ConnStore a
// no-change renewal is one frame to the DBMS and one back — the UPDATE
// and its reply, which carries the versions the catalog is checked
// against, and which never sends the renewal to a redo. A connection
// cut right after that UPDATE frame leaves its outcome unknown: the
// renewal reports so and never answers "keep".
func TestExternalNoChangeRenewalIsOneRoundTrip(t *testing.T) {
	f := newRemoteFixture(t, 2)
	store, p := proxiedStore(t, f)
	srv, err := NewServer("external", store)
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
	renew.LeaseID, renew.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
	if _, perr := srv.grant(renew, false); perr != nil { // warm handles and catalog
		t.Fatal(perr)
	}
	up, down := p.Frames(faultnet.Up), p.Frames(faultnet.Down)
	const renewals = 5
	for i := 0; i < renewals; i++ {
		o, perr := srv.grant(renew, false)
		if perr != nil || o.HasDriver {
			t.Fatalf("renewal %d: %+v, %v", i, o, perr)
		}
	}
	if n := p.Frames(faultnet.Up) - up; n != renewals {
		t.Fatalf("%d no-change renewals sent %d frames to the DBMS, want %d", renewals, n, renewals)
	}
	if n := p.Frames(faultnet.Down) - down; n != renewals {
		t.Fatalf("%d no-change renewals got %d frames back, want %d", renewals, n, renewals)
	}
	if n := srv.Counters().Redos; n != 0 {
		t.Fatalf("steady no-change renewals redid %d answers, want 0", n)
	}

	// A fresh connection sends hello, watch, prepare and the UPDATE: cut
	// it on the boundary right after the UPDATE.
	p.SetPlanner(func(int, *rand.Rand) faultnet.Plan {
		return faultnet.Plan{Up: faultnet.Faults{CutAfterFrames: 4}}
	})
	store.flushIdle()
	keepsBefore := srv.Counters().RenewKeeps
	o, perr := srv.grant(renew, false)
	if perr == nil {
		t.Fatalf("a renewal whose UPDATE reply was lost answered %+v", o)
	}
	if perr.Code != ErrCodeInternal || !strings.Contains(perr.Message, ErrExecOutcomeUnknown.Error()) {
		t.Fatalf("a renewal whose UPDATE reply was lost answered %v, want %v", perr, ErrExecOutcomeUnknown)
	}
	if got := srv.Counters().RenewKeeps - keepsBefore; got != 0 {
		t.Fatalf("the lost renewal counted %d keeps, want 0", got)
	}
}

// unwatchedConn is a v2 driver connection whose session cannot carry a
// version watch: WatchVersions answers client.ErrNotSupported, as a
// session that did not negotiate the capability does.
type unwatchedConn struct{ sessionConn }

func (unwatchedConn) WatchVersions(...string) ([]uint64, error) {
	return nil, client.ErrNotSupported
}

// TestExternalRenewalUnwatchedProbesAfter: over connections that carry
// no version watch, a no-change renewal still answers from its catalog,
// checked by one probe after the UPDATE — the two round trips a
// renewal cost before the watch, in the other order.
func TestExternalRenewalUnwatchedProbesAfter(t *testing.T) {
	f := newRemoteFixture(t, 2)
	drv := dbms.NewNativeDriver(dbver.V(2, 0, 0), 2)
	store := NewConnStore(func() (client.Conn, error) {
		c, err := drv.Connect("dbms://"+f.legacy.Addr()+"/meta", client.Props{"user": "svc", "password": "pw"})
		if err != nil {
			return nil, err
		}
		return unwatchedConn{c.(sessionConn)}, nil
	})
	t.Cleanup(store.Close)
	srv, err := NewServer("external", store)
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
	renew.LeaseID, renew.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
	if _, perr := srv.grant(renew, false); perr != nil {
		t.Fatal(perr)
	}
	queries, probes := f.legacy.QueriesServed(), f.legacy.VersionProbesServed()
	const renewals = 5
	for i := 0; i < renewals; i++ {
		if o, perr := srv.grant(renew, false); perr != nil || o.HasDriver {
			t.Fatalf("renewal %d: %+v, %v", i, o, perr)
		}
	}
	if q, p := f.legacy.QueriesServed()-queries, f.legacy.VersionProbesServed()-probes; q != renewals || p != renewals {
		t.Fatalf("%d unwatched renewals: %d statements and %d probes, want %d of each", renewals, q, p, renewals)
	}
}

// staleWorld is one deployment for TestStaleCatalogRenewal: a store
// (local, or a ConnStore over a watched session), a started server with
// a bootstrapped and once-renewed lease, and a second writer — another
// server over the same store, whose admin writes the first learns of
// only through the table versions. A license world's servers run in
// license mode over two drivers, and its lease holds the newer one.
type staleWorld struct {
	db      *sqlmini.DB
	store   Store
	license bool
	srv     *Server
	writer  *Server
	req     Request // the lease's renewal request
	now     time.Time
}

func newStaleWorld(t *testing.T, kind string, license bool) *staleWorld {
	t.Helper()
	w := &staleWorld{now: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC), license: license}
	clock := func() time.Time { return w.now }
	w.db = sqlmini.NewDB()
	w.store = NewLocalStore(w.db)
	if kind == "conn" {
		legacy := dbms.NewServer("legacy-db", dbms.WithUser("svc", "pw"))
		legacy.AddDatabase("meta", w.db)
		if err := legacy.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(legacy.Stop)
		drv := dbms.NewNativeDriver(dbver.V(2, 0, 0), 2)
		cs := NewConnStore(func() (client.Conn, error) {
			return drv.Connect("dbms://"+legacy.Addr()+"/meta", client.Props{"user": "svc", "password": "pw"})
		})
		t.Cleanup(cs.Close)
		w.store = cs
	}
	w.srv = w.server(t)
	var err error
	if w.writer, err = NewServer("stale", w.store, WithClock(clock)); err != nil {
		t.Fatal(err)
	}
	versions := []dbver.Version{dbver.V(1, 0, 0)}
	if license {
		versions = append(versions, dbver.V(1, 5, 0))
	}
	for _, v := range versions {
		if _, err := w.srv.AddDriver(catalogImage(v), dbver.FormatImage); err != nil {
			t.Fatal(err)
		}
	}
	lc := w.client(t, w.srv)
	w.req = catalogRequest()
	offer, err := lc.Request(w.req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.FetchFile(offer.LeaseID); err != nil {
		t.Fatal(err)
	}
	w.req.LeaseID, w.req.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
	w.now = w.now.Add(time.Second)
	if _, err := lc.Request(w.req); err != nil { // the catalog is cached and current
		t.Fatal(err)
	}
	w.now = w.now.Add(time.Second)
	return w
}

// server starts a server named "stale" over the world's store.
func (w *staleWorld) server(t *testing.T) *Server {
	t.Helper()
	opts := []ServerOption{WithClock(func() time.Time { return w.now }), WithDefaultLease(time.Minute)}
	if w.license {
		opts = append(opts, WithLicenseMode())
	}
	srv, err := NewServer("stale", w.store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

func (w *staleWorld) client(t *testing.T, srv *Server) *LeaseClient {
	t.Helper()
	lc, err := DialLeaseClient(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// outcome is one REQUEST's whole observable outcome.
type outcome struct {
	offer    Offer
	code     ErrorCode // 0 for an OFFER
	fetched  int       // bytes of FILE_DATA the offer's transfer carried
	pushed   bool      // that FILE_DATA came behind the OFFER, unasked
	row      string    // the request's lease row afterwards (none for a bootstrap)
	live     string    // every live lease row afterwards
	inUse    int       // LicensesInUse afterwards
	counters ServerCounters
}

// do sends req to srv over the wire, fetching any driver it offers.
func (w *staleWorld) do(t *testing.T, srv *Server, req Request) outcome {
	t.Helper()
	lc := w.client(t, srv)
	before := srv.Counters()
	var r outcome
	offer, err := lc.Request(req)
	switch pe := err.(type) {
	case nil:
		r.offer = offer
		if offer.HasDriver {
			r.pushed = lc.pushed != nil
			if r.fetched, err = lc.FetchFile(offer.LeaseID); err != nil {
				t.Fatal(err)
			}
		}
	case *ProtocolError:
		r.code = pe.Code
	default:
		t.Fatal(err)
	}
	const cols = `SELECT lease_id, driver_id, client_id, granted_at, expires_at, released, renewals FROM ` + LeasesTable
	r.row = fmt.Sprint(w.db.MustExec(cols+` WHERE lease_id = $id`, sqlmini.Args{"id": int64(req.LeaseID)}).Rows)
	r.live = fmt.Sprint(w.db.MustExec(cols + ` WHERE released = FALSE ORDER BY lease_id`).Rows)
	if r.inUse, err = srv.LicensesInUse(); err != nil {
		t.Fatal(err)
	}
	after := srv.Counters()
	r.counters = ServerCounters{
		Requests: after.Requests - before.Requests, Offers: after.Offers - before.Offers,
		ErrorsSent: after.ErrorsSent - before.ErrorsSent, Transfers: after.Transfers - before.Transfers,
		BytesOut: after.BytesOut - before.BytesOut, Notifies: after.Notifies - before.Notifies,
		LeasesGranted: after.LeasesGranted - before.LeasesGranted, RenewKeeps: after.RenewKeeps - before.RenewKeeps,
		RenewUpgrades: after.RenewUpgrades - before.RenewUpgrades, Redos: after.Redos - before.Redos,
		Redirects: after.Redirects - before.Redirects,
	}
	return r
}

// Outcome predicates for TestStaleCatalogRenewal's cases. An upgrade's
// FILE_DATA must arrive pushed behind its OFFER, a bootstrap's only
// when asked for with FILE_REQUEST.
func kept(lease time.Duration) func(outcome) bool {
	return func(r outcome) bool {
		return r.code == 0 && !r.offer.HasDriver && r.offer.LeaseTime == lease && r.counters.RenewKeeps == 1
	}
}

func upgraded(lease time.Duration) func(outcome) bool {
	return func(r outcome) bool {
		return r.code == 0 && r.offer.HasDriver && r.offer.LeaseTime == lease && r.pushed &&
			r.fetched > 0 && r.fetched == int(r.offer.Size) && r.counters.RenewUpgrades == 1
	}
}

func granted(lease time.Duration, inUse int) func(outcome) bool {
	return func(r outcome) bool {
		return r.code == 0 && r.offer.HasDriver && r.offer.LeaseTime == lease && !r.pushed &&
			r.fetched > 0 && r.counters.LeasesGranted == 1 && r.inUse == inUse
	}
}

func revoked(r outcome) bool { return r.code == ErrCodeRevoked && strings.Contains(r.row, "TRUE") }

func refused(code ErrorCode, inUse int) func(outcome) bool {
	return func(r outcome) bool { return r.code == code && r.counters.LeasesGranted == 0 && r.inUse == inUse }
}

// TestStaleCatalogRenewal: a second writer changes the catalog, so the
// server under test acts on a stale cached catalog, finds the versions
// moved after its first statement, and answers again from the fresh
// one — one redo. That holds for each REQUEST that touches a lease row:
// a no-change renewal (its guarded UPDATE first), a bootstrap (its
// INSERT first) and an upgrade renewal, here of a client that runs an
// older driver (its lease SELECT first). The answer, the request's
// lease row (renewals included), the live lease rows, the licenses in
// use and every other server counter must equal those of a fresh server
// — one with no cached catalog, and no redo — answering the same
// request in an identical world. In the license worlds the stale
// bootstrap match is the older driver, the only free one; deleting it
// leaves the new client no driver, and the cap must hold.
func TestStaleCatalogRenewal(t *testing.T) {
	type checks struct{ renewal, bootstrap, upgrade func(outcome) bool }
	cases := []struct {
		name    string
		license bool
		change  func(w *staleWorld) error
		want    checks
	}{
		{"newer driver", false, func(w *staleWorld) error {
			_, err := w.writer.AddDriver(catalogImage(dbver.V(2, 0, 0)), dbver.FormatImage)
			return err
		}, checks{upgraded(time.Minute), granted(time.Minute, 2), upgraded(time.Minute)}},
		{"permission revoke", false, func(w *staleWorld) error {
			_, err := w.writer.SetPermission(Permission{DriverID: 1,
				RenewPolicy: RenewRevoke, ExpirationPolicy: AfterCommit, TransferMethod: TransferAny})
			return err
		}, checks{revoked, granted(time.Minute, 2), revoked}},
		{"driver deleted", false, func(w *staleWorld) error {
			return w.writer.DeleteDriver(1)
		}, checks{revoked, refused(ErrCodeNoDriver, 1), revoked}},
		{"lease time", false, func(w *staleWorld) error {
			_, err := w.writer.SetPermission(Permission{DriverID: 1, LeaseTime: 9 * time.Second,
				RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit, TransferMethod: TransferAny})
			return err
		}, checks{kept(9 * time.Second), granted(9*time.Second, 2), upgraded(9 * time.Second)}},
		{"unrelated permission", false, func(w *staleWorld) error {
			_, err := w.writer.SetPermission(Permission{DriverID: 1, User: "ops", LeaseTime: 9 * time.Second,
				RenewPolicy: RenewRevoke, ExpirationPolicy: AfterCommit, TransferMethod: TransferAny})
			return err
		}, checks{kept(time.Minute), granted(time.Minute, 2), upgraded(time.Minute)}},
		{"license driver deleted", true, func(w *staleWorld) error {
			return w.writer.DeleteDriver(1)
		}, checks{kept(time.Minute), refused(ErrCodeNoDriver, 1), upgraded(time.Minute)}},
		{"license unrelated permission", true, func(w *staleWorld) error {
			_, err := w.writer.SetPermission(Permission{DriverID: 1, User: "ops",
				RenewPolicy: RenewRevoke, ExpirationPolicy: AfterCommit, TransferMethod: TransferAny})
			return err
		}, checks{kept(time.Minute), granted(time.Minute, 2), upgraded(time.Minute)}},
	}
	for _, kind := range []string{"local", "conn"} {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				ops := []struct {
					name  string
					req   func(w *staleWorld) Request
					check func(outcome) bool
				}{
					{"renewal", func(w *staleWorld) Request { return w.req }, tc.want.renewal},
					{"bootstrap", func(*staleWorld) Request {
						req := catalogRequest()
						req.ClientID = "second-client"
						return req
					}, tc.want.bootstrap},
					{"upgrade", func(w *staleWorld) Request {
						req := w.req
						req.CurrentChecksum = "an older driver"
						return req
					}, tc.want.upgrade},
				}
				for _, op := range ops {
					t.Run(op.name, func(t *testing.T) {
						stale, ref := newStaleWorld(t, kind, tc.license), newStaleWorld(t, kind, tc.license)
						for _, w := range []*staleWorld{stale, ref} {
							if err := tc.change(w); err != nil {
								t.Fatal(err)
							}
						}
						got := stale.do(t, stale.srv, op.req(stale))
						want := ref.do(t, ref.server(t), op.req(ref))
						if got.counters.Redos != 1 || want.counters.Redos != 0 {
							t.Fatalf("redos: %d from the stale catalog, %d from a fresh server; want 1 and 0",
								got.counters.Redos, want.counters.Redos)
						}
						got.counters.Redos = 0
						if got != want {
							t.Fatalf("%s from a stale catalog:\n got  %+v\n want %+v (a fresh server)", op.name, got, want)
						}
						if !op.check(got) {
							t.Fatalf("unexpected outcome %+v", got)
						}
					})
				}
			})
		}
	}
}

// stmtLog is a LocalStore that counts executions of each prepared text.
type stmtLog struct {
	*LocalStore
	mu   sync.Mutex
	runs map[string]int
}

func (l *stmtLog) Prepare(sql string) (Stmt, error) {
	h, err := l.LocalStore.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return loggedStmt{Stmt: h, l: l, sql: sql}, nil
}

type loggedStmt struct {
	Stmt
	l   *stmtLog
	sql string
}

func (s loggedStmt) Exec(args ...any) (*sqlmini.Result, error) {
	s.l.mu.Lock()
	s.l.runs[s.sql]++
	s.l.mu.Unlock()
	return s.Stmt.Exec(args...)
}

// TestOwnAdminWriteValidatesFirst: a server's own admin write marks its
// catalog stale, so the renewal right after it validates the catalog
// before answering — one guarded UPDATE, no speculative keep to redo.
func TestOwnAdminWriteValidatesFirst(t *testing.T) {
	st := &stmtLog{LocalStore: NewLocalStore(sqlmini.NewDB()), runs: map[string]int{}}
	srv, err := NewServer("own-writes", st)
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
	renew.LeaseID, renew.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
	if _, perr := srv.grant(renew, false); perr != nil { // the catalog is cached
		t.Fatal(perr)
	}
	if _, err := srv.AddDriver(catalogImage(dbver.V(2, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	st.runs = map[string]int{}
	if o, perr := srv.grant(renew, false); perr != nil || !o.HasDriver {
		t.Fatalf("renewal after the server's own AddDriver: %+v, %v; want an upgrade", o, perr)
	}
	if st.runs[renewNoChangeSQL] != 1 || st.runs[renewRedoSQL] != 0 {
		t.Fatalf("the upgrade renewal ran the renewal UPDATE %d times and its redo %d times, want 1 and 0",
			st.runs[renewNoChangeSQL], st.runs[renewRedoSQL])
	}
}

// TestConnStoreRenewalAllocs pins what one renewal statement costs the
// whole process over a ConnStore on a watched v2 session: the driver
// encoding sqlmini.Args straight into a pooled encoder, the DBMS
// binding the frame's values into the handle's slots and running the
// UPDATE (TestRenewalStatementAllocs' four), its reply built in a pooled
// encoder with the watch's versions read into session scratch, and the
// reply decoded once into the Result handed back, versions included.
// The six are the engine's four, Stmt.Exec's argument slice and that
// one Result. (The arguments are built before counting starts. The
// count was 26 when the hop decoded arguments into a map, re-boxed them
// for the engine, and copied each reply into a second and a third
// result, and 7 while the lease log kept a second expires_at index.)
func TestConnStoreRenewalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random quarter of sync.Pool puts, so pooled encoders allocate at random")
	}
	const pinned = 6
	f := newRemoteFixture(t, 2)
	if err := EnsureSchema(f.store); err != nil {
		t.Fatal(err)
	}
	const leases = 1000
	now := time.Now()
	var sb strings.Builder
	sb.WriteString(`INSERT INTO ` + LeasesTable + ` (lease_id, driver_id, database,
		user, client_id, granted_at, expires_at, released, renewals) VALUES `)
	args := sqlmini.Args{"g": now}
	for i := 0; i < leases; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, 1, 'prod', 'app', 'c%d', $g, $e%d, FALSE, 0)", i+1, i, i)
		args[fmt.Sprintf("e%d", i)] = now.Add(time.Hour + time.Duration(i)*time.Millisecond)
	}
	f.legacyDB.MustExec(sb.String(), args)
	renew, err := f.store.Prepare(renewNoChangeSQL)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	bound := make([]sqlmini.Args, runs+2) // one warm-up call here, one in AllocsPerRun
	for i := range bound {
		bound[i] = sqlmini.Args{"id": int64(i%leases + 1), "drv": int64(1),
			"exp": now.Add(2*time.Hour + time.Duration(i)*time.Millisecond)}
	}
	next := 0
	exec := func() {
		res, err := renew.Exec(bound[next])
		if err != nil || res.Affected != 1 || len(res.Versions) != 2 {
			t.Fatalf("renewal %d: %+v, %v; want one row and the watched pair", next, res, err)
		}
		next++
	}
	exec() // dial, watch, prepare
	got := testing.AllocsPerRun(runs, exec)
	t.Logf("a ConnStore renewal statement allocates %v times", got)
	if got > pinned {
		t.Fatalf("a ConnStore renewal statement allocates %v times, pinned at %d", got, pinned)
	}
}
