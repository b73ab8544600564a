package core

import (
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// The statement-budget pins: the round-trip-counting store wrapper
// asserts exactly how many statements each hot path is allowed to
// issue, so a regression that quietly re-introduces per-row SQL (the
// reap's old N+1 confirmation loop) fails here rather than in a
// benchmark graph.

func pinFixture(t *testing.T) (*Server, *CountingStore, *sqlmini.DB) {
	t.Helper()
	db := sqlmini.NewDB()
	cs := NewCountingStore(NewLocalStore(db))
	now := time.Unix(50_000, 0).UTC()
	srv, err := NewServer("pin", cs, WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	return srv, cs, db
}

// TestRenewalStatementBudget: a no-change renewal on a catalog-capable
// store is exactly ONE statement — the guarded UPDATE.
func TestRenewalStatementBudget(t *testing.T) {
	srv, cs, _ := pinFixture(t)
	offer, perr := srv.grant(catalogRequest(), false)
	if perr != nil {
		t.Fatal(perr)
	}
	renew := catalogRequest()
	renew.LeaseID = offer.LeaseID
	renew.CurrentChecksum = offer.DriverChecksum
	// Warm the catalog + prepared handles, then measure.
	if _, perr := srv.grant(renew, false); perr != nil {
		t.Fatal(perr)
	}
	cs.Reset()
	for i := 0; i < 5; i++ {
		if _, perr := srv.grant(renew, false); perr != nil {
			t.Fatal(perr)
		}
	}
	if got := cs.Statements(); got != 5 {
		t.Fatalf("5 no-change renewals issued %d statements, want exactly 5 (1 each)", got)
	}
}

// TestReapStatementBudget: the expiry sweep is exactly TWO statements
// in ONE round trip (the sweep UPDATE and the retention DELETE, one
// batch — staged-blob reclamation is in-memory), no matter how many
// leases exist or expire.
func TestReapStatementBudget(t *testing.T) {
	for _, leases := range []int{0, 1, 500} {
		srv, cs, db := pinFixture(t)
		now := srv.clock()
		for i := 0; i < leases; i++ {
			db.MustExec(`INSERT INTO `+LeasesTable+` (lease_id, driver_id, database,
				user, client_id, granted_at, expires_at, released, renewals)
				VALUES ($id, 1, 'prod', 'app', 'c', $g, $e, FALSE, 0)`,
				sqlmini.Args{"id": int64(1000 + i), "g": now.Add(-2 * time.Hour),
					"e": now.Add(-time.Hour)})
		}
		cs.Reset()
		n, err := srv.ReapExpiredLeases()
		if err != nil {
			t.Fatal(err)
		}
		if n != leases {
			t.Fatalf("swept %d of %d", n, leases)
		}
		if got := cs.Statements(); got != 2 {
			t.Fatalf("reap at %d leases issued %d statements, want exactly 2", leases, got)
		}
		if got := cs.RoundTrips(); got != 1 {
			t.Fatalf("reap at %d leases cost %d round trips, want 1", leases, got)
		}
	}
}

// TestReapDropsOnlyDeadPending: the collapsed sweep must keep the
// staged blob of a lease that renewed (future expiry) and drop blobs
// of swept leases — the race the old per-id confirmation loop guarded.
func TestReapDropsOnlyDeadPending(t *testing.T) {
	srv, _, db := pinFixture(t)
	now := srv.clock()
	// Lease 1: expired, staged → must be dropped. Lease 2: live with a
	// staged transfer (mid-bootstrap) → must be kept.
	for i, exp := range []time.Time{now.Add(-time.Minute), now.Add(time.Hour)} {
		db.MustExec(`INSERT INTO `+LeasesTable+` (lease_id, driver_id, database,
			user, client_id, granted_at, expires_at, released, renewals)
			VALUES ($id, 1, 'prod', 'app', 'c', $g, $e, FALSE, 0)`,
			sqlmini.Args{"id": int64(i + 1), "g": now.Add(-2 * time.Hour), "e": exp})
		srv.stageTransfer(uint64(i+1), []byte{byte(i)}, exp)
	}
	if n, err := srv.ReapExpiredLeases(); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	srv.pendingMu.Lock()
	_, deadKept := srv.pending[1]
	_, liveKept := srv.pending[2]
	srv.pendingMu.Unlock()
	if deadKept {
		t.Fatal("swept lease's staged blob must be dropped")
	}
	if !liveKept {
		t.Fatal("live lease's staged blob must survive the sweep")
	}
}

// TestTransferStatementBudget: the grants that stage a transfer take
// the blob from the catalog entry, not from the store. A bootstrap is
// exactly ONE statement (the lease INSERT); an upgrade renewal is TWO
// (the lease SELECT and the guarded UPDATE); neither reads the drivers
// table, whose binary_code column is the image.
func TestTransferStatementBudget(t *testing.T) {
	reads := &countingStore{LocalStore: NewLocalStore(sqlmini.NewDB())}
	cs := NewCountingStore(reads)
	srv, err := NewServer("pin", cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	staged := func(leaseID uint64) []byte {
		srv.pendingMu.Lock()
		defer srv.pendingMu.Unlock()
		return srv.pending[leaseID].blob
	}
	// Warm the catalog, the id allocators and the prepared handles.
	if _, perr := srv.grant(catalogRequest(), false); perr != nil {
		t.Fatal(perr)
	}

	cs.Reset()
	reads.schemaReads.Store(0)
	offer, perr := srv.grant(catalogRequest(), false)
	if perr != nil {
		t.Fatal(perr)
	}
	if got, sel := cs.Statements(), reads.schemaReads.Load(); got != 1 || sel != 0 {
		t.Fatalf("bootstrap issued %d statements, %d of them reads of the drivers table; want 1 and 0", got, sel)
	}
	if uint32(len(staged(offer.LeaseID))) != offer.Size || offer.Size == 0 {
		t.Fatalf("bootstrap staged %d bytes for an offer of %d", len(staged(offer.LeaseID)), offer.Size)
	}

	if _, err := srv.AddDriver(catalogImage(dbver.V(2, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	// The catalog reload AddDriver scheduled is the admin operation's
	// cost, paid once by whoever matches next — not the renewal's.
	if _, perr := srv.match(catalogRequest()); perr != nil {
		t.Fatal(perr)
	}
	renew := catalogRequest()
	renew.LeaseID, renew.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
	cs.Reset()
	reads.schemaReads.Store(0)
	up, perr := srv.grant(renew, false)
	if perr != nil {
		t.Fatal(perr)
	}
	if !up.HasDriver || up.DriverChecksum == offer.DriverChecksum {
		t.Fatalf("renewal after AddDriver offered no upgrade: %+v", up)
	}
	if got, sel := cs.Statements(), reads.schemaReads.Load(); got != 2 || sel != 0 {
		t.Fatalf("upgrade renewal issued %d statements, %d of them reads of the drivers table; want 2 and 0", got, sel)
	}
	if sum, err := driverimg.EncodedChecksum(staged(up.LeaseID)); err != nil || sum != up.DriverChecksum {
		t.Fatalf("upgrade staged a blob with checksum %q (err %v), offered %q", sum, err, up.DriverChecksum)
	}
}

// TestVersionBlindStatementBudget: over a store that cannot report
// table versions, the server matches every request with the paper's
// Sample code 1/2 SQL. Each request costs exactly what that SQL needs:
// the permission SELECT (Sample code 2), one driver SELECT per
// permission row tried, the preference SELECT (Sample code 1), the
// fallback SELECT only when the preference SELECT returned no row, one
// lease-free SELECT per license-mode candidate, and the lease write.
func TestVersionBlindStatementBudget(t *testing.T) {
	fixture := func(t *testing.T, opts ...ServerOption) (*Server, *CountingStore, int64) {
		t.Helper()
		cs := NewCountingStore(versionBlind{NewLocalStore(sqlmini.NewDB())})
		now := time.Unix(50_000, 0).UTC()
		srv, err := NewServer("pin", cs, append(opts, WithClock(func() time.Time { return now }))...)
		if err != nil {
			t.Fatal(err)
		}
		id, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
		if err != nil {
			t.Fatal(err)
		}
		return srv, cs, id
	}
	anyVersion := catalogRequest()
	anyVersion.PreferredVersion = dbver.Unspecified
	noVersion := catalogRequest()
	noVersion.PreferredVersion = dbver.V(9, -1, -1) // no driver: the fallback runs
	// cost runs op after a warm-up bootstrap (the id allocators and the
	// prepared handles) and returns the statements op alone issued.
	cost := func(t *testing.T, srv *Server, cs *CountingStore, op func() *ProtocolError) int64 {
		t.Helper()
		if _, perr := srv.grant(anyVersion, false); perr != nil {
			t.Fatal(perr)
		}
		cs.Reset()
		if perr := op(); perr != nil {
			t.Fatal(perr)
		}
		return cs.Statements()
	}
	bootstrap := func(srv *Server, req Request) func() *ProtocolError {
		return func() *ProtocolError { _, perr := srv.grant(req, false); return perr }
	}

	t.Run("permission", func(t *testing.T) {
		srv, cs, id := fixture(t)
		odbc := catalogImage(dbver.V(2, 0, 0))
		odbc.Manifest.API = dbver.APIOf("ODBC", 3, 0)
		odbcID, err := srv.AddDriver(odbc, dbver.FormatImage)
		if err != nil {
			t.Fatal(err)
		}
		// Tried newest first: a REVOKE row a new client skips, a row
		// whose driver does not suit the client, then the grant.
		for _, p := range []Permission{
			{DriverID: id, RenewPolicy: RenewKeep},
			{DriverID: odbcID, RenewPolicy: RenewUpgrade},
			{DriverID: id, RenewPolicy: RenewRevoke},
		} {
			if _, err := srv.SetPermission(p); err != nil {
				t.Fatal(err)
			}
		}
		var g Offer
		got := cost(t, srv, cs, func() (perr *ProtocolError) {
			g, perr = srv.grant(catalogRequest(), false)
			return perr
		})
		if g.RenewPolicy != RenewKeep {
			t.Fatalf("granted under %v, want the KEEP row", g.RenewPolicy)
		}
		if got != 5 {
			t.Fatalf("bootstrap through the third permission row issued %d statements, want 5 (permissions, 3 drivers, INSERT)", got)
		}
	})
	t.Run("preference", func(t *testing.T) {
		srv, cs, _ := fixture(t)
		if got := cost(t, srv, cs, bootstrap(srv, anyVersion)); got != 3 {
			t.Fatalf("bootstrap by preference issued %d statements, want 3 (permissions, preference, INSERT)", got)
		}
	})
	t.Run("fallback", func(t *testing.T) {
		srv, cs, _ := fixture(t)
		if got := cost(t, srv, cs, bootstrap(srv, noVersion)); got != 4 {
			t.Fatalf("bootstrap through the fallback issued %d statements, want 4 (permissions, preference, fallback, INSERT)", got)
		}
	})
	t.Run("renewal", func(t *testing.T) {
		srv, cs, _ := fixture(t)
		offer, perr := srv.grant(anyVersion, false)
		if perr != nil {
			t.Fatal(perr)
		}
		renew := anyVersion
		renew.LeaseID, renew.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
		if got := cost(t, srv, cs, bootstrap(srv, renew)); got != 3 {
			t.Fatalf("no-change renewal issued %d statements, want 3 (permissions, preference, UPDATE)", got)
		}
	})
	t.Run("discover", func(t *testing.T) {
		srv, cs, _ := fixture(t)
		got := cost(t, srv, cs, func() *ProtocolError { _, perr := srv.match(noVersion); return perr })
		if got != 3 {
			t.Fatalf("DISCOVER through the fallback issued %d statements, want 3 (permissions, preference, fallback)", got)
		}
	})
	t.Run("license", func(t *testing.T) {
		srv, cs, _ := fixture(t, WithLicenseMode())
		// The warm-up bootstrap holds v2, the newest: the measured one
		// finds it held and takes v1.
		if _, err := srv.AddDriver(catalogImage(dbver.V(2, 0, 0)), dbver.FormatImage); err != nil {
			t.Fatal(err)
		}
		if got := cost(t, srv, cs, bootstrap(srv, anyVersion)); got != 5 {
			t.Fatalf("license-mode bootstrap issued %d statements, want 5 (permissions, preference, 2 lease-free, INSERT)", got)
		}
	})
}
