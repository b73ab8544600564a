package core

import (
	"bytes"
	"crypto/ed25519"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// countingStore wraps a LocalStore and counts SELECTs against the
// drivers/permission tables — the queries the catalog is supposed to
// eliminate from steady-state grants. GenerationStore is satisfied via
// the embedded LocalStore.
type countingStore struct {
	*LocalStore
	schemaReads atomic.Int64
}

func (c *countingStore) isSchemaRead(sql string) bool {
	trimmed := strings.TrimSpace(sql)
	return strings.HasPrefix(trimmed, "SELECT") &&
		(strings.Contains(sql, DriversTable) || strings.Contains(sql, PermissionTable))
}

func (c *countingStore) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	if c.isSchemaRead(sql) {
		c.schemaReads.Add(1)
	}
	return c.LocalStore.Exec(sql, args...)
}

// Prepare wraps the embedded store's handle so statements the server
// routes through its prepared-handle cache still count — otherwise the
// zero-SQL steady-state assertions would pass vacuously.
func (c *countingStore) Prepare(sql string) (Stmt, error) {
	h, err := c.LocalStore.Prepare(sql)
	if err != nil {
		return nil, err
	}
	if !c.isSchemaRead(sql) {
		return h, nil
	}
	return countingSchemaStmt{c: c, h: h}, nil
}

type countingSchemaStmt struct {
	c *countingStore
	h Stmt
}

func (s countingSchemaStmt) Exec(args ...any) (*sqlmini.Result, error) {
	s.c.schemaReads.Add(1)
	return s.h.Exec(args...)
}

func (s countingSchemaStmt) Close() error { return s.h.Close() }

func newCatalogServer(t *testing.T, opts ...ServerOption) (*Server, *countingStore) {
	t.Helper()
	st := &countingStore{LocalStore: NewLocalStore(sqlmini.NewDB())}
	srv, err := NewServer("catalog-test", st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, st
}

func catalogImage(ver dbver.Version, pkgs ...string) *driverimg.Image {
	return &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:     "dbms-native",
			API:      dbver.APIOf("JDBC", 3, 0),
			Version:  ver,
			Packages: pkgs,
		},
		Payload: []byte("driver body"),
	}
}

func catalogRequest() Request {
	return Request{
		Database:       "prod",
		User:           "app",
		API:            dbver.APIOf("JDBC", 3, -1),
		ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID:       "test-client",
	}
}

// TestCatalogInvalidationAdmin: every admin mutation — add, permission
// insert, permission expiry, revoke-for-renewals, delete — must be
// visible to the very next grant; no stale offers.
func TestCatalogInvalidationAdmin(t *testing.T) {
	srv, _ := newCatalogServer(t)
	req := catalogRequest()

	if _, perr := srv.match(req); perr == nil || perr.Code != ErrCodeNoDriver {
		t.Fatalf("empty schema should yield NO_DRIVER, got %v", perr)
	}

	id1, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	g, perr := srv.match(req)
	if perr != nil || g.driverID != id1 {
		t.Fatalf("after AddDriver: g=%+v perr=%v", g, perr)
	}

	id2, err := srv.AddDriver(catalogImage(dbver.V(2, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	if g, perr = srv.match(req); perr != nil || g.driverID != id2 {
		t.Fatalf("newer driver must win immediately: g=%+v perr=%v", g, perr)
	}

	// A permission pinning the old driver overrides preference matching.
	permID, err := srv.SetPermission(Permission{
		DriverID: id1, LeaseTime: time.Minute,
		RenewPolicy: RenewKeep, ExpirationPolicy: AfterClose, TransferMethod: TransferAny,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, perr = srv.match(req)
	if perr != nil || g.driverID != id1 || g.renew != RenewKeep || g.leaseTime != time.Minute {
		t.Fatalf("permission must apply immediately: g=%+v perr=%v", g, perr)
	}

	// Expiring it restores preference matching on the next grant.
	if err := srv.ExpirePermission(permID); err != nil {
		t.Fatal(err)
	}
	if g, perr = srv.match(req); perr != nil || g.driverID != id2 {
		t.Fatalf("expired permission must stop matching: g=%+v perr=%v", g, perr)
	}

	// RevokeDriverForRenewals flips permissions to REVOKE: a renewing
	// client is told to stop, a new client falls through.
	if _, err := srv.SetPermission(Permission{
		DriverID: id2, LeaseTime: time.Minute,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit, TransferMethod: TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.RevokeDriverForRenewals(id2); err != nil {
		t.Fatal(err)
	}
	renewReq := req
	renewReq.LeaseID = 99 // any non-zero lease: the REVOKE row must match
	g, perr = srv.match(renewReq)
	if perr != nil || g.renew != RenewRevoke {
		t.Fatalf("revoked permission must reach renewals immediately: g=%+v perr=%v", g, perr)
	}
	g, perr = srv.match(req) // new client skips the REVOKE row
	if perr != nil || g.renew == RenewRevoke {
		t.Fatalf("new client must not get a REVOKE permission: g=%+v perr=%v", g, perr)
	}

	// Deleting a driver removes it (and its permissions) from offers.
	if err := srv.DeleteDriver(id2); err != nil {
		t.Fatal(err)
	}
	if g, perr = srv.match(req); perr != nil || g.driverID != id1 {
		t.Fatalf("deleted driver must vanish immediately: g=%+v perr=%v", g, perr)
	}
	if err := srv.DeleteDriver(id1); err != nil {
		t.Fatal(err)
	}
	if _, perr = srv.match(req); perr == nil || perr.Code != ErrCodeNoDriver {
		t.Fatalf("all drivers deleted: want NO_DRIVER, got %v", perr)
	}
}

// TestCatalogSharedStoreAcrossServers: two servers over one embedded DB
// (the replicated-embedded / TLS-frontend shape) must observe each
// other's admin mutations — the generation lives on the DB, not the
// server.
func TestCatalogSharedStoreAcrossServers(t *testing.T) {
	db := sqlmini.NewDB()
	a, err := NewServer("a", NewLocalStore(db))
	if err != nil {
		t.Fatal(err)
	}
	bSrv, err := NewServer("b", NewLocalStore(db))
	if err != nil {
		t.Fatal(err)
	}
	req := catalogRequest()

	id, err := a.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	if g, perr := bSrv.match(req); perr != nil || g.driverID != id {
		t.Fatalf("server b must see server a's driver: %v", perr)
	}
	// Warm both catalogs, then mutate through a and re-check b.
	id2, err := a.AddDriver(catalogImage(dbver.V(2, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	if g, perr := bSrv.match(req); perr != nil || g.driverID != id2 {
		t.Fatalf("server b served a stale catalog after a's insert: %v", perr)
	}
	if err := a.DeleteDriver(id2); err != nil {
		t.Fatal(err)
	}
	if g, perr := bSrv.match(req); perr != nil || g.driverID != id {
		t.Fatalf("server b served a deleted driver: %v", perr)
	}
}

// TestCatalogZeroSchemaSQLSteadyState is the ISSUE acceptance check:
// once the catalog is warm, DISCOVER-style matches and renewal-no-change
// grants run zero SELECTs against the drivers/permission tables.
func TestCatalogZeroSchemaSQLSteadyState(t *testing.T) {
	srv, st := newCatalogServer(t)
	req := catalogRequest()
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}

	// Bootstrap grant: catalog load + blob materialization are allowed.
	offer, perr := srv.grant(req, false)
	if perr != nil {
		t.Fatal(perr)
	}

	before := st.schemaReads.Load()
	for i := 0; i < 25; i++ {
		if _, perr := srv.match(req); perr != nil { // the DISCOVER path
			t.Fatal(perr)
		}
	}
	renewReq := req
	renewReq.LeaseID = offer.LeaseID
	renewReq.CurrentChecksum = offer.DriverChecksum
	for i := 0; i < 25; i++ {
		o, perr := srv.grant(renewReq, false) // Table-4 renewal-no-change
		if perr != nil {
			t.Fatal(perr)
		}
		if o.HasDriver {
			t.Fatal("no-change renewal must not offer a transfer")
		}
	}
	if got := st.schemaReads.Load() - before; got != 0 {
		t.Fatalf("steady-state grants issued %d drivers/permission SELECTs, want 0", got)
	}
}

// TestCatalogAssemblyCache: the §5.4.1 assembly of a (driver, packages)
// shape is computed once; repeat grants are served from the cache.
func TestCatalogAssemblyCache(t *testing.T) {
	ps := driverimg.NewPackageStore()
	ps.AddPackage("gis", []byte("gis-code"), map[string]string{"gis": "on"})
	srv, st := newCatalogServer(t, WithPackages(ps))
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	req := catalogRequest()
	req.RequiredPackages = []string{"gis"}

	g1, perr := srv.match(req)
	if perr != nil {
		t.Fatal(perr)
	}
	before := st.schemaReads.Load()
	g2, perr := srv.match(req)
	if perr != nil {
		t.Fatal(perr)
	}
	if got := st.schemaReads.Load() - before; got != 0 {
		t.Fatalf("cached assembly still hit the store %d times", got)
	}
	if g1.checksum != g2.checksum || g2.blob == nil {
		t.Fatalf("cached assembly diverged: %q vs %q", g1.checksum, g2.checksum)
	}
	img, err := driverimg.Decode(g2.blob)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Manifest.HasPackage("gis") || img.Manifest.Options["gis"] != "on" {
		t.Fatalf("assembled manifest = %+v", img.Manifest)
	}

	// Re-registering a package must invalidate cached assemblies.
	ps.AddPackage("gis", []byte("gis-code-v2"), map[string]string{"gis": "on"})
	g3, perr := srv.match(req)
	if perr != nil {
		t.Fatal(perr)
	}
	if g3.checksum == g2.checksum {
		t.Fatal("stale assembly served after package re-registration")
	}
}

// TestCatalogEntryBlobServedUntouched: a plain grant hands out the
// catalog entry's own slice — on the embedded store, the stored
// binary_code itself — and an assembly miss rewrites the image the
// entry holds without a store read and without writing a byte of it.
func TestCatalogEntryBlobServedUntouched(t *testing.T) {
	_, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := driverimg.NewPackageStore()
	ps.AddPackage("gis", []byte("gis-code"), map[string]string{"gis": "on"})
	srv, st := newCatalogServer(t, WithPackages(ps), WithSigningKey(priv))
	id, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	g, perr := srv.match(catalogRequest())
	if perr != nil {
		t.Fatal(perr)
	}
	cat, perr := srv.catalogSnapshot()
	if perr != nil {
		t.Fatal(perr)
	}
	ent := cat.byID[id]
	if !sameBlob(g.blob, ent.blob) {
		t.Fatal("a plain grant carries a copy of the entry's blob, not the entry's slice")
	}
	pristine := bytes.Clone(ent.blob)

	// Pre-configuration (permission options) plus on-demand assembly,
	// re-signed: every rewrite the server knows, on a cache miss.
	if _, err := srv.SetPermission(Permission{DriverID: id, DriverOptions: "fetchsize=10",
		LeaseTime: time.Hour, RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit}); err != nil {
		t.Fatal(err)
	}
	if _, perr := srv.match(catalogRequest()); perr != nil { // absorbs the permission reload
		t.Fatal(perr)
	}
	req := catalogRequest()
	req.RequiredPackages = []string{"gis"}
	before := st.schemaReads.Load()
	rewritten, perr := srv.match(req)
	if perr != nil {
		t.Fatal(perr)
	}
	if got := st.schemaReads.Load() - before; got != 0 {
		t.Fatalf("an assembly miss read the store %d times; the entry holds the base image", got)
	}
	img, err := driverimg.Decode(rewritten.blob)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Manifest.HasPackage("gis") || img.Manifest.Options["fetchsize"] != "10" {
		t.Fatalf("rewritten manifest = %+v", img.Manifest)
	}
	if cur, _ := srv.catalogSnapshot(); !bytes.Equal(cur.byID[id].blob, pristine) {
		t.Fatal("rewriting the image wrote into the catalog entry's blob")
	}
}

// TestCatalogLicenseModeLeaseFree: the license-mode single-lease check
// (§5.4.2) stays live under the catalog — lease churn is not cached.
func TestCatalogLicenseModeLeaseFree(t *testing.T) {
	srv, _ := newCatalogServer(t, WithLicenseMode())
	if _, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	reqA := catalogRequest()
	reqA.ClientID = "client-a"
	offer, perr := srv.grant(reqA, false)
	if perr != nil {
		t.Fatal(perr)
	}

	reqB := catalogRequest()
	reqB.ClientID = "client-b"
	if _, perr := srv.match(reqB); perr == nil || perr.Code != ErrCodeNoDriver {
		t.Fatalf("license held: second client must get NO_DRIVER, got %v", perr)
	}
	// The holder itself renews fine (own lease excluded from the check).
	renew := reqA
	renew.LeaseID = offer.LeaseID
	renew.CurrentChecksum = offer.DriverChecksum
	if o, perr := srv.grant(renew, false); perr != nil || o.HasDriver {
		t.Fatalf("holder renewal failed: %v", perr)
	}
	// Releasing the lease frees the license for the very next grant.
	if err := srv.ReleaseLeaseByID(offer.LeaseID); err != nil {
		t.Fatal(err)
	}
	if _, perr := srv.match(reqB); perr != nil {
		t.Fatalf("released license must be grantable: %v", perr)
	}
}

// TestCatalogConcurrentGrantsDuringAdminChurn hammers match() from many
// goroutines while the admin API adds and deletes drivers; run under
// -race this covers the catalog swap, the generation checks, and the
// assembly cache. Every result must be a coherent offer or NO_DRIVER.
func TestCatalogConcurrentGrantsDuringAdminChurn(t *testing.T) {
	srv, _ := newCatalogServer(t)
	req := catalogRequest()
	baseID, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}

	const grantors = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, grantors)
	for i := 0; i < grantors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, perr := srv.match(req)
				switch {
				case perr == nil:
					if g.checksum == "" || len(g.blob) == 0 {
						errs <- "grant without checksum/size"
						return
					}
				case perr.Code == ErrCodeNoDriver:
					// acceptable mid-delete
				default:
					errs <- perr.Error()
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		id, err := srv.AddDriver(catalogImage(dbver.V(2, 0, i)), dbver.FormatImage)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.DeleteDriver(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if g, perr := srv.match(req); perr != nil || g.driverID != baseID {
		t.Fatalf("final state: g=%+v perr=%v", g, perr)
	}
}

// TestCatalogDeltaPermissionChurn: permission-only admin churn must not
// rebuild driver entries — they are carried over by pointer from the
// previous catalog, so no blob is rescanned or re-hashed.
func TestCatalogDeltaPermissionChurn(t *testing.T) {
	srv, _ := newCatalogServer(t)
	var ids []int64
	for i := 0; i < 3; i++ {
		id, err := srv.AddDriver(catalogImage(dbver.V(1, i, 0)), dbver.FormatImage)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	before, perr := srv.catalogSnapshot()
	if perr != nil {
		t.Fatal(perr)
	}
	if _, err := srv.SetPermission(Permission{DriverID: ids[0], LeaseTime: time.Minute}); err != nil {
		t.Fatal(err)
	}
	after, perr := srv.catalogSnapshot()
	if perr != nil {
		t.Fatal(perr)
	}
	if after == before {
		t.Fatal("permission insert must produce a new catalog snapshot")
	}
	if len(after.perms) != len(before.perms)+1 {
		t.Fatalf("perms = %d, want %d", len(after.perms), len(before.perms)+1)
	}
	for _, id := range ids {
		if after.byID[id] != before.byID[id] {
			t.Fatalf("driver %d entry was rebuilt on permission-only churn", id)
		}
	}
}

// TestCatalogDeltaDriverChurn: adding one driver re-hashes only the new
// blob; surviving drivers keep their previous entries (same checksum,
// proven by blob pointer identity).
func TestCatalogDeltaDriverChurn(t *testing.T) {
	srv, _ := newCatalogServer(t)
	id1, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	before, perr := srv.catalogSnapshot()
	if perr != nil {
		t.Fatal(perr)
	}
	id2, err := srv.AddDriver(catalogImage(dbver.V(2, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	after, perr := srv.catalogSnapshot()
	if perr != nil {
		t.Fatal(perr)
	}
	if after.byID[id1] == nil || after.byID[id2] == nil {
		t.Fatal("delta reload lost a driver")
	}
	if after.byID[id1].checksum != before.byID[id1].checksum {
		t.Fatal("surviving driver changed checksum across delta reload")
	}
	// The cheap proof the entry was carried, not recomputed: the blob
	// is the very slice the previous load captured.
	if !sameBlob(after.byID[id1].blob, before.byID[id1].blob) {
		t.Fatal("surviving driver was rescanned (blob identity changed)")
	}
}

// TestCatalogDriverIDReuseRechecksums: a driver id freed and re-used
// with different content (possible via raw SQL, or max-id reuse on a
// shared store) must NOT inherit the stale checksum — pointer identity
// of the blob is the guard.
func TestCatalogDriverIDReuseRechecksums(t *testing.T) {
	srv, st := newCatalogServer(t)
	id, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	before, perr := srv.catalogSnapshot()
	if perr != nil {
		t.Fatal(perr)
	}
	oldSum := before.byID[id].checksum

	// Replace the row in place: same driver_id, different image bytes.
	if _, err := st.Exec(`DELETE FROM `+DriversTable+` WHERE driver_id = $id`,
		sqlmini.Args{"id": id}); err != nil {
		t.Fatal(err)
	}
	img := catalogImage(dbver.V(9, 9, 9))
	img.Payload = []byte("completely different driver body")
	if err := insertDriver(st, DriverRecord{
		DriverID:   id,
		APIName:    img.Manifest.API.Name,
		APIMajor:   img.Manifest.API.Major,
		APIMinor:   img.Manifest.API.Minor,
		Version:    img.Manifest.Version,
		BinaryCode: img.Encode(),
		Format:     string(dbver.FormatImage),
	}); err != nil {
		t.Fatal(err)
	}

	after, perr := srv.catalogSnapshot()
	if perr != nil {
		t.Fatal(perr)
	}
	wantSum, err := driverimg.EncodedChecksum(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got := after.byID[id].checksum
	if got == oldSum {
		t.Fatal("reused driver id inherited the stale checksum")
	}
	if got != wantSum {
		t.Fatalf("checksum = %s, want %s", got, wantSum)
	}
}
