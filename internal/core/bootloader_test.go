package core

import (
	"crypto/ed25519"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/driverimg"
)

func TestBootstrapAndQuery(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 1024))

	b := f.bootloader(t)
	c := mustConnect(t, b, f.appURL())

	res, err := c.Query("SELECT name FROM items WHERE id = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "widget" {
		t.Fatalf("row = %v", res.Rows[0][0])
	}
	m := b.Stats()
	if m.Bootstraps != 1 {
		t.Errorf("Bootstraps = %d", m.Bootstraps)
	}
	if m.BytesFetched == 0 {
		t.Error("BytesFetched = 0")
	}
	if b.Version() != dbver.V(1, 0, 0) {
		t.Errorf("Version = %v", b.Version())
	}
	if b.LeaseID() == 0 {
		t.Error("LeaseID = 0 after bootstrap")
	}
	// Server-side counters moved.
	if sc := f.drv.Counters(); sc.Requests < 1 || sc.Offers < 1 || sc.Transfers != 1 || sc.BytesOut == 0 {
		t.Errorf("server counters: %+v", sc)
	}
	// One lease on record.
	leases, err := f.drv.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 1 || leases[0].Released || leases[0].Renewals != 0 {
		t.Fatalf("leases = %+v", leases)
	}
}

func TestBootstrapNoDriver(t *testing.T) {
	f := newFixture(t, 1)
	b := f.bootloader(t)
	_, err := b.Connect(f.appURL(), nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeNoDriver {
		t.Fatalf("err = %v", err)
	}
}

func TestBootstrapAuthRejected(t *testing.T) {
	f := newFixture(t, 1, WithAuth(func(db, user, pass string) error {
		if user != "app" || pass != "app-pw" {
			return errors.New("bad credentials")
		}
		return nil
	}))
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 64))

	good := f.bootloader(t)
	if _, err := good.Connect(f.appURL(), nil); err != nil {
		t.Fatalf("valid credentials rejected: %v", err)
	}

	bad := f.bootloader(t, WithCredentials("app", "wrong"))
	_, err := bad.Connect(f.appURL(), nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeAuth {
		t.Fatalf("err = %v", err)
	}
}

// TestLargeDriverChunkedTransfer pushes a driver bigger than one
// FILE_DATA chunk through the FTP-like transfer.
func TestLargeDriverChunkedTransfer(t *testing.T) {
	f := newFixture(t, 1)
	const size = 3*transferChunkSize + 12345
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, size))

	b := f.bootloader(t)
	c := mustConnect(t, b, f.appURL())
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().BytesFetched; got < size {
		t.Errorf("BytesFetched = %d, want >= %d", got, size)
	}
}

// TestRenewKeepsDriver covers Table 4's RENEW branch: same driver, no
// file transfer, lease extended.
func TestRenewKeepsDriver(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	b := f.bootloader(t)
	mustConnect(t, b, f.appURL())

	transfersBefore := f.drv.Counters().Transfers
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}
	m := b.Stats()
	if m.Renewals != 1 || m.Upgrades != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if f.drv.Counters().Transfers != transfersBefore {
		t.Error("renewal must not re-transfer an unchanged driver")
	}
	leases, _ := f.drv.Leases()
	if leases[0].Renewals != 1 {
		t.Errorf("lease renewals = %d", leases[0].Renewals)
	}
}

// TestUpgradeSwapsDriver covers the UPGRADE branch: a new driver version
// appears; renewal hot-swaps it; new connections use it.
func TestUpgradeSwapsDriver(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	b := f.bootloader(t)
	c1 := mustConnect(t, b, f.appURL())

	// DBA single-step upgrade: one insert (paper §3.2).
	f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 256))
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}
	if b.Version() != dbver.V(2, 0, 0) {
		t.Fatalf("Version = %v, want 2.0.0", b.Version())
	}
	if m := b.Stats(); m.Upgrades != 1 {
		t.Fatalf("Upgrades = %d", m.Upgrades)
	}
	// New connection goes through the new driver and still works.
	c2 := mustConnect(t, b, f.appURL())
	if _, err := c2.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	// Default policy is AFTER_COMMIT: the idle old connection was closed.
	if _, err := c1.Query("SELECT 1"); !errors.Is(err, client.ErrConnRevoked) {
		t.Fatalf("old conn err = %v, want ErrConnRevoked", err)
	}
}

// TestUpgradePolicyAfterClose: existing connections keep working until
// the application closes them.
func TestUpgradePolicyAfterClose(t *testing.T) {
	f := newFixture(t, 1)
	id1 := f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	if _, err := f.drv.SetPermission(Permission{
		DriverID: id1, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterClose, TransferMethod: TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	b := f.bootloader(t)
	c1 := mustConnect(t, b, f.appURL())

	id2 := f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 256))
	if _, err := f.drv.SetPermission(Permission{
		DriverID: id2, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterClose, TransferMethod: TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}
	if b.Version() != dbver.V(2, 0, 0) {
		t.Fatalf("Version = %v", b.Version())
	}
	// Old connection still alive under AFTER_CLOSE.
	if _, err := c1.Query("SELECT 1"); err != nil {
		t.Fatalf("AFTER_CLOSE must keep old connections alive: %v", err)
	}
	if m := b.Stats(); m.ForcedCloses != 0 {
		t.Errorf("ForcedCloses = %d, want 0", m.ForcedCloses)
	}
	// Application closes it; that's the drain.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Query("SELECT 1"); err == nil {
		t.Fatal("closed connection must not work")
	}
}

// TestUpgradePolicyAfterCommit: idle connections close immediately;
// in-transaction connections drain at their commit.
func TestUpgradePolicyAfterCommit(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	b := f.bootloader(t)

	idle := mustConnect(t, b, f.appURL())
	busy := mustConnect(t, b, f.appURL())
	if err := busy.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := busy.Exec("UPDATE items SET name = 'tmp' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 256))
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}

	// Idle connection was closed at once.
	if _, err := idle.Query("SELECT 1"); !errors.Is(err, client.ErrConnRevoked) {
		t.Fatalf("idle conn err = %v", err)
	}
	// Busy connection survives its transaction...
	if _, err := busy.Exec("UPDATE items SET name = 'tmp2' WHERE id = 1"); err != nil {
		t.Fatalf("in-tx conn must survive until commit: %v", err)
	}
	if err := busy.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// ...and is drained right after the commit.
	if _, err := busy.Query("SELECT 1"); !errors.Is(err, client.ErrConnRevoked) {
		t.Fatalf("post-commit err = %v, want ErrConnRevoked", err)
	}
	m := b.Stats()
	if m.ForcedCloses != 2 || m.DeferredTx != 1 || m.AbortedTx != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestUpgradePolicyImmediate: every connection dies at once; in-flight
// transactions count as aborted.
func TestUpgradePolicyImmediate(t *testing.T) {
	f := newFixture(t, 1)
	id1 := f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	if _, err := f.drv.SetPermission(Permission{
		DriverID: id1, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: Immediate, TransferMethod: TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	b := f.bootloader(t)
	busy := mustConnect(t, b, f.appURL())
	if err := busy.Begin(); err != nil {
		t.Fatal(err)
	}

	id2 := f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 256))
	if _, err := f.drv.SetPermission(Permission{
		DriverID: id2, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: Immediate, TransferMethod: TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}
	if _, err := busy.Exec("UPDATE items SET name = 'x' WHERE id = 1"); !errors.Is(err, client.ErrConnRevoked) {
		t.Fatalf("err = %v, want ErrConnRevoked", err)
	}
	m := b.Stats()
	if m.AbortedTx != 1 || m.ForcedCloses != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRevocation: driver deleted with no replacement → renewal gets
// DRIVOLUTION_ERROR, existing conns transition, new connects fail.
func TestRevocation(t *testing.T) {
	f := newFixture(t, 1)
	id := f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	b := f.bootloader(t)
	c := mustConnect(t, b, f.appURL())

	if err := f.drv.DeleteDriver(id); err != nil {
		t.Fatal(err)
	}
	err := b.ForceRenew("prod")
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeRevoked {
		t.Fatalf("renew err = %v", err)
	}
	// Default expiration policy AFTER_COMMIT closed the idle conn.
	if _, qerr := c.Query("SELECT 1"); !errors.Is(qerr, client.ErrConnRevoked) {
		t.Fatalf("old conn err = %v", qerr)
	}
	// New connections are blocked with a clear error (paper §3.1.2).
	if _, cerr := b.Connect(f.appURL(), nil); !errors.Is(cerr, ErrNoDriverAvailable) {
		t.Fatalf("connect err = %v", cerr)
	}
	if m := b.Stats(); m.Revocations != 1 {
		t.Fatalf("Revocations = %d", m.Revocations)
	}
	// The lease is marked released server-side.
	leases, _ := f.drv.Leases()
	if len(leases) != 1 || !leases[0].Released {
		t.Fatalf("leases = %+v", leases)
	}
}

// TestRevokeByPolicy: RevokeDriverForRenewals flips permissions to
// REVOKE; clients are told to stop at renewal.
func TestRevokeByPolicy(t *testing.T) {
	f := newFixture(t, 1)
	id := f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	if _, err := f.drv.SetPermission(Permission{
		DriverID: id, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterClose, TransferMethod: TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	b := f.bootloader(t)
	c := mustConnect(t, b, f.appURL())

	if err := f.drv.RevokeDriverForRenewals(id); err != nil {
		t.Fatal(err)
	}
	err := b.ForceRenew("prod")
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeRevoked {
		t.Fatalf("err = %v", err)
	}
	// AFTER_CLOSE revocation: existing connection keeps working until
	// the application closes it ("Existing connections can remain active
	// with the revoked driver until they terminate by an explicit
	// closing", §3.4.2)...
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatalf("AFTER_CLOSE revoked conn should still work: %v", err)
	}
	// ...but new connections are refused.
	if _, err := b.Connect(f.appURL(), nil); !errors.Is(err, ErrNoDriverAvailable) {
		t.Fatalf("connect err = %v", err)
	}
}

// TestRenewServerUnavailable: the bootloader keeps its driver when the
// server is down and existing connections keep working (paper §3.2: a
// failure "only impacts new driver requests or driver renewal requests").
func TestRenewServerUnavailable(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	b := f.bootloader(t)
	c := mustConnect(t, b, f.appURL())

	f.drv.Stop()
	if err := b.ForceRenew("prod"); err == nil {
		t.Fatal("renewal should fail while server is down")
	}
	// Existing connection unaffected; driver retained.
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatalf("existing conn must keep working: %v", err)
	}
	if b.Version() != dbver.V(1, 0, 0) {
		t.Fatal("driver must be retained")
	}
	if m := b.Stats(); m.RenewFailures != 1 || m.Revocations != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestSignedDriverVerification: trusting bootloaders accept signed
// drivers and reject unsigned ones.
func TestSignedDriverVerification(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, 1, WithSigningKey(priv))
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256)) // signed by AddDriver

	b := f.bootloader(t, WithTrustKey(pub))
	if _, err := b.Connect(f.appURL(), nil); err != nil {
		t.Fatalf("signed driver rejected: %v", err)
	}

	// A second server without the signing key serves unsigned drivers;
	// the trusting bootloader must refuse them.
	f2 := newFixture(t, 1) // no signing key
	f2.addDriver(t, f2.driverImage(dbver.V(1, 0, 0), 1, 256))
	b2 := f2.bootloader(t, WithTrustKey(pub))
	if _, err := b2.Connect(f2.appURL(), nil); err == nil {
		t.Fatal("unsigned driver must be rejected by a trusting bootloader")
	}

	// A row an older server signed into the store (image format v1: the
	// signature covers the canonical bytes themselves) still installs;
	// the catalog serves it unchanged.
	enc := f2.driverImage(dbver.V(1, 1, 0), 1, 256).Encode()
	canon := enc[1 : len(enc)-4] // between the version byte and the empty signature's prefix
	sig := ed25519.Sign(priv, canon)
	v1 := binary.BigEndian.AppendUint32(append([]byte{1}, canon...), uint32(len(sig)))
	if err := insertDriver(f2.drv.Store(), DriverRecord{DriverID: 1000, APIName: "JDBC", APIMajor: 3,
		Version: dbver.V(1, 1, 0), BinaryCode: append(v1, sig...), Format: string(dbver.FormatImage)}); err != nil {
		t.Fatal(err)
	}
	b3 := f2.bootloader(t, WithTrustKey(pub))
	if _, err := b3.Connect(f2.appURL(), nil); err != nil {
		t.Fatalf("v1-signed driver rejected: %v", err)
	}
	if v := b3.Version(); v != dbver.V(1, 1, 0) {
		t.Fatalf("installed %v, want the v1-signed 1.1.0", v)
	}
}

// TestTLSTransfer runs the paper's default secure configuration:
// encrypted channel with server certificate verification.
func TestTLSTransfer(t *testing.T) {
	cert, roots, err := GenerateTLSCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, 1)

	// A second Drivolution server over TLS sharing the same store.
	tlsSrv, err := NewServer("drivolution-tls", NewLocalStore(f.drv.store.(*LocalStore).DB))
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsSrv.StartTLS("127.0.0.1:0", cert); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tlsSrv.Stop)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 4096))

	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{tlsSrv.Addr()}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(2*time.Second),
		WithTLS(&tls.Config{RootCAs: roots, ServerName: "127.0.0.1"}))
	t.Cleanup(b.Close)
	c := mustConnect(t, b, f.appURL())
	if _, err := c.Query("SELECT count(*) FROM items"); err != nil {
		t.Fatal(err)
	}

	// A bootloader with the wrong trust roots must refuse the server —
	// the man-in-the-middle defense from §3.1.
	otherCert, otherRoots, err := GenerateTLSCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	_ = otherCert
	mitm := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{tlsSrv.Addr()}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(2*time.Second),
		WithTLS(&tls.Config{RootCAs: otherRoots, ServerName: "127.0.0.1"}))
	t.Cleanup(mitm.Close)
	if _, err := mitm.Connect(f.appURL(), nil); err == nil {
		t.Fatal("bootloader must reject a server whose certificate it does not trust")
	}
}

// TestPushUpdates: a dedicated channel propagates an upgrade without
// waiting for lease expiry (paper §3.2).
func TestPushUpdates(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))

	b := f.bootloader(t, WithPushUpdates(), WithRenewAhead(0.01))
	mustConnect(t, b, f.appURL())

	// Give the push loop a moment to subscribe.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if f.drv.Counters().Notifies >= 0 {
			break
		}
	}
	time.Sleep(50 * time.Millisecond)

	f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 256))
	for time.Now().Before(deadline) {
		if b.Version() == dbver.V(2, 0, 0) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if b.Version() != dbver.V(2, 0, 0) {
		t.Fatalf("push upgrade did not land; version = %v, stats = %+v", b.Version(), b.Stats())
	}
}

// TestDiscoverMultiServer: with several servers configured, the
// bootloader picks one that answers (DHCP-like DISCOVER, §3.1).
func TestDiscoverMultiServer(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))

	// Second server shares the store (a replicated Drivolution service).
	srv2, err := NewServer("drivolution-2", NewLocalStore(f.drv.store.(*LocalStore).DB))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Stop)

	// A dead address first: discover should skip it.
	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{"127.0.0.1:1", f.drv.Addr(), srv2.Addr()}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(time.Second))
	t.Cleanup(b.Close)
	c := mustConnect(t, b, f.appURL())
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
}

// TestRenewalFailover: when the bootstrap server dies, renewals fail
// over to another configured server (paper §5.3.2).
func TestRenewalFailover(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	shared := f.drv.store.(*LocalStore).DB

	srv2, err := NewServer("drivolution-2", NewLocalStore(shared))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Stop)

	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{f.drv.Addr(), srv2.Addr()}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(time.Second))
	t.Cleanup(b.Close)
	mustConnect(t, b, f.appURL())

	f.drv.Stop() // kill whichever server granted the lease... might be srv2
	srv2Addr := srv2.Addr()
	_ = srv2Addr

	// Upgrade lands via the surviving server.
	img := f.driverImage(dbver.V(2, 0, 0), 1, 256)
	if _, err := srv2.AddDriver(img, dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatalf("renewal should fail over: %v", err)
	}
	if b.Version() != dbver.V(2, 0, 0) {
		t.Fatalf("Version = %v", b.Version())
	}
}

// TestLicenseMode implements §5.4.2: one license (driver) per client;
// releasing the lease frees it for another client.
func TestLicenseMode(t *testing.T) {
	f := newFixture(t, 1)
	// Rebuild the Drivolution server in license mode on the same store.
	lic, err := NewServer("license-server", NewLocalStore(f.drv.store.(*LocalStore).DB),
		WithLicenseMode(), WithDefaultLease(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := lic.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lic.Stop)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 128))

	mkBL := func(id string) *Bootloader {
		b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
			[]string{lic.Addr()}, f.rt,
			WithCredentials("app", "app-pw"),
			WithClientID(id),
			WithDialTimeout(time.Second))
		t.Cleanup(b.Close)
		return b
	}

	b1 := mkBL("client-1")
	if _, err := b1.Connect(f.appURL(), nil); err != nil {
		t.Fatalf("first client must get the license: %v", err)
	}

	b2 := mkBL("client-2")
	_, err = b2.Connect(f.appURL(), nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeNoDriver {
		t.Fatalf("second client should be denied while license is held: %v", err)
	}

	// First client releases; second can now acquire.
	if err := b1.ReleaseLease(); err != nil {
		t.Fatal(err)
	}
	b3 := mkBL("client-3")
	if _, err := b3.Connect(f.appURL(), nil); err != nil {
		t.Fatalf("license should be free after release: %v", err)
	}
}

// TestAssemblyOverWire: WithRequiredPackages yields a driver whose
// manifest includes the requested feature packages (§5.4.1).
func TestAssemblyOverWire(t *testing.T) {
	ps := driverimg.NewPackageStore()
	ps.AddPackage("gis", []byte("geometry-pack"), map[string]string{"gis": "on"})
	ps.AddPackage("nls-fr", []byte("bonjour"), nil)

	f := newFixture(t, 1, WithPackages(ps))
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))

	b := f.bootloader(t, WithRequiredPackages("gis"))
	c := mustConnect(t, b, f.appURL())
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	// Unknown package is a clean protocol error.
	b2 := f.bootloader(t, WithRequiredPackages("kerberos"))
	_, err := b2.Connect(f.appURL(), nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeNoDriver {
		t.Fatalf("err = %v", err)
	}
}

// TestPreconfiguredOptions: permission driver_options are baked into
// the delivered driver server-side (§3.1.1).
func TestPreconfiguredOptions(t *testing.T) {
	f := newFixture(t, 1)
	img := f.driverImage(dbver.V(1, 0, 0), 1, 128)
	delete(img.Manifest.Options, "user") // credentials come from the permission instead
	delete(img.Manifest.Options, "password")
	id := f.addDriver(t, img)
	if _, err := f.drv.SetPermission(Permission{
		DriverID: id, LeaseTime: time.Hour,
		DriverOptions:    "user=app,password=app-pw",
		RenewPolicy:      RenewUpgrade,
		ExpirationPolicy: AfterCommit,
		TransferMethod:   TransferAny,
	}); err != nil {
		t.Fatal(err)
	}

	b := f.bootloader(t)
	// The app passes no credentials at all; the pre-configured driver
	// carries them.
	c, err := b.Connect(f.appURL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolMismatchSurfacesThroughBootloader: a driver built for the
// wrong wire protocol fails at connect, visibly.
func TestProtocolMismatchSurfacesThroughBootloader(t *testing.T) {
	f := newFixture(t, 2)                                   // target speaks protocol 2
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 128)) // driver speaks 1

	b := f.bootloader(t)
	_, err := b.Connect(f.appURL(), nil)
	if !errors.Is(err, client.ErrProtocolMismatch) {
		t.Fatalf("err = %v, want ErrProtocolMismatch", err)
	}

	// Fixing it is the paper's one-step upgrade: insert a compatible
	// driver and renew.
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 1), 2, 128))
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Connect(f.appURL(), nil); err != nil {
		t.Fatalf("connect after fix: %v", err)
	}
}
