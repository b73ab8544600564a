package core

import (
	"crypto/tls"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/wire"
)

// TestTransferMethodEnforced: a permission demanding the TLS channel
// (Table 2 transfer_method) refuses plaintext bootstraps and serves the
// same client over TLS.
func TestTransferMethodEnforced(t *testing.T) {
	f := newFixture(t, 1)
	id := f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	if _, err := f.drv.SetPermission(Permission{
		DriverID: id, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit,
		TransferMethod: TransferTLS,
	}); err != nil {
		t.Fatal(err)
	}

	// Plaintext bootstrap is rejected with a clear error and no lease.
	b := f.bootloader(t)
	_, err := b.Connect(f.appURL(), nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeTransfer {
		t.Fatalf("err = %v, want TRANSFER", err)
	}
	leases, err := f.drv.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 0 {
		t.Fatalf("rejected bootstrap must not leave a lease: %+v", leases)
	}

	// The same store behind a TLS listener serves the driver.
	cert, roots, err := GenerateTLSCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	tlsSrv, err := NewServer("tls", NewLocalStore(f.drv.Store().(*LocalStore).DB))
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsSrv.StartTLS("127.0.0.1:0", cert); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tlsSrv.Stop)

	bt := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{tlsSrv.Addr()}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(2*time.Second),
		WithTLS(&tls.Config{RootCAs: roots, ServerName: "127.0.0.1"}))
	t.Cleanup(bt.Close)
	c, err := bt.Connect(f.appURL(), nil)
	if err != nil {
		t.Fatalf("TLS bootstrap should succeed: %v", err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
}

// TestRenewalTransferRejectionKeepsDriver: a renewal bounced by the
// transfer policy must not revoke the running driver.
func TestRenewalTransferRejectionKeepsDriver(t *testing.T) {
	f := newFixture(t, 1)
	id := f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	b := f.bootloader(t)
	c := mustConnect(t, b, f.appURL())

	// Tighten the policy after the fact: now the driver is TLS-only.
	if _, err := f.drv.SetPermission(Permission{
		DriverID: id, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit,
		TransferMethod: TransferTLS,
	}); err != nil {
		t.Fatal(err)
	}
	err := b.ForceRenew("prod")
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeTransfer {
		t.Fatalf("err = %v", err)
	}
	// Driver retained; existing connection unaffected.
	if b.Version() != dbver.V(1, 0, 0) {
		t.Fatal("driver must be retained after a transfer-policy rejection")
	}
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatalf("existing conn must keep working: %v", err)
	}
	if m := b.Stats(); m.Revocations != 0 || m.RenewFailures != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestPoolIntegration: what an application's connection pool sees
// across a central upgrade. Idle connections opened on driver v1 fail
// Ping once the upgrade drains them (AFTER_COMMIT default), so a pool
// that pings before handing one out discards it; the fresh Connect that
// replaces it queries through driver v2.
func TestPoolIntegration(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	b := f.bootloader(t)

	idle := make([]client.Conn, 3)
	for i := range idle {
		idle[i] = mustConnect(t, b, f.appURL())
		if err := idle[i].Ping(); err != nil {
			t.Fatalf("idle conn %d before upgrade: %v", i, err)
		}
	}

	f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 256))
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}
	if b.Version() != dbver.V(2, 0, 0) {
		t.Fatalf("Version = %v", b.Version())
	}
	for i, c := range idle {
		if err := c.Ping(); err == nil {
			t.Fatalf("idle conn %d still pings after the upgrade drained it", i)
		}
		_ = c.Close()
	}
	for i := range idle {
		c := mustConnect(t, b, f.appURL())
		if v := c.(*managedConn).ld.drv.Version(); v != dbver.V(2, 0, 0) {
			t.Fatalf("fresh conn %d on driver %v, want 2.0.0", i, v)
		}
		if _, err := c.Query("SELECT 1"); err != nil {
			t.Fatalf("query %d after upgrade: %v", i, err)
		}
		_ = c.Close()
	}
}

// TestConcurrentFirstConnect: many goroutines race the initial
// bootstrap; exactly one download happens and every connect succeeds.
// In license mode (§5.4.2) a second REQUEST would be refused a seat —
// or take another driver's — so there the racers must share the
// winner's lease too.
func TestConcurrentFirstConnect(t *testing.T) {
	for name, opts := range map[string][]ServerOption{"open": nil, "license mode": {WithLicenseMode()}} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, 1, opts...)
			f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 64<<10))
			b := f.bootloader(t)

			const n = 12
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				go func() {
					c, err := b.Connect(f.appURL(), nil)
					if err != nil {
						errs <- err
						return
					}
					_, err = c.Query("SELECT 1")
					c.Close()
					errs <- err
				}()
			}
			for i := 0; i < n; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if m := b.Stats(); m.Bootstraps != 1 {
				t.Fatalf("Bootstraps = %d, want 1", m.Bootstraps)
			}
			if sc := f.drv.Counters(); sc.LeasesGranted != 1 || sc.Transfers != 1 {
				t.Fatalf("server granted %d leases and ran %d transfers for one bootloader, want 1 and 1",
					sc.LeasesGranted, sc.Transfers)
			}
		})
	}
}

// TestConcurrentFirstConnectUnreachable: racing first Connects against
// a server that accepts and never answers share the one bootstrap's
// failure. Each bootstrap waits out the reply deadline D, so racers that
// redialed one after another would take about n×D; sharing takes about
// D.
func TestConcurrentFirstConnectUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // held open and silent until the listener closes
		}
	}()

	const n, d = 8, 300 * time.Millisecond
	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{ln.Addr().String()}, nil, WithDialTimeout(d))
	t.Cleanup(b.Close)
	start := time.Now()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := b.Connect("dbms://127.0.0.1:1/prod", nil)
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a Connect against a silent server succeeded")
		}
	}
	if took := time.Since(start); took > n*d/2 {
		t.Fatalf("%d racing first Connects took %v to fail; one bootstrap times out in %v", n, took, d)
	}
}

// TestPendingBlobReleasedAfterRenewalAck: a staged driver blob may be
// re-requested any number of times before the client confirms it, but
// the first renewal carrying the driver's checksum acknowledges the
// transfer and must release the staged copy — completed transfers no
// longer pin whole driver blobs in server memory for the lease's
// lifetime.
func TestPendingBlobReleasedAfterRenewalAck(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 8<<10))

	conn, err := wire.Dial(f.drv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := Request{
		Database: "prod", User: "app", Password: "app-pw",
		API: dbver.APIOf("JDBC", 3, 0), ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID: "pending-test",
	}
	if err := conn.Send(msgRequest, wire.Marshal(&req)); err != nil {
		t.Fatal(err)
	}
	fr, err := conn.RecvTimeout(2 * time.Second)
	if err != nil || fr.Type != msgOffer {
		t.Fatalf("frame=0x%04x err=%v", fr.Type, err)
	}
	offer, _, err := decodeOffer(fr.Payload, Offer{})
	if err != nil {
		t.Fatal(err)
	}

	// The staged blob survives repeated FILE_REQUESTs (a bootloader may
	// retry a failed verify before renewing).
	fetchFile := func() bool {
		t.Helper()
		if err := conn.Send(msgFileRequest, wire.Marshal(&fileRequest{LeaseID: offer.LeaseID})); err != nil {
			t.Fatal(err)
		}
		for {
			fr, err := conn.RecvTimeout(2 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Type == msgError {
				return false
			}
			if fr.Type != msgFileData {
				t.Fatalf("unexpected frame 0x%04x", fr.Type)
			}
			chunk, err := decodeFileChunk(fr.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if chunk.Last {
				return true
			}
		}
	}
	for i := 0; i < 2; i++ {
		if !fetchFile() {
			t.Fatalf("re-request %d before renewal must succeed", i)
		}
	}
	f.drv.pendingMu.Lock()
	staged := len(f.drv.pending)
	f.drv.pendingMu.Unlock()
	if staged != 1 {
		t.Fatalf("pending transfers = %d, want 1", staged)
	}

	// Renewal carrying the checksum acks the transfer.
	renew := req
	renew.LeaseID = offer.LeaseID
	renew.CurrentChecksum = offer.DriverChecksum
	if err := conn.Send(msgRequest, wire.Marshal(&renew)); err != nil {
		t.Fatal(err)
	}
	fr, err = conn.RecvTimeout(2 * time.Second)
	if err != nil || fr.Type != msgOffer {
		t.Fatalf("renewal frame=0x%04x err=%v", fr.Type, err)
	}
	ro, _, err := decodeOffer(fr.Payload, Offer{})
	if err != nil {
		t.Fatal(err)
	}
	if ro.HasDriver {
		t.Fatal("no-change renewal must not re-offer the driver")
	}

	f.drv.pendingMu.Lock()
	staged = len(f.drv.pending)
	f.drv.pendingMu.Unlock()
	if staged != 0 {
		t.Fatalf("pending transfers after renewal ack = %d, want 0", staged)
	}
	if fetchFile() {
		t.Fatal("FILE_REQUEST after the renewal ack must be refused")
	}
}
