package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// restartServer starts srv again on addr, retrying while the old
// listener's port is still being released.
func restartServer(t *testing.T, srv *Server, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := srv.Start(addr)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// noLeaseInsertStore refuses to prepare the lease-creation INSERT, so
// every grant answers ErrCodeInternal while renewals and matchmaking
// still work.
type noLeaseInsertStore struct{ *LocalStore }

func (s noLeaseInsertStore) Prepare(sql string) (Stmt, error) {
	if strings.HasPrefix(sql, "INSERT INTO "+LeasesTable) {
		return nil, errors.New("injected: lease insert refused")
	}
	return s.LocalStore.Prepare(sql)
}

// recoveryFixture bootstraps a bootloader from the fixture's server A
// while a second server B, over its own store and with the same
// encoded image, is down; then it brings B back and stops A. The next
// renewal fails over to B, which does not know the lease.
func recoveryFixture(t *testing.T, storeB Store) (*fixture, *Bootloader, *Server) {
	t.Helper()
	f := newFixture(t, 1, WithIDStride(1, 2))
	img := f.driverImage(dbver.V(1, 0, 0), 1, 4096)
	f.addDriver(t, img)

	srvB, err := NewServer("drivolution-2", storeB, WithIDStride(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.AddDriver(img, dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	if err := srvB.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addrB := srvB.Addr()
	srvB.Stop()
	t.Cleanup(srvB.Stop)

	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{f.drv.Addr(), addrB}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(time.Second))
	t.Cleanup(b.Close)
	mustConnect(t, b, f.appURL())
	if got := b.ServerAddr(); got != f.drv.Addr() {
		t.Fatalf("bootstrapped from %s, want server A %s", got, f.drv.Addr())
	}
	restartServer(t, srvB, addrB)
	f.drv.Stop()
	return f, b, srvB
}

// TestLeaseRecoverySameContentSkipsTransfer: a server that answers
// NO_LEASE but offers the content the bootloader already runs grants a
// fresh lease and nothing is downloaded — recovery is a renewal.
func TestLeaseRecoverySameContentSkipsTransfer(t *testing.T) {
	f, b, srvB := recoveryFixture(t, NewLocalStore(sqlmini.NewDB()))
	c := mustConnect(t, b, f.appURL())
	oldLease, oldSum, before := b.LeaseID(), b.CurrentChecksum(), b.Stats()

	if err := b.ForceRenew("prod"); err != nil {
		t.Fatalf("recovery renewal: %v", err)
	}
	after := b.Stats()
	if b.LeaseID() == oldLease || b.LeaseID() == 0 {
		t.Fatalf("lease id %d after recovery, was %d", b.LeaseID(), oldLease)
	}
	if b.ServerAddr() != srvB.Addr() || b.CurrentChecksum() != oldSum {
		t.Fatalf("after recovery: server %s checksum %s", b.ServerAddr(), b.CurrentChecksum())
	}
	if after.Renewals != before.Renewals+1 || after.Upgrades != 0 {
		t.Fatalf("metrics %+v -> %+v, want one renewal and no upgrade", before, after)
	}
	if after.BytesFetched != before.BytesFetched {
		t.Fatalf("recovery fetched %d bytes of content already running",
			after.BytesFetched-before.BytesFetched)
	}
	if _, err := c.Query("SELECT name FROM items WHERE id = ?", 1); err != nil {
		t.Fatalf("connection after recovery: %v", err)
	}
}

// TestLeaseRecoveryTransientErrorKeepsDriver: when the recovery
// REQUEST is answered with a transient server error, the bootloader
// keeps its working driver and retries later, as for any renewal that
// the server cannot serve (§4.1.3) — it does not revoke.
func TestLeaseRecoveryTransientErrorKeepsDriver(t *testing.T) {
	f, b, _ := recoveryFixture(t, noLeaseInsertStore{NewLocalStore(sqlmini.NewDB())})
	c := mustConnect(t, b, f.appURL())
	before := b.Stats()

	err := b.ForceRenew("prod")
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ErrCodeInternal {
		t.Fatalf("recovery renewal: %v, want an ErrCodeInternal answer", err)
	}
	after := b.Stats()
	if b.Version() != dbver.V(1, 0, 0) || b.CurrentChecksum() == "" {
		t.Fatalf("driver not kept: version %v", b.Version())
	}
	if after.RenewFailures != before.RenewFailures+1 || after.Revocations != 0 {
		t.Fatalf("metrics %+v -> %+v, want one renew failure and no revocation", before, after)
	}
	if _, err := c.Query("SELECT name FROM items WHERE id = ?", 1); err != nil {
		t.Fatalf("connection after a transient recovery error: %v", err)
	}
	if _, err := b.Connect(f.appURL(), nil); err != nil {
		t.Fatalf("new connection after a transient recovery error: %v", err)
	}
}

// subscriberCount reports the server's live dedicated channels.
func subscriberCount(s *Server) int {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	return len(s.subscribers)
}

// TestPushResubscribeCatchesMissedNotify: a NOTIFY sent while the push
// channel is down reaches no one, so the bootloader renews as soon as
// its channel is back instead of at the next renew-ahead point.
func TestPushResubscribeCatchesMissedNotify(t *testing.T) {
	f := newFixture(t, 1, WithDefaultLease(time.Hour))
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	b := f.bootloader(t, WithPushUpdates())
	mustConnect(t, b, f.appURL())

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; version %v, stats %+v", what, b.Version(), b.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("the first subscription", func() bool { return subscriberCount(f.drv) == 1 })

	addr := f.drv.Addr()
	f.drv.Stop()
	f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 256)) // its NOTIFY finds no subscriber
	restartServer(t, f.drv, addr)

	waitFor("driver v2", func() bool { return b.Version() == dbver.V(2, 0, 0) })
}
