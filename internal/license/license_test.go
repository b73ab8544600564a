package license

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
)

// stack is a license-mode Drivolution server + target DBMS + runtime.
type stack struct {
	target *dbms.Server
	srv    *core.Server
	rt     *driverimg.Runtime
}

func newStack(t *testing.T, lease time.Duration, opts ...core.ServerOption) *stack {
	t.Helper()
	appDB := sqlmini.NewDB()
	appDB.MustExec("CREATE TABLE t (x INTEGER)")
	target := dbms.NewServer("db", dbms.WithUser("u1", "pw"), dbms.WithUser("u2", "pw"))
	target.AddDatabase("prod", appDB)
	if err := target.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(target.Stop)

	srv, err := core.NewServer("lic", core.NewLocalStore(sqlmini.NewDB()),
		append([]core.ServerOption{core.WithLicenseMode(), core.WithDefaultLease(lease)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         dbver.V(1, 0, 0),
			ProtocolVersion: 1,
		},
		Payload: []byte("license key #1"),
	}
	if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
		t.Fatal(err)
	}

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	return &stack{target: target, srv: srv, rt: rt}
}

func (s *stack) bootloader(t *testing.T, user, id string) *core.Bootloader {
	t.Helper()
	return s.bootloaderVia(t, s.srv.Addr(), user, id)
}

func (s *stack) bootloaderVia(t *testing.T, addr, user, id string) *core.Bootloader {
	t.Helper()
	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{addr}, s.rt,
		core.WithCredentials(user, "pw"),
		core.WithClientID(id),
		core.WithDialTimeout(time.Second))
	t.Cleanup(b.Close)
	return b
}

// crashable returns a bootloader whose lease traffic runs through a
// proxy, and crash, which makes it die the way a client process does:
// the proxy drops every connection first, so Close reaches no server
// and gives nothing back.
func (s *stack) crashable(t *testing.T, user, id string) (b *core.Bootloader, crash func()) {
	t.Helper()
	p, err := faultnet.NewProxy(s.srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	b = s.bootloaderVia(t, p.Addr(), user, id)
	return b, func() {
		p.DropAll()
		b.Close()
	}
}

func (s *stack) url() string { return "dbms://" + s.target.Addr() + "/prod" }

func TestSingleLicenseExclusion(t *testing.T) {
	s := newStack(t, time.Hour)
	b1 := s.bootloader(t, "u1", "c1")
	if _, err := b1.Connect(s.url(), client.Props{"user": "u1", "password": "pw"}); err != nil {
		t.Fatal(err)
	}
	b2 := s.bootloader(t, "u2", "c2")
	_, err := b2.Connect(s.url(), client.Props{"user": "u2", "password": "pw"})
	var pe *core.ProtocolError
	if !errors.As(err, &pe) || pe.Code != core.ErrCodeNoDriver {
		t.Fatalf("second holder should be denied: %v", err)
	}
}

func TestLeaseExpiryFreesLicense(t *testing.T) {
	s := newStack(t, 50*time.Millisecond)
	b1, crash := s.crashable(t, "u1", "c1")
	if _, err := b1.Connect(s.url(), client.Props{"user": "u1", "password": "pw"}); err != nil {
		t.Fatal(err)
	}
	crash() // dies without releasing; no renewals will come

	// After expiry the license frees itself (strategy 3).
	time.Sleep(80 * time.Millisecond)
	b2 := s.bootloader(t, "u2", "c2")
	if _, err := b2.Connect(s.url(), client.Props{"user": "u2", "password": "pw"}); err != nil {
		t.Fatalf("license should free after lease expiry: %v", err)
	}
}

func TestManagerDBMSFailureDetector(t *testing.T) {
	s := newStack(t, time.Hour) // long lease: only the detector can reclaim
	b1, crash := s.crashable(t, "u1", "c1")
	c, err := b1.Connect(s.url(), client.Props{"user": "u1", "password": "pw"})
	if err != nil {
		t.Fatal(err)
	}

	mgr := NewManager(s.srv, DetectorFromDBMS(s.target))
	// While u1 has a live DB session, nothing is reclaimed.
	if n, err := mgr.SweepOnce(); err != nil || n != 0 {
		t.Fatalf("sweep = %d, %v", n, err)
	}

	// The client dies: its DB connection closes, no release was sent.
	_ = c.Close()
	crash()
	waitUntil(t, func() bool { return !s.target.UserHasSession("u1") })

	n, err := mgr.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reclaimed = %d, want 1", n)
	}

	// License is available again.
	b2 := s.bootloader(t, "u2", "c2")
	if _, err := b2.Connect(s.url(), client.Props{"user": "u2", "password": "pw"}); err != nil {
		t.Fatalf("license should be free after reclamation: %v", err)
	}
}

func TestExplicitReleasePath(t *testing.T) {
	s := newStack(t, time.Hour)
	b1 := s.bootloader(t, "u1", "c1")
	if _, err := b1.Connect(s.url(), client.Props{"user": "u1", "password": "pw"}); err != nil {
		t.Fatal(err)
	}
	b1.Close() // unloads the driver, giving the lease back
	b2 := s.bootloader(t, "u2", "c2")
	if _, err := b2.Connect(s.url(), client.Props{"user": "u2", "password": "pw"}); err != nil {
		t.Fatalf("license should be free after explicit release: %v", err)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

// TestSweepJudgesByServerClock: the sweep judges expiry by the server's
// clock, which every lease write binds its expiry from. On a server
// whose clock runs two hours behind the wall clock, an hour lease is
// live by the server's clock although the wall clock has passed its
// expiry, and the sweep must leave it; once the server's clock passes
// the expiry, the sweep reclaims it.
func TestSweepJudgesByServerClock(t *testing.T) {
	var mu sync.Mutex
	skew := -2 * time.Hour
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return time.Now().Add(skew)
	}
	s := newStack(t, time.Hour, core.WithClock(clock))
	lc, err := core.DialLeaseClient(s.srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Request(core.Request{Database: "prod", User: "u1",
		API: dbver.APIOf("JDBC", 3, 0), ClientPlatform: dbver.PlatformLinuxAMD64, ClientID: "c1"}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(s.srv, nil)
	if n, err := m.SweepOnce(); err != nil || n != 0 {
		t.Fatalf("sweep reclaimed %d leases (err %v) that the server's clock holds live, want 0", n, err)
	}
	mu.Lock()
	skew = 0
	mu.Unlock()
	if n, err := m.SweepOnce(); err != nil || n != 1 {
		t.Fatalf("sweep reclaimed %d leases (err %v) that the server's clock holds expired, want 1", n, err)
	}
}

// leaseReadFails is a store whose lease listing fails, as a store that
// lost its backend would answer.
type leaseReadFails struct{ core.Store }

func (s leaseReadFails) Prepare(sql string) (core.Stmt, error) {
	if strings.Contains(sql, "ORDER BY lease_id") {
		return nil, errors.New("lease read refused")
	}
	return s.Store.Prepare(sql)
}

// TestSweepFailuresCounted: every sweep that cannot read the lease
// table returns the error and reclaims nothing.
func TestSweepFailuresCounted(t *testing.T) {
	srv, err := core.NewServer("lic", leaseReadFails{core.NewLocalStore(sqlmini.NewDB())}, core.WithLicenseMode())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(srv, nil)
	for i := 1; i <= 3; i++ {
		n, err := m.SweepOnce()
		if err == nil {
			t.Fatalf("failed sweep %d reported no error", i)
		}
		if n != 0 {
			t.Fatalf("failed sweep %d reclaimed %d leases", i, n)
		}
	}
}
