package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// The fault-injection suite for the Store atomicity contract: every
// multi-statement server operation is driven with the k-th statement
// failing, for every k, and the schema is asserted free of partial
// writes afterwards.

var errInjected = errors.New("injected store fault")

// faultCore counts statements crossing the store boundary and fails
// the k-th one after arming.
type faultCore struct {
	mu     sync.Mutex
	armed  bool
	failAt int
	n      int
}

func (f *faultCore) arm(k int) {
	f.mu.Lock()
	f.armed, f.failAt, f.n = true, k, 0
	f.mu.Unlock()
}

func (f *faultCore) disarm() {
	f.mu.Lock()
	f.armed = false
	f.mu.Unlock()
}

// seen reports how many statements crossed since arming.
func (f *faultCore) seen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *faultCore) tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed {
		return nil
	}
	f.n++
	if f.n == f.failAt {
		return errInjected
	}
	return nil
}

// faultStore wraps a LocalStore and fails the k-th statement after
// arming, whether it arrives as a plain Exec, a prepared execution, or
// a batch member. A batch whose k-th statement is marked to fail errors
// as a whole before executing (matching the atomic-batch contract).
type faultStore struct {
	faultCore
	*LocalStore
}

func (f *faultStore) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	return f.LocalStore.Exec(sql, args...)
}

func (f *faultStore) Prepare(sql string) (Stmt, error) {
	h, err := f.LocalStore.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return faultStmt{f: f, h: h}, nil
}

type faultStmt struct {
	f *faultStore
	h Stmt
}

func (s faultStmt) Exec(args ...any) (*sqlmini.Result, error) {
	if err := s.f.tick(); err != nil {
		return nil, err
	}
	return s.h.Exec(args...)
}
func (s faultStmt) Close() error { return s.h.Close() }

func (f *faultStore) ExecBatch(stmts []Statement) ([]*sqlmini.Result, error) {
	for range stmts {
		if err := f.tick(); err != nil {
			return nil, err // atomic batch: fails whole, applies nothing
		}
	}
	return f.LocalStore.ExecBatch(stmts)
}

// faultFixture builds a server over the given store with one driver
// and two permissions for it, plus n leases (expired when the clock
// says so).
type faultFixture struct {
	srv   *Server
	db    *sqlmini.DB
	drvID int64
}

func newFaultFixture(t *testing.T, mk func(*sqlmini.DB) Store, clock func() time.Time) (*faultFixture, Store) {
	t.Helper()
	db := sqlmini.NewDB()
	st := mk(db)
	opts := []ServerOption{}
	if clock != nil {
		opts = append(opts, WithClock(clock))
	}
	srv, err := NewServer("fault", st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &faultFixture{srv: srv, db: db}, st
}

func (fx *faultFixture) counts(t *testing.T) (drivers, perms, leases int64) {
	t.Helper()
	for i, table := range []string{DriversTable, PermissionTable, LeasesTable} {
		res, err := fx.db.Exec("SELECT count(*) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			drivers = res.Rows[0][0].Int()
		case 1:
			perms = res.Rows[0][0].Int()
		case 2:
			leases = res.Rows[0][0].Int()
		}
	}
	return
}

// orphanPerms counts permission rows whose driver row is gone — the
// partial-write shape DeleteDriver can leak without atomicity.
func (fx *faultFixture) orphanState(t *testing.T, drvID int64) (driverExists bool, permsLeft int64) {
	t.Helper()
	res, err := fx.db.Exec("SELECT count(*) FROM "+DriversTable+" WHERE driver_id = $id",
		sqlmini.Args{"id": drvID})
	if err != nil {
		t.Fatal(err)
	}
	driverExists = res.Rows[0][0].Int() == 1
	res, err = fx.db.Exec("SELECT count(*) FROM "+PermissionTable+" WHERE driver_id = $id",
		sqlmini.Args{"id": drvID})
	if err != nil {
		t.Fatal(err)
	}
	return driverExists, res.Rows[0][0].Int()
}

// seedDirect inserts a driver + two permissions straight into the
// embedded db, bypassing the (possibly armed) store.
func (fx *faultFixture) seedDirect(t *testing.T) {
	t.Helper()
	local := NewLocalStore(fx.db)
	rec := DriverRecord{
		DriverID: 1, APIName: "JDBC", APIMajor: 3, APIMinor: -1,
		Platform: "linux-x86_64", Version: dbver.V(1, 0, 0),
		BinaryCode: testImageBlob(t, "JDBC", dbver.V(1, 0, 0)), Format: "IMAGE",
	}
	if err := insertDriver(local, rec); err != nil {
		t.Fatal(err)
	}
	fx.drvID = 1
	for i := int64(1); i <= 2; i++ {
		if err := insertPermission(local, Permission{
			PermissionID: i, DriverID: 1, Database: "prod",
			RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit,
			TransferMethod: TransferAny, LeaseTime: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func grantReq() Request {
	return Request{
		Database: "prod", User: "app",
		API:            dbver.APIOf("JDBC", 3, -1),
		ClientPlatform: "linux-x86_64",
		ClientID:       "fault-test",
	}
}

// runOpFaults drives op with the k-th store statement failing for
// every k the operation actually issues, calling check after each
// failed attempt. mk builds the store under test.
func runOpFaults(t *testing.T, name string, mk func(*sqlmini.DB) Store,
	setup func(*faultFixture), op func(*faultFixture) error,
	check func(t *testing.T, fx *faultFixture, k int)) {
	t.Helper()
	// First pass: count the op's statements with an unarmed store.
	fx, st := newFaultFixture(t, mk, nil)
	if setup != nil {
		setup(fx)
	}
	fc := faultCoreOf(st)
	fc.arm(1 << 30) // count without failing
	if err := op(fx); err != nil {
		t.Fatalf("%s: clean run failed: %v", name, err)
	}
	total := fc.seen()
	if total == 0 {
		t.Fatalf("%s: op issued no statements; fault harness miswired", name)
	}
	for k := 1; k <= total; k++ {
		fx, st := newFaultFixture(t, mk, nil)
		if setup != nil {
			setup(fx)
		}
		fc := faultCoreOf(st)
		fc.arm(k)
		err := op(fx)
		fc.disarm()
		if err == nil {
			// Retries (id-collision loops) can absorb a fault; the op
			// succeeding fully is acceptable — invariants still hold.
			continue
		}
		if !isInjected(err) {
			t.Fatalf("%s k=%d: unexpected error %v", name, k, err)
		}
		check(t, fx, k)
	}
}

// isInjected matches the injected fault through both error wrapping
// and the ProtocolError message flattening the grant path performs.
func isInjected(err error) bool {
	return errors.Is(err, errInjected) ||
		(err != nil && strings.Contains(err.Error(), errInjected.Error()))
}

func faultCoreOf(st Store) *faultCore { return &st.(*faultStore).faultCore }

func mkFault(db *sqlmini.DB) Store { return &faultStore{LocalStore: NewLocalStore(db)} }

// TestFaultInjectionNoPartialWritesOnLocalStore: no k-th statement
// failure of any multi-statement operation leaves partial rows behind.
func TestFaultInjectionNoPartialWritesOnLocalStore(t *testing.T) {
	t.Run("AddDriver", func(t *testing.T) {
		runOpFaults(t, "AddDriver", mkFault, nil,
			func(fx *faultFixture) error {
				_, err := fx.srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
				return err
			},
			func(t *testing.T, fx *faultFixture, k int) {
				drivers, _, _ := fx.counts(t)
				if drivers != 0 {
					t.Fatalf("k=%d: %d partial driver rows", k, drivers)
				}
			})
	})
	t.Run("SetPermission", func(t *testing.T) {
		runOpFaults(t, "SetPermission", mkFault,
			func(fx *faultFixture) { fx.seedDirect(t) },
			func(fx *faultFixture) error {
				_, err := fx.srv.SetPermission(Permission{
					DriverID: fx.drvID, Database: "prod",
					RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit,
					TransferMethod: TransferAny,
				})
				return err
			},
			func(t *testing.T, fx *faultFixture, k int) {
				_, perms, _ := fx.counts(t)
				if perms != 2 {
					t.Fatalf("k=%d: permission rows = %d, want the seeded 2", k, perms)
				}
			})
	})
	t.Run("DeleteDriver", func(t *testing.T) {
		runOpFaults(t, "DeleteDriver", mkFault,
			func(fx *faultFixture) { fx.seedDirect(t) },
			func(fx *faultFixture) error { return fx.srv.DeleteDriver(fx.drvID) },
			func(t *testing.T, fx *faultFixture, k int) {
				driverExists, perms := fx.orphanState(t, fx.drvID)
				if !driverExists || perms != 2 {
					t.Fatalf("k=%d: partial delete survived (driver=%v perms=%d)", k, driverExists, perms)
				}
			})
	})
	t.Run("newLease", func(t *testing.T) {
		runOpFaults(t, "newLease", mkFault,
			func(fx *faultFixture) { fx.seedDirect(t) },
			func(fx *faultFixture) error {
				_, perr := fx.srv.grant(grantReq(), false)
				if perr != nil {
					return errors.New(perr.Message)
				}
				return nil
			},
			func(t *testing.T, fx *faultFixture, k int) {
				_, _, leases := fx.counts(t)
				if leases != 0 {
					t.Fatalf("k=%d: %d partial lease rows", k, leases)
				}
			})
	})
}

// TestFaultInjectionReapAtomicOnLocalStore: a failed sweep (its single
// UPDATE injected to fail) applies nothing and drops no staged blob,
// and a clean retry completes it.
func TestFaultInjectionReapAtomicOnLocalStore(t *testing.T) {
	now := time.Unix(10_000, 0).UTC()
	db := sqlmini.NewDB()
	st := &faultStore{LocalStore: NewLocalStore(db)}
	srv, err := NewServer("fault", st, WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		db.MustExec(`INSERT INTO `+LeasesTable+` (lease_id, driver_id, database, user,
			client_id, granted_at, expires_at, released, renewals)
			VALUES ($id, 1, 'prod', 'app', 'c', $g, $e, FALSE, 0)`,
			sqlmini.Args{"id": i, "g": now.Add(-2 * time.Hour), "e": now.Add(-time.Hour)})
		srv.stageTransfer(uint64(i), []byte{1, 2, 3}, now.Add(-time.Hour))
	}
	st.arm(1)
	_, err = srv.ReapExpiredLeases()
	st.disarm()
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v", err)
	}
	res := db.MustExec(`SELECT count(*) FROM ` + LeasesTable + ` WHERE released = TRUE`)
	if n := res.Rows[0][0].Int(); n != 0 {
		t.Fatalf("failed sweep must apply nothing, released = %d", n)
	}
	srv.pendingMu.Lock()
	pending := len(srv.pending)
	srv.pendingMu.Unlock()
	if pending != 5 {
		t.Fatalf("failed sweep dropped staged blobs (%d left)", pending)
	}
	// Clean retry completes.
	n, err := srv.ReapExpiredLeases()
	if err != nil || n != 5 {
		t.Fatalf("clean sweep: n=%d err=%v", n, err)
	}
	srv.pendingMu.Lock()
	pending = len(srv.pending)
	srv.pendingMu.Unlock()
	if pending != 0 {
		t.Fatalf("swept leases must drop staged blobs, %d left", pending)
	}
}

// TestDeleteUnknownDriverTouchesNothing: DeleteDriver of an id with no
// driver row answers "no driver" and leaves every existing driver and
// permission in place.
func TestDeleteUnknownDriverTouchesNothing(t *testing.T) {
	fx, _ := newFaultFixture(t, mkFault, nil)
	fx.seedDirect(t)
	err := fx.srv.DeleteDriver(77)
	if err == nil || !strings.Contains(err.Error(), "no driver 77") {
		t.Fatalf("err = %v, want no driver 77", err)
	}
	drivers, perms, _ := fx.counts(t)
	if driverExists, kept := fx.orphanState(t, fx.drvID); drivers != 1 || !driverExists || kept != 2 || perms != 2 {
		t.Fatalf("drivers=%d perms=%d (driver %d: exists=%v perms=%d), want the seeded 1 driver and 2 permissions",
			drivers, perms, fx.drvID, driverExists, kept)
	}
}

// TestRevokeWriteFailureKeepsLease: a renewal that must be revoked,
// with each of its statements failing in turn. Whichever fails —
// the catalog reload, the lease read or the revocation's UPDATE — the
// lease stays live, so the answer is INTERNAL, never REVOKED: the
// client keeps its driver and renews again (§4.1.3), and the clean
// retry revokes.
func TestRevokeWriteFailureKeepsLease(t *testing.T) {
	setup := func() (*faultFixture, *faultCore, Request) {
		fx, st := newFaultFixture(t, mkFault, nil)
		fx.seedDirect(t)
		offer, perr := fx.srv.grant(grantReq(), false)
		if perr != nil {
			t.Fatal(perr)
		}
		if _, err := fx.srv.SetPermission(Permission{DriverID: fx.drvID, Database: "prod",
			RenewPolicy: RenewRevoke, ExpirationPolicy: AfterCommit, TransferMethod: TransferAny}); err != nil {
			t.Fatal(err)
		}
		renew := grantReq()
		renew.LeaseID, renew.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
		return fx, faultCoreOf(st), renew
	}
	released := func(fx *faultFixture, id uint64) bool {
		res := fx.db.MustExec(`SELECT released FROM `+LeasesTable+` WHERE lease_id = $id`,
			sqlmini.Args{"id": int64(id)})
		return res.Rows[0][0].Bool()
	}
	fx, fc, renew := setup()
	fc.arm(1 << 30) // count without failing
	if _, perr := fx.srv.grant(renew, false); perr == nil || perr.Code != ErrCodeRevoked {
		t.Fatalf("clean renewal answered %v, want REVOKED", perr)
	}
	total := fc.seen()
	for k := 1; k <= total; k++ {
		fx, fc, renew := setup()
		fc.arm(k)
		_, perr := fx.srv.grant(renew, false)
		fc.disarm()
		if perr == nil || perr.Code != ErrCodeInternal || !strings.Contains(perr.Message, errInjected.Error()) {
			t.Fatalf("k=%d of %d: renewal answered %v, want INTERNAL with the injected fault", k, total, perr)
		}
		if released(fx, renew.LeaseID) {
			t.Fatalf("k=%d of %d: the failed renewal released the lease", k, total)
		}
		if _, perr := fx.srv.grant(renew, false); perr == nil || perr.Code != ErrCodeRevoked {
			t.Fatalf("k=%d of %d: clean retry answered %v, want REVOKED", k, total, perr)
		}
		if !released(fx, renew.LeaseID) {
			t.Fatalf("k=%d of %d: the revoked lease is still live", k, total)
		}
	}
}
