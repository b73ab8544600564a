package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

func v2TestDB(t *testing.T) *sqlmini.DB {
	t.Helper()
	db := sqlmini.NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)`)
	db.MustExec(`INSERT INTO t (id, v) VALUES (1, 10), (2, 20)`)
	return db
}

func countT(t *testing.T, st Store) int64 {
	t.Helper()
	res, err := st.Exec(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

// TestLocalStoreCapabilities: LocalStore always reports its table
// versions, and each catalog table's writes move only its own counter.
func TestLocalStoreCapabilities(t *testing.T) {
	db := v2TestDB(t)
	st := NewLocalStore(db)
	if err := EnsureSchema(st); err != nil {
		t.Fatal(err)
	}
	d0, p0, ok := st.Versions()
	if !ok {
		t.Fatal("LocalStore must report table versions")
	}
	db.MustExec(`INSERT INTO t (id, v) VALUES (3, 30)`)
	if err := insertDriver(st, DriverRecord{DriverID: 1, APIName: "JDBC", BinaryCode: []byte{1}, Format: "IMAGE"}); err != nil {
		t.Fatal(err)
	}
	d1, p1, _ := st.Versions()
	if d1 <= d0 || p1 != p0 {
		t.Fatalf("a driver write must move only drivers: (%d,%d) then (%d,%d)", d0, p0, d1, p1)
	}
	if err := insertPermission(st, Permission{PermissionID: 1, DriverID: 1, Database: "prod"}); err != nil {
		t.Fatal(err)
	}
	if d, p, _ := st.Versions(); d != d1 || p <= p1 {
		t.Fatalf("a permission write must move only perms: (%d,%d) then (%d,%d)", d1, p1, d, p)
	}
}

// TestLocalStoreTx: commit publishes, rollback reverts, reuse after
// finish errors.
func TestLocalStoreTx(t *testing.T) {
	st := NewLocalStore(v2TestDB(t))

	tx, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t (id, v) VALUES (3, 30)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := countT(t, st); n != 3 {
		t.Fatalf("after commit count = %d", n)
	}

	tx, err = st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE t SET v = 999 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := countT(t, st); n != 3 {
		t.Fatalf("after rollback count = %d", n)
	}
	res, _ := st.Exec(`SELECT v FROM t WHERE id = 2`)
	if res.Rows[0][0].Int() != 20 {
		t.Fatal("rollback must revert the update")
	}
	if _, err := tx.Exec(`SELECT 1`); !errors.Is(err, ErrTxDone) {
		t.Fatalf("exec after rollback: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after rollback: %v", err)
	}
}

// TestLocalStoreBatchRollsBackOnError: a batch whose later statement
// fails reverts the statements before it.
func TestLocalStoreBatchRollsBackOnError(t *testing.T) {
	st := NewLocalStore(v2TestDB(t))
	_, err := st.ExecBatch([]Statement{
		{SQL: `DELETE FROM t WHERE id = 1`},
		{SQL: `INSERT INTO t (id, v) VALUES (2, 0)`},
	})
	if !errors.Is(err, sqlmini.ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	if n := countT(t, st); n != 2 {
		t.Fatalf("failed unit must revert: count = %d", n)
	}
}

// external boots a dbms server holding a "meta" database and returns a
// ConnStore dialing it over a pinned v1 driver.
func external(t *testing.T, opts ...ConnStoreOption) (*dbms.Server, *ConnStore) {
	t.Helper()
	return externalProto(t, 1, opts...)
}

// externalProto is external with the driver's protocol ceiling chosen:
// 1 yields a v1 session (no remote capabilities), 2 a full v2 session.
func externalProto(t *testing.T, proto uint16, opts ...ConnStoreOption) (*dbms.Server, *ConnStore) {
	t.Helper()
	db := sqlmini.NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)`)
	db.MustExec(`INSERT INTO t (id, v) VALUES (1, 10), (2, 20)`)
	srv := dbms.NewServer("legacy", dbms.WithUser("svc", "pw"))
	srv.AddDatabase("meta", db)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	addr := srv.Addr()
	drv := dbms.NewNativeDriver(dbver.V(1, 0, 0), proto, dbms.WithProtocolFloor(1))
	store := NewConnStore(func() (client.Conn, error) {
		return drv.Connect("dbms://"+addr+"/meta", client.Props{"user": "svc", "password": "pw"})
	}, opts...)
	t.Cleanup(store.Close)
	return srv, store
}

// TestConnStoreTxAffinityAndBatch: transactions pin one connection and
// commit/rollback correctly; batches travel as one server-side frame.
func TestConnStoreTxAffinityAndBatch(t *testing.T) {
	srv, store := external(t)

	tx, err := store.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE t SET v = 99 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// A plain statement during the open tx uses another connection and
	// must not see or disturb the tx (sqlmini sessions are atomic, not
	// isolated, so the uncommitted write IS visible — what matters is
	// that the statement doesn't block and the rollback reverts).
	if _, err := store.Exec(`SELECT count(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, err := store.Exec(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Fatal("rollback must revert the remote update")
	}

	before := srv.BatchesServed()
	rs, err := store.ExecBatch([]Statement{
		{SQL: `UPDATE t SET v = v + 1 WHERE id = 1`},
		{SQL: `SELECT v FROM t WHERE id = 1`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Rows[0][0].Int() != 11 {
		t.Fatalf("batch results = %+v", rs)
	}
	if got := srv.BatchesServed() - before; got != 1 {
		t.Fatalf("batch frames = %d, want 1 (one wire round trip)", got)
	}

	// A failing batch rolls back server-side.
	if _, err := store.ExecBatch([]Statement{
		{SQL: `UPDATE t SET v = 0 WHERE id = 1`},
		{SQL: `INSERT INTO t (id, v) VALUES (1, 1)`},
	}); err == nil {
		t.Fatal("batch must fail")
	}
	res, _ = store.Exec(`SELECT v FROM t WHERE id = 1`)
	if res.Rows[0][0].Int() != 11 {
		t.Fatal("failed batch must leave no partial effects")
	}
}

// TestConnStoreConcurrentStatements: the pool removes the old
// single-connection head-of-line blocking — concurrent statements all
// succeed (and concurrent transactions don't deadlock each other).
func TestConnStoreConcurrentStatements(t *testing.T) {
	_, store := external(t, WithPoolSize(3))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%8 == 0 {
				tx, err := store.Begin()
				if err == nil {
					if _, err = tx.Exec(`SELECT count(*) FROM t`); err == nil {
						err = tx.Commit()
					}
				}
				errs <- err
				return
			}
			_, err := store.Exec(`SELECT count(*) FROM t`)
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnStoreRedialSemantics is the redial-correctness contract:
// after the legacy database bounces, a SELECT (provably replayable)
// retries transparently, while a mutation that died mid-flight
// surfaces ErrExecOutcomeUnknown instead of being double-applied.
func TestConnStoreRedialSemantics(t *testing.T) {
	srv, store := external(t)
	// Prime the pool with a connection, then bounce the server so that
	// connection is dead-but-pooled.
	if _, err := store.Exec(`SELECT count(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	bounce := func() {
		srv.Stop()
		if err := srv.Start(addr); err != nil {
			t.Fatal(err)
		}
	}

	bounce()
	res, err := store.Exec(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatalf("read-only statement must replay across a bounce: %v", err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}

	// Dead pooled connection again, now with a mutation: ambiguous.
	bounce()
	_, err = store.Exec(`UPDATE t SET v = v + 1 WHERE id = 1`)
	if !errors.Is(err, ErrExecOutcomeUnknown) {
		t.Fatalf("mutation across a dead connection must be ambiguous, got %v", err)
	}
	// The store recovered: the next statement dials fresh and works,
	// and the update was NOT silently double-applied (it was never
	// applied at all here — the frame died with the old listener).
	res, err = store.Exec(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 10 {
		t.Fatalf("v = %d, want 10 (no double-apply, no ghost apply)", got)
	}
}

// TestConnStoreStatementErrorKeepsConnection: SQL-level errors pass
// through without burning the connection or triggering replay.
func TestConnStoreStatementErrorKeepsConnection(t *testing.T) {
	_, store := external(t)
	if _, err := store.Exec(`INSERT INTO t (id, v) VALUES (1, 1)`); err == nil {
		t.Fatal("duplicate insert must fail")
	} else if errors.Is(err, ErrExecOutcomeUnknown) {
		t.Fatalf("statement error misclassified as connection loss: %v", err)
	}
	if n := countT(t, store); n != 2 {
		t.Fatalf("count = %d", n)
	}
}

// TestCountingStorePreservesSemantics: wrapping a store must not change
// observable behavior, only count it.
func TestCountingStorePreservesSemantics(t *testing.T) {
	cs := NewCountingStore(NewLocalStore(v2TestDB(t)))
	if _, err := cs.ExecBatch([]Statement{
		{SQL: `DELETE FROM t WHERE id = 1`},
		{SQL: `INSERT INTO t (id, v) VALUES (2, 0)`},
	}); err == nil {
		t.Fatal("want error")
	}
	if n := countT(t, cs); n != 2 {
		t.Fatalf("counting wrapper must preserve batch rollback: count = %d", n)
	}
	if _, _, ok := cs.Versions(); !ok {
		t.Fatal("counting wrapper must keep the inner store's versions")
	}

	// A batch is one round trip; every prepared execution counts.
	cs.Reset()
	if _, err := cs.ExecBatch([]Statement{{SQL: `SELECT 1`}, {SQL: `SELECT 2`}}); err != nil {
		t.Fatal(err)
	}
	if cs.RoundTrips() != 1 || cs.Statements() != 2 || cs.Batches() != 1 {
		t.Fatalf("batch: roundtrips=%d statements=%d batches=%d", cs.RoundTrips(), cs.Statements(), cs.Batches())
	}
	h, err := cs.Prepare(`SELECT v FROM t WHERE id = $id`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res, err := h.Exec(sqlmini.Args{"id": int64(2)}); err != nil || res.Rows[0][0].Int() != 20 {
			t.Fatalf("prepared exec: %v %+v", err, res)
		}
	}
	if cs.RoundTrips() != 3 || cs.Statements() != 4 {
		t.Fatalf("after 2 prepared execs: roundtrips=%d statements=%d", cs.RoundTrips(), cs.Statements())
	}
}

// TestConnStoreRejectsTxControlViaExec: on a pooled store, session
// transaction state must go through Begin — a BEGIN slipped through
// plain Exec would park an open transaction in the pool for an
// unrelated borrower.
func TestConnStoreRejectsTxControlViaExec(t *testing.T) {
	_, store := external(t)
	for _, sql := range []string{"BEGIN", "  commit", "ROLLBACK", "\trollback work"} {
		if _, err := store.Exec(sql); err == nil {
			t.Fatalf("Exec(%q) must be rejected", sql)
		}
	}
	// Statements merely sharing a keyword prefix pass through.
	if _, err := store.Exec("SELECT count(*) FROM t"); err != nil {
		t.Fatal(err)
	}
}
