package dbms

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/sqlmini"
)

func asBatchConn(t *testing.T, c client.Conn) client.BatchConn {
	t.Helper()
	bc, ok := c.(client.BatchConn)
	if !ok {
		t.Fatalf("%T must implement client.BatchConn", c)
	}
	return bc
}

// TestBatchOneRoundTrip: N statements, one frame each way — the server
// counts one batch and N statements.
func TestBatchOneRoundTrip(t *testing.T) {
	s := startServer(t)
	bc := asBatchConn(t, dial(t, s, 1))

	rs, err := bc.ExecBatch(true, []client.Statement{
		{SQL: "UPDATE accounts SET balance = balance + 1 WHERE id = ?", Args: []any{1}},
		{SQL: "UPDATE accounts SET balance = balance - 1 WHERE id = ?", Args: []any{2}},
		{SQL: "SELECT balance FROM accounts WHERE id = $id", Args: []any{sqlmini.Args{"id": int64(1)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Affected != 1 || rs[1].Affected != 1 {
		t.Fatalf("results = %+v", rs)
	}
	if got := rs[2].Rows[0][0].Int(); got != 101 {
		t.Fatalf("balance = %d", got)
	}
	if b := s.BatchesServed(); b != 1 {
		t.Fatalf("batches = %d, want 1", b)
	}
	if q := s.QueriesServed(); q != 3 {
		t.Fatalf("queries = %d, want 3", q)
	}
}

// TestAtomicBatchRollsBackOnFailure: the money must not move when a
// later statement of the batch fails.
func TestAtomicBatchRollsBackOnFailure(t *testing.T) {
	s := startServer(t)
	bc := asBatchConn(t, dial(t, s, 1))

	_, err := bc.ExecBatch(true, []client.Statement{
		{SQL: "UPDATE accounts SET balance = balance - 50 WHERE id = 1"},
		{SQL: "INSERT INTO accounts (id, balance) VALUES (1, 0)"}, // duplicate PK
	})
	if err == nil {
		t.Fatal("batch must fail")
	}
	if !strings.Contains(err.Error(), "batch statement 2") {
		t.Fatalf("error must name the failing statement: %v", err)
	}
	res, qerr := dial(t, s, 1).Query("SELECT balance FROM accounts WHERE id = 1")
	if qerr != nil {
		t.Fatal(qerr)
	}
	if got := res.Rows[0][0].Int(); got != 100 {
		t.Fatalf("balance after rolled-back batch = %d, want 100", got)
	}
}

// TestAtomicBatchRejectsTxControl: atomic batches own their
// transaction; embedded BEGIN/COMMIT is a protocol error, and DDL —
// which the wrapping ROLLBACK could not revert — is rejected up front
// (same contract as LocalStore.ExecBatch).
func TestAtomicBatchRejectsTxControl(t *testing.T) {
	s := startServer(t)
	bc := asBatchConn(t, dial(t, s, 1))
	_, err := bc.ExecBatch(true, []client.Statement{{SQL: "BEGIN"}})
	if err == nil || !strings.Contains(err.Error(), "transaction control") {
		t.Fatalf("err = %v", err)
	}
	_, err = bc.ExecBatch(true, []client.Statement{
		{SQL: "CREATE TABLE evil (id INTEGER)"},
		{SQL: "INSERT INTO accounts (id, balance) VALUES (1, 0)"},
	})
	if err == nil || !strings.Contains(err.Error(), "DDL") {
		t.Fatalf("err = %v", err)
	}
	if _, qerr := dial(t, s, 1).Query("SELECT count(*) FROM evil"); qerr == nil {
		t.Fatal("rejected batch must not have created the table")
	}
}

// TestNonAtomicBatchCarriesTxControl: a non-atomic batch may ship its
// own BEGIN/.../COMMIT and behaves exactly like the statements sent
// one frame at a time.
func TestNonAtomicBatchCarriesTxControl(t *testing.T) {
	s := startServer(t)
	bc := asBatchConn(t, dial(t, s, 1))
	rs, err := bc.ExecBatch(false, []client.Statement{
		{SQL: "BEGIN"},
		{SQL: "UPDATE accounts SET balance = 0 WHERE id = 1"},
		{SQL: "ROLLBACK"},
		{SQL: "SELECT balance FROM accounts WHERE id = 1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rs[3].Rows[0][0].Int(); got != 100 {
		t.Fatalf("rolled-back update leaked: balance = %d", got)
	}
}

// TestAtomicBatchInsideClientTxRejected: with a transaction already
// open on the session, the server cannot honor the atomic-batch
// rollback promise, so the frame is refused and the outer transaction
// left untouched.
func TestAtomicBatchInsideClientTxRejected(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	bc := asBatchConn(t, c)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	_, err := bc.ExecBatch(true, []client.Statement{
		{SQL: "UPDATE accounts SET balance = 7 WHERE id = 1"},
	})
	if err == nil || !strings.Contains(err.Error(), "open transaction") {
		t.Fatalf("err = %v", err)
	}
	// The outer transaction is intact and still the client's to end.
	if _, err := c.Exec("UPDATE accounts SET balance = 8 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT balance FROM accounts WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 100 {
		t.Fatalf("outer rollback must undo everything: balance = %d", got)
	}
}

// TestBatchReplication: a committed atomic batch reaches replicas; a
// rolled-back one never does.
func TestBatchReplication(t *testing.T) {
	master := startServer(t)
	replica := NewServer("replica")
	replica.AddDatabase("app", fixtureDB())
	master.AttachReplica(replica)

	bc := asBatchConn(t, dial(t, master, 1))
	if _, err := bc.ExecBatch(true, []client.Statement{
		{SQL: "UPDATE accounts SET balance = 111 WHERE id = 1"},
	}); err != nil {
		t.Fatal(err)
	}
	res := replica.Database("app").MustExec("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 111 {
		t.Fatalf("replica balance = %d, want 111", res.Rows[0][0].Int())
	}

	if _, err := bc.ExecBatch(true, []client.Statement{
		{SQL: "UPDATE accounts SET balance = 222 WHERE id = 1"},
		{SQL: "INSERT INTO accounts (id, balance) VALUES (2, 0)"}, // duplicate
	}); err == nil {
		t.Fatal("batch must fail")
	}
	res = replica.Database("app").MustExec("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 111 {
		t.Fatalf("rolled-back batch must not replicate: replica balance = %d", res.Rows[0][0].Int())
	}

	// A NON-atomic batch failing mid-way keeps its applied prefix on
	// the primary, so the prefix must reach the replicas too — exactly
	// as if the statements had been sent one frame at a time.
	if _, err := bc.ExecBatch(false, []client.Statement{
		{SQL: "UPDATE accounts SET balance = 333 WHERE id = 1"},
		{SQL: "INSERT INTO accounts (id, balance) VALUES (2, 0)"}, // duplicate
	}); err == nil {
		t.Fatal("batch must fail")
	}
	res = replica.Database("app").MustExec("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 333 {
		t.Fatalf("non-atomic prefix must replicate: replica balance = %d", res.Rows[0][0].Int())
	}
}
