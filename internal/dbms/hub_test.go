package dbms

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/sqlmini"
)

// TestInProcessHubMatchesWire: the in-process Execute and ExecuteBatch
// a cluster hub funnels its writes through take the same statement path
// as the wire frames — the same up-front batch check, and one
// replication per mutating statement.
func TestInProcessHubMatchesWire(t *testing.T) {
	balance := func(t *testing.T, db *sqlmini.DB) int64 {
		t.Helper()
		return db.MustExec("SELECT balance FROM accounts WHERE id = 1").Rows[0][0].Int()
	}
	const update = "UPDATE accounts SET balance = 0 WHERE id = 1"

	t.Run("atomic batch check", func(t *testing.T) {
		s := startServer(t)
		bc := asBatchConn(t, dial(t, s, 1))
		for reason, second := range map[string]string{
			"transaction control inside an atomic batch":           "COMMIT",
			"DDL cannot roll back and is not batchable atomically": "CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY)",
		} {
			batch := []client.Statement{{SQL: update}, {SQL: second}}
			_, wireErr := bc.ExecBatch(true, batch)
			_, err := s.ExecuteBatch("app", batch)
			for _, e := range []error{wireErr, err} {
				if e == nil || !strings.Contains(e.Error(), "batch statement 2:") || !strings.HasSuffix(e.Error(), reason) {
					t.Fatalf("%s: msgExecBatch refused with %v, ExecuteBatch with %v; want statement 2 refused: %s",
						second, wireErr, err, reason)
				}
			}
		}
		if got := balance(t, s.Database("app")); got != 100 {
			t.Fatalf("a refused batch ran its first statement: balance = %d, want 100", got)
		}
	})

	t.Run("replication", func(t *testing.T) {
		s := startServer(t)
		replica := NewServer("replica")
		replica.AddDatabase("app", fixtureDB())
		s.AttachReplica(replica)
		if _, err := s.Execute("app", "UPDATE accounts SET balance = balance + $d WHERE id = 1", sqlmini.Args{"d": 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExecuteBatch("app", []client.Statement{
			{SQL: "UPDATE accounts SET balance = balance + ? WHERE id = 1", Args: []any{10}},
			{SQL: "SELECT count(*) FROM accounts"},
			{SQL: "INSERT INTO accounts (id, balance) VALUES (3, 300)"},
		}); err != nil {
			t.Fatal(err)
		}
		rdb := replica.Database("app")
		if got := balance(t, rdb); got != 111 {
			t.Fatalf("replica balance = %d, want 111 (each increment applied exactly once)", got)
		}
		if n := rdb.MustExec("SELECT count(*) FROM accounts WHERE id = 3").Rows[0][0].Int(); n != 1 {
			t.Fatalf("replica holds %d copies of the batch's insert, want 1", n)
		}
	})
}
