package sqlmini

import (
	"errors"
	"testing"
	"time"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE users (
		id INTEGER NOT NULL PRIMARY KEY,
		name VARCHAR NOT NULL,
		age INTEGER,
		email VARCHAR
	)`)
	db.MustExec(`INSERT INTO users (id, name, age, email) VALUES
		(1, 'alice', 30, 'alice@example.com'),
		(2, 'bob', 25, NULL),
		(3, 'carol', 35, 'carol@example.com'),
		(4, 'dave', NULL, 'dave@example.com')`)
	return db
}

func TestSelectAll(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT * FROM users ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(res.Cols) != 4 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Cols))
	}
	if res.Rows[0][1].Str() != "alice" {
		t.Errorf("first row name = %s", res.Rows[0][1])
	}
}

func TestSelectWhere(t *testing.T) {
	db := newTestDB(t)
	tests := []struct {
		name  string
		sql   string
		args  []any
		wants []string // expected names in order
	}{
		{name: "gt", sql: "SELECT name FROM users WHERE age > 26 ORDER BY name", wants: []string{"alice", "carol"}},
		{name: "eq", sql: "SELECT name FROM users WHERE name = 'bob'", wants: []string{"bob"}},
		{name: "neq", sql: "SELECT name FROM users WHERE id <> 1 ORDER BY name", wants: []string{"bob", "carol", "dave"}},
		{name: "null cmp excluded", sql: "SELECT name FROM users WHERE age < 100 ORDER BY name", wants: []string{"alice", "bob", "carol"}},
		{name: "is null", sql: "SELECT name FROM users WHERE age IS NULL", wants: []string{"dave"}},
		{name: "is not null", sql: "SELECT name FROM users WHERE email IS NOT NULL AND age IS NOT NULL ORDER BY name", wants: []string{"alice", "carol"}},
		{name: "like", sql: "SELECT name FROM users WHERE email LIKE '%example.com' ORDER BY name", wants: []string{"alice", "carol", "dave"}},
		{name: "like case-insensitive", sql: "SELECT name FROM users WHERE name LIKE 'ALICE'", wants: []string{"alice"}},
		{name: "not like", sql: "SELECT name FROM users WHERE name NOT LIKE '%a%' ORDER BY name", wants: []string{"bob"}},
		{name: "between", sql: "SELECT name FROM users WHERE age BETWEEN 25 AND 30 ORDER BY name", wants: []string{"alice", "bob"}},
		{name: "not between", sql: "SELECT name FROM users WHERE age NOT BETWEEN 25 AND 30", wants: []string{"carol"}},
		{name: "positional param", sql: "SELECT name FROM users WHERE id = ?", args: []any{2}, wants: []string{"bob"}},
		{name: "named param", sql: "SELECT name FROM users WHERE name LIKE $pat ORDER BY name", args: []any{Args{"pat": "%o%"}}, wants: []string{"bob", "carol"}},
		{name: "and or", sql: "SELECT name FROM users WHERE (age > 30 OR age < 26) AND email IS NOT NULL", wants: []string{"carol"}},
		{name: "limit", sql: "SELECT name FROM users ORDER BY id LIMIT 2", wants: []string{"alice", "bob"}},
		{name: "arith in where", sql: "SELECT name FROM users WHERE age + 5 = 30", wants: []string{"bob"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := db.Exec(tt.sql, tt.args...)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range res.Rows {
				got = append(got, r[0].Str())
			}
			if len(got) != len(tt.wants) {
				t.Fatalf("got %v, want %v", got, tt.wants)
			}
			for i := range got {
				if got[i] != tt.wants[i] {
					t.Fatalf("got %v, want %v", got, tt.wants)
				}
			}
		})
	}
}

func TestOrderByDescAndNulls(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT name FROM users ORDER BY age DESC, name")
	if err != nil {
		t.Fatal(err)
	}
	// Descending: NULL sorts last when DESC (NULLs first ascending).
	want := []string{"carol", "alice", "bob", "dave"}
	for i, w := range want {
		if res.Rows[i][0].Str() != w {
			t.Fatalf("row %d = %s, want %s", i, res.Rows[i][0], w)
		}
	}
}

// TestAggregates: COUNT(*) counts every row, and MAX skips a NULL.
func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT count(*), max(age) AS oldest FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0] != "count" || res.Cols[1] != "oldest" {
		t.Errorf("cols = %v", res.Cols)
	}
	r := res.Rows[0]
	if r[0].Int() != 4 {
		t.Errorf("count(*) = %d", r[0].Int())
	}
	if r[1].Int() != 35 {
		t.Errorf("max = %d", r[1].Int())
	}
}

func TestAggregateWithWhereEmptyResult(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT count(*), max(age) FROM users WHERE id > 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("count = %d", res.Rows[0][0].Int())
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("max over empty set should be NULL, got %s", res.Rows[0][1])
	}
}

func TestUpdate(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("UPDATE users SET age = age + 1 WHERE age IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Fatalf("affected = %d", res.Affected)
	}
	r, err := db.Exec("SELECT age FROM users WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 31 {
		t.Errorf("age = %d", r.Rows[0][0].Int())
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("DELETE FROM users WHERE age IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	r, _ := db.Exec("SELECT count(*) FROM users")
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("remaining = %d", r.Rows[0][0].Int())
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Exec("INSERT INTO users (id, name) VALUES (1, 'dup')")
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
	// Update into a conflicting key must also fail.
	_, err = db.Exec("UPDATE users SET id = 2 WHERE id = 1")
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("update err = %v, want ErrDuplicateKey", err)
	}
	// Updating a row's key to itself is fine.
	if _, err := db.Exec("UPDATE users SET id = 1 WHERE id = 1"); err != nil {
		t.Fatalf("self-update: %v", err)
	}
}

func TestNotNullViolation(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Exec("INSERT INTO users (id, name) VALUES (99, NULL)")
	if !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v, want ErrNotNull", err)
	}
	// Omitted NOT NULL column defaults to NULL and must fail too.
	_, err = db.Exec("INSERT INTO users (id) VALUES (99)")
	if !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v, want ErrNotNull", err)
	}
}

func TestForeignKey(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE driver (driver_id INTEGER NOT NULL PRIMARY KEY)")
	db.MustExec("CREATE TABLE perm (id INTEGER, driver_id INTEGER NOT NULL REFERENCES driver(driver_id))")
	db.MustExec("INSERT INTO driver (driver_id) VALUES (7)")
	if _, err := db.Exec("INSERT INTO perm (id, driver_id) VALUES (1, 7)"); err != nil {
		t.Fatalf("valid FK insert: %v", err)
	}
	_, err := db.Exec("INSERT INTO perm (id, driver_id) VALUES (2, 8)")
	if !errors.Is(err, ErrForeignKey) {
		t.Fatalf("err = %v, want ErrForeignKey", err)
	}
}

func TestNoSuchTableAndColumn(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("SELECT * FROM missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec("SELECT nope FROM users"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec("INSERT INTO users (nope) VALUES (1)"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingParam(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("SELECT * FROM users WHERE id = $missing", Args{}); !errors.Is(err, ErrMissingParam) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec("SELECT * FROM users WHERE id = ?"); !errors.Is(err, ErrMissingParam) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	db := newTestDB(t)
	db.MustExec("CREATE TABLE IF NOT EXISTS users (x INTEGER)")
	// Original schema preserved.
	if _, err := db.Exec("SELECT name FROM users LIMIT 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE users (x INTEGER)"); err == nil {
		t.Fatal("duplicate CREATE should fail without IF NOT EXISTS")
	}
}

// TestTimestampBetweenNow: Sample code 2's date window, a bound $now
// BETWEEN two columns.
func TestTimestampBetweenNow(t *testing.T) {
	cur := time.Date(2026, 6, 13, 12, 0, 0, 0, time.UTC)
	db := NewDB()
	db.MustExec("CREATE TABLE windows (id INTEGER, start_date TIMESTAMP, end_date TIMESTAMP)")
	db.MustExec("INSERT INTO windows (id, start_date, end_date) VALUES (1, ?, ?)",
		cur.Add(-time.Hour), cur.Add(time.Hour))
	db.MustExec("INSERT INTO windows (id, start_date, end_date) VALUES (2, ?, ?)",
		cur.Add(time.Hour), cur.Add(2*time.Hour))
	res, err := db.Exec("SELECT id FROM windows WHERE $now BETWEEN start_date AND end_date", Args{"now": cur})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestTransactionCommitAndRollback(t *testing.T) {
	db := newTestDB(t)
	s := db.NewSession()
	defer s.Close()

	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if !s.InTx() {
		t.Fatal("should be in tx")
	}
	s.Exec("INSERT INTO users (id, name) VALUES (10, 'eve')") //nolint:errcheck
	s.Exec("UPDATE users SET age = 99 WHERE id = 1")          //nolint:errcheck
	s.Exec("DELETE FROM users WHERE id = 2")                  //nolint:errcheck
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}

	r, _ := db.Exec("SELECT count(*) FROM users")
	if r.Rows[0][0].Int() != 4 {
		t.Fatalf("rollback failed: count = %d", r.Rows[0][0].Int())
	}
	r, _ = db.Exec("SELECT age FROM users WHERE id = 1")
	if r.Rows[0][0].Int() != 30 {
		t.Fatalf("rollback failed: age = %d", r.Rows[0][0].Int())
	}
	r, _ = db.Exec("SELECT count(*) FROM users WHERE id = 2")
	if r.Rows[0][0].Int() != 1 {
		t.Fatal("rollback failed: deleted row not restored")
	}

	// Now commit a change.
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	s.Exec("INSERT INTO users (id, name) VALUES (11, 'frank')") //nolint:errcheck
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	r, _ = db.Exec("SELECT count(*) FROM users")
	if r.Rows[0][0].Int() != 5 {
		t.Fatalf("commit failed: count = %d", r.Rows[0][0].Int())
	}
}

func TestTransactionErrors(t *testing.T) {
	db := newTestDB(t)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Exec("ROLLBACK"); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("err = %v", err)
	}
	s.Exec("BEGIN") //nolint:errcheck
	if _, err := s.Exec("BEGIN"); !errors.Is(err, ErrTxInProgress) {
		t.Fatalf("err = %v", err)
	}
}

func TestSessionCloseRollsBack(t *testing.T) {
	db := newTestDB(t)
	s := db.NewSession()
	s.Exec("BEGIN")                                             //nolint:errcheck
	s.Exec("INSERT INTO users (id, name) VALUES (20, 'ghost')") //nolint:errcheck
	s.Close()
	r, _ := db.Exec("SELECT count(*) FROM users WHERE id = 20")
	if r.Rows[0][0].Int() != 0 {
		t.Fatal("close should roll back open transaction")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE bin (id INTEGER, data BLOB)")
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	db.MustExec("INSERT INTO bin (id, data) VALUES (1, ?)", payload)
	res, err := db.Exec("SELECT data FROM bin WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows[0][0].Bytes()
	if len(got) != len(payload) {
		t.Fatalf("blob length = %d", len(got))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("blob corrupted at byte %d", i)
		}
	}
}

func TestConcurrentAutocommit(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE counters (id INTEGER NOT NULL PRIMARY KEY, n INTEGER)")
	db.MustExec("INSERT INTO counters (id, n) VALUES (1, 0)")
	const workers, iters = 8, 50
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				if _, err := db.Exec("UPDATE counters SET n = n + 1 WHERE id = 1"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r, _ := db.Exec("SELECT n FROM counters WHERE id = 1")
	if got := r.Rows[0][0].Int(); got != workers*iters {
		t.Fatalf("n = %d, want %d (statements must be atomic)", got, workers*iters)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := NewDB()
	res, err := db.Exec("SELECT 1 + 1, 'x', NULL")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Int() != 2 || r[1].Str() != "x" || !r[2].IsNull() {
		t.Fatalf("row = %v", r)
	}
}

func TestTableVersionPerTableIsolation(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE a (id INTEGER NOT NULL PRIMARY KEY)")
	db.MustExec("CREATE TABLE b (id INTEGER NOT NULL PRIMARY KEY)")
	av, bv := db.TableVersion("a"), db.TableVersion("b")
	if av == 0 || bv == 0 {
		t.Fatalf("CREATE must bump: a=%d b=%d", av, bv)
	}

	db.MustExec("INSERT INTO a (id) VALUES (1)")
	if db.TableVersion("a") != av+1 {
		t.Errorf("INSERT a: version = %d, want %d", db.TableVersion("a"), av+1)
	}
	if db.TableVersion("b") != bv {
		t.Errorf("writes to a must not bump b (got %d, want %d)", db.TableVersion("b"), bv)
	}

	// Reads, and UPDATE/DELETE that touch no rows, must not bump.
	av = db.TableVersion("a")
	if _, err := db.Exec("SELECT id FROM a"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("UPDATE a SET id = 2 WHERE id = 99")
	db.MustExec("DELETE FROM a WHERE id = 99")
	if db.TableVersion("a") != av {
		t.Errorf("no-op mutations bumped the version to %d", db.TableVersion("a"))
	}
	db.MustExec("UPDATE a SET id = 2 WHERE id = 1")
	db.MustExec("DELETE FROM a WHERE id = 2")
	if db.TableVersion("a") != av+2 {
		t.Errorf("UPDATE+DELETE: version = %d, want %d", db.TableVersion("a"), av+2)
	}

	if sum := db.TableVersions("a", "b"); sum != db.TableVersion("a")+db.TableVersion("b") {
		t.Errorf("TableVersions sum = %d", sum)
	}
}

func TestTableVersionBumpsOnRollback(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE a (id INTEGER NOT NULL PRIMARY KEY)")
	db.MustExec("INSERT INTO a (id) VALUES (1)")
	before := db.TableVersion("a")

	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE a SET id = 2 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	// Both the update and its revert count: a snapshot taken mid-tx must
	// not stay marked fresh after the rollback restored old rows.
	if got := db.TableVersion("a"); got <= before+1 {
		t.Errorf("rollback must bump the version past the update's (got %d, before %d)", got, before)
	}
	r := db.MustExec("SELECT id FROM a")
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("rollback failed: %v", r.Rows[0][0])
	}
}
