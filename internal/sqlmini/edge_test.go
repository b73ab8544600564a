package sqlmini

import (
	"testing"
	"testing/quick"
	"time"
)

// TestInsertSelectRoundTripProperty: values written through INSERT with
// parameters come back identical through SELECT.
func TestInsertSelectRoundTripProperty(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE rt (id INTEGER NOT NULL PRIMARY KEY, s VARCHAR, n BIGINT, f DOUBLE, b BLOB)")
	id := 0
	prop := func(s string, n int64, f float64, blob []byte) bool {
		id++
		if _, err := db.Exec("INSERT INTO rt (id, s, n, f, b) VALUES (?, ?, ?, ?, ?)",
			id, s, n, f, blob); err != nil {
			return false
		}
		res, err := db.Exec("SELECT s, n, f, b FROM rt WHERE id = ?", id)
		if err != nil || len(res.Rows) != 1 {
			return false
		}
		row := res.Rows[0]
		if row[0].Str() != s || row[1].Int() != n {
			return false
		}
		if f == f && row[2].Float() != f { // skip NaN identity
			return false
		}
		got := row[3].Bytes()
		if blob == nil {
			// nil slice stores as an empty blob
			return len(got) == 0
		}
		if len(got) != len(blob) {
			return false
		}
		for i := range blob {
			if got[i] != blob[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderByMultipleKeysWithParams(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (a INTEGER, b VARCHAR)")
	db.MustExec("INSERT INTO t (a, b) VALUES (2, 'x'), (1, 'y'), (2, 'a'), (1, 'b')")
	res, err := db.Exec("SELECT a, b FROM t WHERE a <= ? ORDER BY a, b DESC", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"1", "y"}, {"1", "b"}, {"2", "x"}, {"2", "a"}}
	for i, w := range want {
		if res.Rows[i][0].Str() != w[0] || res.Rows[i][1].Str() != w[1] {
			t.Fatalf("row %d = %v,%v want %v", i, res.Rows[i][0], res.Rows[i][1], w)
		}
	}
}

func TestUpdateCoercionFailureLeavesRowIntact(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER, b BLOB)")
	db.MustExec("INSERT INTO t (id, b) VALUES (1, ?)", []byte{1, 2})
	// Coercing an INTEGER into BLOB fails; the row must be unchanged.
	if _, err := db.Exec("UPDATE t SET b = 5 WHERE id = 1"); err == nil {
		t.Fatal("expected coercion error")
	}
	res, _ := db.Exec("SELECT b FROM t WHERE id = 1")
	if got := res.Rows[0][0].Bytes(); len(got) != 2 {
		t.Fatalf("row mutated by failed update: %v", got)
	}
}

func TestTimestampComparisonsViaParams(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE ev (id INTEGER, at TIMESTAMP)")
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		db.MustExec("INSERT INTO ev (id, at) VALUES (?, ?)", i, base.Add(time.Duration(i)*time.Hour))
	}
	res, err := db.Exec("SELECT count(*) FROM ev WHERE at >= ? AND at < ?",
		base.Add(time.Hour), base.Add(4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("count = %d", res.Rows[0][0].Int())
	}
}

func TestInsertDefaultsOmittedColumnsToNull(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (a INTEGER, b VARCHAR, c DOUBLE)")
	db.MustExec("INSERT INTO t (a) VALUES (1)")
	res, _ := db.Exec("SELECT b, c FROM t")
	if !res.Rows[0][0].IsNull() || !res.Rows[0][1].IsNull() {
		t.Fatalf("omitted columns should be NULL: %v", res.Rows[0])
	}
}

func TestSelectStarColumnOrderStable(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (z INTEGER, a VARCHAR, m DOUBLE)")
	res, err := db.Exec("SELECT * FROM t LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0] != "z" || res.Cols[1] != "a" || res.Cols[2] != "m" {
		t.Fatalf("cols = %v (must preserve DDL order)", res.Cols)
	}
}

func TestInExprWithNulls(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("INSERT INTO t (a) VALUES (1), (2), (NULL)")
	// a IN (1, NULL): matches a=1; a=2 yields unknown (excluded); NULL
	// row excluded.
	res, err := db.Exec("SELECT count(*) FROM t WHERE a IN (1, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("count = %d", res.Rows[0][0].Int())
	}
}
