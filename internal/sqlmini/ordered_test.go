package sqlmini

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestOrderedIndexMutationSequence(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, score INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX t_score ON t (score) USING ORDERED")
	db.MustExec("INSERT INTO t (id, score, v) VALUES (1, 30, 1), (2, 10, 2), (3, 20, 3), (4, NULL, 4), (5, 10, 5)")
	indexConsistent(t, db, "t")

	// Group-moving update, NULL transitions both ways.
	db.MustExec("UPDATE t SET score = 20 WHERE id = 1")
	db.MustExec("UPDATE t SET score = NULL WHERE id = 2")
	db.MustExec("UPDATE t SET score = 5 WHERE id = 4")
	indexConsistent(t, db, "t")

	res := db.MustExec("SELECT id FROM t WHERE score >= 20 ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 3 {
		t.Fatalf("score>=20 rows = %v", res.Rows)
	}

	db.MustExec("DELETE FROM t WHERE score < 15")
	indexConsistent(t, db, "t")
	if res := db.MustExec("SELECT count(*) FROM t"); res.Rows[0][0].Int() != 3 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestOrderedIndexRollback(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, score INTEGER)")
	db.MustExec("CREATE INDEX t_score ON t (score) USING ORDERED")
	db.MustExec("INSERT INTO t (id, score) VALUES (1, 10), (2, 20)")

	s := db.NewSession()
	defer s.Close()
	s.Exec("BEGIN")                                    //nolint:errcheck
	s.Exec("INSERT INTO t (id, score) VALUES (3, 15)") //nolint:errcheck
	s.Exec("UPDATE t SET score = 99 WHERE id = 1")     //nolint:errcheck
	s.Exec("DELETE FROM t WHERE id = 2")               //nolint:errcheck
	s.Exec("ROLLBACK")                                 //nolint:errcheck
	indexConsistent(t, db, "t")

	res := db.MustExec("SELECT id FROM t WHERE score > 5 AND score < 25 ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("range after rollback = %v", res.Rows)
	}
	if res := db.MustExec("SELECT id FROM t WHERE score >= 99"); len(res.Rows) != 0 {
		t.Fatalf("score>=99 after rollback = %v", res.Rows)
	}
}

// TestOrderedOverHashRefused: an ORDERED declaration over a column set
// a hash index already serves is refused, naming that index, with or
// without IF NOT EXISTS; a no-op would leave the range plan it asks for
// missing. The hash index stays as it was.
func TestOrderedOverHashRefused(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, score INTEGER)")
	db.MustExec("INSERT INTO t (id, score) VALUES (1, 10), (2, 20), (3, 30)")
	db.MustExec("CREATE INDEX t_score_idx ON t (score)")
	for _, ddl := range []string{
		"CREATE INDEX t_other_name ON t (score) USING ORDERED",
		"CREATE INDEX IF NOT EXISTS t_other_name ON t (score) USING ORDERED",
		"CREATE INDEX IF NOT EXISTS t_score_idx ON t (score) USING ORDERED",
	} {
		_, err := db.Exec(ddl)
		if err == nil || !strings.Contains(err.Error(), `"t_score_idx"`) {
			t.Fatalf("%s: err = %v, want a refusal naming t_score_idx", ddl, err)
		}
	}
	tbl, _ := db.lookupTable("t")
	if ixs := tbl.loadIndexes(); len(ixs) != 1 || ixs[0].kind != IndexHash || ixs[0].name != "t_score_idx" {
		t.Fatalf("a refused declaration changed the index set: %d indexes", len(ixs))
	}
	if plan, _ := db.Explain("SELECT id FROM t WHERE score = 20"); plan != "index lookup on t(score) [t_score_idx]" {
		t.Fatalf("equality plans as %q after the refusal", plan)
	}
	indexConsistent(t, db, "t")
}

// TestCreateIndexSameKindIsNoOp: a declaration over a column set an
// index of the same kind already serves — repeated under IF NOT EXISTS,
// or under another name — succeeds and adds nothing, and a HASH
// declaration over an ordered set is a no-op too: the ordered index
// serves equality, and nothing is ever downgraded.
func TestCreateIndexSameKindIsNoOp(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, a INTEGER, b INTEGER)")
	db.MustExec("CREATE INDEX t_a ON t (a)")
	db.MustExec("CREATE INDEX t_b ON t (b) USING ORDERED")
	for _, ddl := range []string{
		"CREATE INDEX IF NOT EXISTS t_a ON t (a)",
		"CREATE INDEX IF NOT EXISTS t_a2 ON t (a) USING HASH",
		"CREATE INDEX IF NOT EXISTS t_b ON t (b) USING ORDERED",
		"CREATE INDEX t_b2 ON t (b) USING ORDERED",
		"CREATE INDEX IF NOT EXISTS t_b3 ON t (b)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	tbl, _ := db.lookupTable("t")
	ixs := tbl.loadIndexes()
	if len(ixs) != 2 || ixs[0].name != "t_a" || ixs[0].kind != IndexHash || ixs[1].name != "t_b" || ixs[1].kind != IndexOrdered {
		t.Fatalf("no-op declarations changed the index set: %d indexes", len(ixs))
	}
	if plan, _ := db.Explain("SELECT id FROM t WHERE b > 5"); plan != "range scan on t(b) [t_b] (b > 5)" {
		t.Fatalf("range on b plans as %q", plan)
	}
}

func TestCreateIndexUsingClause(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, a INTEGER, b INTEGER, c INTEGER)")
	db.MustExec("CREATE INDEX t_a ON t (a) USING HASH")
	db.MustExec("CREATE INDEX t_b ON t (b) USING BTREE") // alias for ORDERED
	db.MustExec("CREATE INDEX t_c ON t (c) USING ORDERED")
	tbl, _ := db.lookupTable("t")
	kinds := []IndexKind{}
	for _, ix := range tbl.loadIndexes() {
		kinds = append(kinds, ix.kind)
	}
	want := []IndexKind{IndexHash, IndexOrdered, IndexOrdered}
	for i, k := range kinds {
		if k != want[i] {
			t.Fatalf("index %d kind = %v, want %v", i, k, want[i])
		}
	}
	if _, err := db.Exec("CREATE INDEX t_bad ON t (a) USING SKIPLIST"); err == nil {
		t.Fatal("unknown index method must fail to parse")
	}
}

// TestIndexColumnLimit: a skiplist node counts its key's columns in a
// byte, so an index over more than maxIndexCols columns is refused
// rather than filed under a truncated key.
func TestIndexColumnLimit(t *testing.T) {
	db := NewDB()
	var cols, def strings.Builder
	for i := 0; i <= maxIndexCols; i++ {
		fmt.Fprintf(&def, ", c%d INTEGER", i)
		fmt.Fprintf(&cols, ", c%d", i)
	}
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY" + def.String() + ")")
	list := cols.String()
	if _, err := db.Exec("CREATE INDEX t_all ON t (" + list[2:] + ") USING ORDERED"); err == nil {
		t.Fatalf("an index over %d columns was accepted", maxIndexCols+1)
	}
	list = list[:strings.LastIndex(list, ",")]
	db.MustExec("CREATE INDEX t_most ON t (" + list[2:] + ") USING ORDERED")
	db.MustExec("INSERT INTO t (id" + list + ") VALUES (1" + strings.Repeat(", 2", maxIndexCols) + ")")
	if res := db.MustExec("SELECT id FROM t WHERE c0 = 2"); len(res.Rows) != 1 {
		t.Fatalf("a row filed under a %d-column key: %v", maxIndexCols, res.Rows)
	}
}

// TestOrderedIndexRandomizedProperty drives a random mutation sequence —
// inserts (with duplicate and NULL keys), deletes by id and by range,
// group-moving updates and rollbacks — and checks after every step
// that the ordered index is structurally consistent and that
// range-driven SELECTs agree with a forced scan.
func TestOrderedIndexRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, score INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX t_score ON t (score) USING ORDERED")
	nextID := 0
	live := map[int]bool{}
	anyLive := func() (int, bool) {
		for k := range live {
			return k, true
		}
		return 0, false
	}
	scoreVal := func() any {
		if rng.Intn(8) == 0 {
			return nil // NULLs must stay out of the index
		}
		return rng.Intn(40)
	}
	for step := 0; step < 500; step++ {
		switch op := rng.Intn(5); op {
		case 0, 1: // insert
			nextID++
			db.MustExec("INSERT INTO t (id, score, v) VALUES (?, ?, ?)", nextID, scoreVal(), step)
			live[nextID] = true
		case 2: // delete by id or by range
			if rng.Intn(2) == 0 {
				if k, ok := anyLive(); ok {
					db.MustExec("DELETE FROM t WHERE id = ?", k)
					delete(live, k)
				}
			} else {
				lo := rng.Intn(40)
				res := db.MustExec("SELECT id FROM t WHERE score >= ? AND score < ?", lo, lo+4)
				db.MustExec("DELETE FROM t WHERE score >= ? AND score < ?", lo, lo+4)
				for _, row := range res.Rows {
					delete(live, int(row[0].Int()))
				}
			}
		case 3: // group-moving update
			if k, ok := anyLive(); ok {
				db.MustExec("UPDATE t SET score = ? WHERE id = ?", scoreVal(), k)
			}
		case 4: // transaction that rolls back
			s := db.NewSession()
			s.Exec("BEGIN") //nolint:errcheck
			nextID++
			s.Exec("INSERT INTO t (id, score, v) VALUES (?, ?, 0)", nextID, scoreVal()) //nolint:errcheck
			if lk, ok := anyLive(); ok {
				s.Exec("UPDATE t SET score = ? WHERE id = ?", scoreVal(), lk) //nolint:errcheck
				s.Exec("DELETE FROM t WHERE id = ?", lk)                      //nolint:errcheck
			}
			s.Exec("ROLLBACK") //nolint:errcheck
			s.Close()
		}
		indexConsistent(t, db, "t")
		// Range-driven lookups agree with a forced scan for a sliding
		// window, including empty windows.
		lo := rng.Intn(44) - 2
		hi := lo + rng.Intn(10)
		got := db.MustExec("SELECT id FROM t WHERE score > ? AND score <= ?", lo, hi)
		want := db.MustExec("SELECT id FROM t WHERE score + 0 > ? AND score + 0 <= ?", lo, hi) // arithmetic defeats the planner
		if canon(got) != canon(want) {
			t.Fatalf("step %d (%d,%d]: range path:\n%s\nscan:\n%s", step, lo, hi, canon(got), canon(want))
		}
	}
}

// TestOrderedEqualityAdjacentGroupCollapse pins the 2^53 edge: stored
// BIGINT keys are distinct groups under integer Compare, but a DOUBLE
// probe projects both onto one float64 — equality through the ordered
// index must return every group comparing equal, like the scan does.
func TestOrderedEqualityAdjacentGroupCollapse(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v BIGINT)")
	db.MustExec("CREATE INDEX t_v ON t (v) USING ORDERED")
	db.MustExec("INSERT INTO t (id, v) VALUES (1, 9007199254740992), (2, 9007199254740993), (3, 5)")
	got := db.MustExec("SELECT id FROM t WHERE v = ?", float64(9007199254740992))
	want := db.MustExec("SELECT id FROM t WHERE v + 0 = ?", float64(9007199254740992)) // forced scan
	if len(got.Rows) != 2 || canon(got) != canon(want) {
		t.Fatalf("index path:\n%s\nscan:\n%s", canon(got), canon(want))
	}
	// The range side already gathers whole windows; pin it anyway.
	got = db.MustExec("SELECT id FROM t WHERE v >= ? AND v <= ?",
		float64(9007199254740992), float64(9007199254740992))
	if len(got.Rows) != 2 {
		t.Fatalf("range window missed a collapsed group: %v", got.Rows)
	}
}

// TestNowStatementStable pins the clock memoization the range planner
// relies on: every now() within one statement reads the same instant,
// even when the clock advances between evaluations.
func TestNowStatementStable(t *testing.T) {
	base := time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)
	calls := 0
	db := NewDB(WithClock(func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Hour)
	}))
	res := db.MustExec("SELECT now() = now()")
	if !res.Rows[0][0].Bool() {
		t.Fatal("now() must be stable within one statement")
	}
	// A later statement sees a fresh reading.
	r1 := db.MustExec("SELECT now()")
	r2 := db.MustExec("SELECT now()")
	if r1.Rows[0][0].Time().Equal(r2.Rows[0][0].Time()) {
		t.Fatal("now() must advance across statements")
	}
}
