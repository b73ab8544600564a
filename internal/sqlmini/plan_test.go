package sqlmini

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// planDB builds a leases-shaped table with a PK and a secondary index,
// seeded with a deterministic mix of rows.
func planDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE leases (
		lease_id BIGINT NOT NULL PRIMARY KEY,
		driver_id INTEGER NOT NULL,
		released BOOLEAN NOT NULL,
		note VARCHAR)`)
	db.MustExec("CREATE INDEX leases_driver ON leases (driver_id)")
	for i := 1; i <= 40; i++ {
		db.MustExec("INSERT INTO leases (lease_id, driver_id, released, note) VALUES (?, ?, ?, ?)",
			i, i%5, i%3 == 0, fmt.Sprintf("n%d", i))
	}
	return db
}

// scanDB is planDB without any secondary index and with the PK demoted
// to a plain column, so every statement takes the scan path.
func scanDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE leases (
		lease_id BIGINT NOT NULL,
		driver_id INTEGER NOT NULL,
		released BOOLEAN NOT NULL,
		note VARCHAR)`)
	for i := 1; i <= 40; i++ {
		db.MustExec("INSERT INTO leases (lease_id, driver_id, released, note) VALUES (?, ?, ?, ?)",
			i, i%5, i%3 == 0, fmt.Sprintf("n%d", i))
	}
	return db
}

// canon renders a result set order-insensitively for comparison.
func canon(res *Result) string {
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, 0, len(row))
		for _, v := range row {
			parts = append(parts, v.String())
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestPlannerMatchesScan runs the same query against an indexed and an
// unindexed copy of the data: results must be identical whether the
// planner claims the statement or falls back.
func TestPlannerMatchesScan(t *testing.T) {
	queries := []struct {
		sql  string
		args []any
	}{
		// Index-eligible shapes.
		{"SELECT * FROM leases WHERE lease_id = ?", []any{7}},
		{"SELECT * FROM leases WHERE lease_id = 41", nil},
		{"SELECT * FROM leases WHERE driver_id = ?", []any{3}},
		{"SELECT * FROM leases WHERE driver_id = ? AND released = FALSE", []any{2}},
		{"SELECT count(*) FROM leases WHERE driver_id = ? AND released = FALSE AND lease_id <> ?", []any{1, 6}},
		{"SELECT * FROM leases WHERE released = FALSE AND driver_id = ?", []any{4}},
		{"SELECT * FROM leases WHERE 4 = driver_id", nil},
		{"SELECT * FROM leases WHERE lease_id = ? AND driver_id = ?", []any{12, 2}},
		{"SELECT note FROM leases WHERE note = ?", []any{"n17"}},
		{"SELECT * FROM leases WHERE driver_id = ? ORDER BY lease_id DESC LIMIT 3", []any{1}},
		// Any LIMIT is forced onto the scan path (see selectPlannable):
		// ties in ORDER BY keys, or no ORDER BY at all, would otherwise
		// cut different rows depending on candidate order.
		{"SELECT lease_id FROM leases WHERE driver_id = ? LIMIT 2", []any{1}},
		{"SELECT lease_id FROM leases WHERE driver_id = ? ORDER BY released LIMIT 2", []any{1}},
		// Planner-ineligible shapes: must scan, identically.
		{"SELECT * FROM leases WHERE driver_id = ? OR lease_id = ?", []any{1, 30}},
		{"SELECT * FROM leases WHERE driver_id <> ?", []any{1}},
		{"SELECT * FROM leases WHERE driver_id > ?", []any{2}},
		{"SELECT * FROM leases WHERE driver_id = lease_id", nil},
		{"SELECT * FROM leases WHERE driver_id + 0 = ?", []any{3}},
		{"SELECT * FROM leases WHERE note LIKE ?", []any{"n1%"}},
		{"SELECT * FROM leases WHERE note IS NULL", nil},
		// Keys of another type: planner must decline, results still identical.
		{"SELECT * FROM leases WHERE driver_id = '1'", nil},
		{"SELECT * FROM leases WHERE driver_id = ?", []any{"1"}},
		{"SELECT * FROM leases WHERE note = ?", []any{17}},
		// NULL key: provably empty either way.
		{"SELECT * FROM leases WHERE driver_id = ?", []any{nil}},
		{"SELECT * FROM leases WHERE driver_id = ? AND released = FALSE", []any{nil}},
	}
	idb, sdb := planDB(t), scanDB(t)
	for _, q := range queries {
		got, err := idb.Exec(q.sql, q.args...)
		if err != nil {
			t.Fatalf("%s (indexed): %v", q.sql, err)
		}
		want, err := sdb.Exec(q.sql, q.args...)
		if err != nil {
			t.Fatalf("%s (scan): %v", q.sql, err)
		}
		if canon(got) != canon(want) {
			t.Fatalf("%s %v:\nindexed:\n%s\nscan:\n%s", q.sql, q.args, canon(got), canon(want))
		}
	}
}

// TestPlannerMutationsMatchScan applies the same UPDATE/DELETE stream
// to an indexed and an unindexed copy and compares the full table.
func TestPlannerMutationsMatchScan(t *testing.T) {
	idb, sdb := planDB(t), scanDB(t)
	apply := func(sql string, args ...any) {
		t.Helper()
		ri, ei := idb.Exec(sql, args...)
		rs, es := sdb.Exec(sql, args...)
		if (ei == nil) != (es == nil) {
			t.Fatalf("%s: indexed err=%v scan err=%v", sql, ei, es)
		}
		if ei == nil && ri.Affected != rs.Affected {
			t.Fatalf("%s: affected %d (indexed) vs %d (scan)", sql, ri.Affected, rs.Affected)
		}
	}
	apply("UPDATE leases SET released = TRUE WHERE lease_id = ? AND released = FALSE", 7)
	apply("UPDATE leases SET released = TRUE WHERE lease_id = ? AND released = FALSE", 7) // second time: 0 rows
	apply("UPDATE leases SET driver_id = ? WHERE driver_id = ?", 9, 2)                    // bucket-moving via its own index
	apply("UPDATE leases SET note = NULL WHERE driver_id = ?", 3)
	apply("DELETE FROM leases WHERE driver_id = ? AND released = TRUE", 0)
	apply("DELETE FROM leases WHERE lease_id = ?", 11)
	apply("DELETE FROM leases WHERE lease_id = ?", 11) // gone already
	got := idb.MustExec("SELECT * FROM leases")
	want := sdb.MustExec("SELECT * FROM leases")
	if canon(got) != canon(want) {
		t.Fatalf("tables diverged:\nindexed:\n%s\nscan:\n%s", canon(got), canon(want))
	}
	indexConsistent(t, idb, "leases")
}

// TestPlannerErrorParity: statements that error on the scan path must
// error identically with indexes present (the planner refuses WHEREs
// that can fail, so both paths surface the same failure).
func TestPlannerErrorParity(t *testing.T) {
	idb, sdb := planDB(t), scanDB(t)
	for _, q := range []struct {
		sql  string
		args []any
	}{
		{"SELECT * FROM leases WHERE driver_id = $missing AND released = FALSE", []any{Args{}}},
		{"SELECT * FROM leases WHERE bogus = 1 AND driver_id = 2", nil},
	} {
		_, ei := idb.Exec(q.sql, q.args...)
		_, es := sdb.Exec(q.sql, q.args...)
		if (ei == nil) != (es == nil) {
			t.Fatalf("%s: indexed err=%v, scan err=%v", q.sql, ei, es)
		}
	}
}

func TestExplain(t *testing.T) {
	db := planDB(t)
	for _, tc := range []struct {
		sql  string
		args []any
		want string
	}{
		{"SELECT * FROM leases WHERE lease_id = ?", []any{1},
			"point lookup on leases(lease_id) [primary key]"},
		{"UPDATE leases SET released = TRUE WHERE lease_id = ? AND released = FALSE", []any{1},
			"point lookup on leases(lease_id) [primary key]"},
		{"SELECT count(*) FROM leases WHERE driver_id = ? AND released = FALSE", []any{1},
			"index lookup on leases(driver_id) [leases_driver]"},
		{"DELETE FROM leases WHERE driver_id = ?", []any{1},
			"index lookup on leases(driver_id) [leases_driver]"},
		{"SELECT * FROM leases WHERE driver_id = ? OR lease_id = ?", []any{1, 2},
			"full scan on leases"},
		{"SELECT lease_id FROM leases WHERE driver_id = ? LIMIT 2", []any{1},
			"full scan on leases (LIMIT)"},
		{"SELECT lease_id FROM leases WHERE driver_id = ? ORDER BY lease_id LIMIT 2", []any{1},
			"full scan on leases (LIMIT)"},
		{"SELECT lease_id FROM leases WHERE driver_id = ? ORDER BY lease_id", []any{1},
			"index lookup on leases(driver_id) [leases_driver]"},
		{"SELECT * FROM leases WHERE note LIKE ?", []any{"n%"},
			"full scan on leases"},
		{"SELECT * FROM leases WHERE driver_id = '1'", nil,
			"full scan on leases"},
		{"SELECT * FROM leases WHERE driver_id = ?", []any{nil},
			"empty result (NULL key) on leases(driver_id)"},
		// Both indexed: the unique PK wins.
		{"SELECT * FROM leases WHERE driver_id = ? AND lease_id = ?", []any{1, 2},
			"point lookup on leases(lease_id) [primary key]"},
		// Range shapes need an ordered index; driver_id's is hash.
		{"SELECT * FROM leases WHERE driver_id > ? AND released = FALSE", []any{2},
			"full scan on leases"},
	} {
		got, err := db.Explain(tc.sql, tc.args...)
		if err != nil {
			t.Fatalf("Explain(%s): %v", tc.sql, err)
		}
		if got != tc.want {
			t.Fatalf("Explain(%s) = %q, want %q", tc.sql, got, tc.want)
		}
	}
}

// TestEnsureIndexIdempotent: CREATE INDEX IF NOT EXISTS repeated is
// one index, declared over the PRIMARY KEY column it is none, and over
// an unknown column it fails.
func TestEnsureIndexIdempotent(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp INTEGER)")
	for i := 0; i < 3; i++ {
		db.MustExec("CREATE INDEX IF NOT EXISTS t_grp_idx ON t (grp)")
		db.MustExec("CREATE INDEX IF NOT EXISTS t_id_idx ON t (id)") // PK column: no-op
	}
	tbl, _ := db.lookupTable("t")
	if n := len(tbl.loadIndexes()); n != 1 {
		t.Fatalf("repeated CREATE INDEX IF NOT EXISTS created %d indexes, want 1", n)
	}
	if _, err := db.Exec("CREATE INDEX IF NOT EXISTS t_nope_idx ON t (nope)"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("CREATE INDEX on unknown column: %v, want ErrNoSuchColumn", err)
	}
	// An already-indexed column gets no second index, whatever the name:
	// redundant maintenance for lookups that would never consult it.
	db.MustExec("CREATE INDEX IF NOT EXISTS t_grp2 ON t (grp)")
	db.MustExec("CREATE INDEX t_grp3 ON t (grp)")
	if n := len(tbl.loadIndexes()); n != 1 {
		t.Fatalf("duplicate-column CREATE INDEX built %d indexes, want 1", n)
	}
	// A clashing NAME is still an error without IF NOT EXISTS (the name
	// declared above really exists).
	if _, err := db.Exec("CREATE INDEX t_grp_idx ON t (grp)"); err == nil {
		t.Fatal("duplicate index name must fail without IF NOT EXISTS")
	}
	db.MustExec("CREATE INDEX IF NOT EXISTS t_grp_idx ON t (grp)") // and tolerated with it
}

// TestPlannerLimitTieBreak pins the LIMIT exclusion: after a row
// leaves and re-enters a bucket it sits at the bucket's end while
// keeping its table position, so a LIMIT under tied ORDER BY keys
// would cut a different row on the index path. Any LIMIT must scan.
func TestPlannerLimitTieBreak(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp INTEGER)")
	db.MustExec("CREATE INDEX t_grp ON t (grp)")
	db.MustExec("INSERT INTO t (id, grp) VALUES (1, 1), (2, 1)")
	db.MustExec("UPDATE t SET grp = 2 WHERE id = 1")
	db.MustExec("UPDATE t SET grp = 1 WHERE id = 1") // row 1 now last in bucket 1
	res := db.MustExec("SELECT id FROM t WHERE grp = 1 ORDER BY grp LIMIT 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("LIMIT under tied ORDER BY must cut in table order, got %v", res.Rows)
	}
}

// TestCreateIndexBackfillsExistingRows: an index declared after data
// exists must serve lookups over that data.
func TestCreateIndexBackfillsExistingRows(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp INTEGER)")
	db.MustExec("INSERT INTO t (id, grp) VALUES (1, 10), (2, 10), (3, 20)")
	db.MustExec("CREATE INDEX t_grp ON t (grp)")
	indexConsistent(t, db, "t")
	if res := db.MustExec("SELECT count(*) FROM t WHERE grp = 10"); res.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}
