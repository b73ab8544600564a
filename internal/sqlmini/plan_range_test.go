package sqlmini

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// rangeBase is the fixed instant the range-planner suites bind as the
// current time; lease rows are seeded relative to it so
// `expires_at > ?` at rangeBase splits the table deterministically.
var rangeBase = time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)

// rangeDB builds a leases-shaped table with an ordered index on the
// expiry timestamp and an ordered index on an integer score; rows mix
// expired/live, released flags, duplicate keys, and NULLs.
func rangeDB(t testing.TB, indexed bool) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE leases (
		lease_id BIGINT NOT NULL PRIMARY KEY,
		score INTEGER,
		expires_at TIMESTAMP,
		released BOOLEAN NOT NULL,
		note VARCHAR)`)
	if indexed {
		db.MustExec("CREATE INDEX leases_score ON leases (score) USING ORDERED")
		db.MustExec("CREATE INDEX leases_exp ON leases (expires_at) USING ORDERED")
	}
	for i := 1; i <= 60; i++ {
		var score any = i % 7 // duplicates across groups
		if i%11 == 0 {
			score = nil
		}
		var exp any = rangeBase.Add(time.Duration(i-30) * time.Minute) // half expired, half live
		if i%13 == 0 {
			exp = nil
		}
		db.MustExec("INSERT INTO leases (lease_id, score, expires_at, released, note) VALUES (?, ?, ?, ?, ?)",
			i, score, exp, i%3 == 0, fmt.Sprintf("n%d", i))
	}
	return db
}

// TestRangePlannerMatchesScan runs the same statements against an
// ordered-indexed and an unindexed copy of the data: results must be
// identical whether the planner claims the range or falls back.
func TestRangePlannerMatchesScan(t *testing.T) {
	queries := []struct {
		sql  string
		args []any
	}{
		// Range-eligible shapes.
		{"SELECT * FROM leases WHERE score > ?", []any{3}},
		{"SELECT * FROM leases WHERE score >= ?", []any{3}},
		{"SELECT * FROM leases WHERE score < ?", []any{2}},
		{"SELECT * FROM leases WHERE score <= ?", []any{2}},
		{"SELECT * FROM leases WHERE score > ? AND score < ?", []any{1, 5}},
		{"SELECT * FROM leases WHERE score >= ? AND score <= ?", []any{2, 2}},
		{"SELECT * FROM leases WHERE score >= ? AND score <= ?", []any{1, 4}},
		{"SELECT * FROM leases WHERE ? < score", []any{3}}, // reversed operands
		{"SELECT * FROM leases WHERE ? >= score AND ? < score", []any{5, 1}},
		{"SELECT * FROM leases WHERE score > ? AND released = FALSE", []any{2}},
		{"SELECT count(*) FROM leases WHERE score > ? AND note LIKE ?", []any{2, "n%"}},
		{"SELECT * FROM leases WHERE expires_at > ?", []any{rangeBase}},
		{"SELECT * FROM leases WHERE expires_at <= ? AND released = FALSE", []any{rangeBase}},
		{"SELECT count(*) FROM leases WHERE released = FALSE AND expires_at > ?", []any{rangeBase}},
		{"SELECT * FROM leases WHERE expires_at >= ? AND expires_at <= ?",
			[]any{rangeBase.Add(-10 * time.Minute), rangeBase.Add(10 * time.Minute)}},
		// Empty windows and out-of-domain bounds.
		{"SELECT * FROM leases WHERE score > ?", []any{100}},
		{"SELECT * FROM leases WHERE score < ?", []any{-5}},
		{"SELECT * FROM leases WHERE score > ? AND score < ?", []any{5, 1}},
		{"SELECT * FROM leases WHERE score >= ? AND score <= ?", []any{4, 1}},
		// Equality beats range when both are present (plan differs, results must not).
		{"SELECT * FROM leases WHERE score = ? AND score > ?", []any{3, 1}},
		{"SELECT * FROM leases WHERE lease_id = ? AND score > ?", []any{10, 0}},
		// Equality on an ordered column, including keys of other types.
		{"SELECT * FROM leases WHERE score = ?", []any{4}},
		{"SELECT * FROM leases WHERE score = ?", []any{"3"}},
		{"SELECT * FROM leases WHERE score = ?", []any{true}},
		{"SELECT * FROM leases WHERE score > ?", []any{"2"}}, // string bound on int column
		// NULL keys/bounds: provably empty either way.
		{"SELECT * FROM leases WHERE score > ?", []any{nil}},
		{"SELECT * FROM leases WHERE score >= ? AND score <= ?", []any{nil, 5}},
		{"SELECT * FROM leases WHERE expires_at > ?", []any{nil}},
		// Planner-ineligible shapes: must scan, identically.
		{"SELECT * FROM leases WHERE score > ? OR released = TRUE", []any{4}},
		{"SELECT * FROM leases WHERE score > lease_id", nil},
		{"SELECT * FROM leases WHERE score + 0 > ?", []any{3}},
		{"SELECT * FROM leases WHERE score NOT BETWEEN ? AND ?", []any{1, 4}},
		{"SELECT * FROM leases WHERE score <> ?", []any{3}},
		{"SELECT * FROM leases WHERE score > ? ORDER BY lease_id LIMIT 3", []any{1}},
		// Order-incompatible bound types: planner must decline the bound.
		{"SELECT * FROM leases WHERE note > ?", []any{5}},
		{"SELECT * FROM leases WHERE expires_at > ?", []any{"not-a-time"}},
	}
	idb, sdb := rangeDB(t, true), rangeDB(t, false)
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

// TestRangePlannerMutationsMatchScan applies the same range-shaped
// UPDATE/DELETE stream to both copies and compares the full table —
// the expiry-sweep UPDATE shape included.
func TestRangePlannerMutationsMatchScan(t *testing.T) {
	idb, sdb := rangeDB(t, true), rangeDB(t, false)
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
	apply("UPDATE leases SET released = TRUE WHERE expires_at <= ? AND released = FALSE", rangeBase)
	apply("UPDATE leases SET released = TRUE WHERE expires_at <= ? AND released = FALSE", rangeBase) // second sweep: 0 rows
	apply("UPDATE leases SET score = score + 10 WHERE score > ?", 4)                                 // moves rows across its own index
	apply("UPDATE leases SET expires_at = ? WHERE score >= ? AND score <= ?", rangeBase.Add(time.Hour), 1, 2)
	apply("DELETE FROM leases WHERE score >= ? AND released = TRUE", 12)
	apply("DELETE FROM leases WHERE expires_at < ?", rangeBase.Add(-20*time.Minute))
	got := idb.MustExec("SELECT * FROM leases")
	want := sdb.MustExec("SELECT * FROM leases")
	if canon(got) != canon(want) {
		t.Fatalf("tables diverged:\nindexed:\n%s\nscan:\n%s", canon(got), canon(want))
	}
	indexConsistent(t, idb, "leases")
}

// TestRangePlannerRandomized fires randomized range statements (random
// ops, bounds, operand order, residual conjuncts, occasional mutations)
// at an indexed and an unindexed copy, comparing every result.
func TestRangePlannerRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	idb, sdb := rangeDB(t, true), rangeDB(t, false)
	ops := []string{">", ">=", "<", "<="}
	nextID := 1000
	for step := 0; step < 400; step++ {
		var sql string
		var args []any
		switch rng.Intn(6) {
		case 0: // single bound on score
			sql = fmt.Sprintf("SELECT * FROM leases WHERE score %s ?", ops[rng.Intn(4)])
			args = []any{rng.Intn(10) - 1}
		case 1: // double bound, sometimes inverted window
			sql = fmt.Sprintf("SELECT * FROM leases WHERE score %s ? AND score %s ?",
				ops[rng.Intn(2)], ops[2+rng.Intn(2)])
			args = []any{rng.Intn(8), rng.Intn(8)}
		case 2: // two bounds with residual
			sql = "SELECT count(*) FROM leases WHERE score >= ? AND score <= ? AND released = FALSE"
			args = []any{rng.Intn(8), rng.Intn(8)}
		case 3: // timestamp window around rangeBase
			sql = "SELECT lease_id FROM leases WHERE expires_at > ? AND expires_at <= ?"
			lo := rangeBase.Add(time.Duration(rng.Intn(80)-40) * time.Minute)
			args = []any{lo, lo.Add(time.Duration(rng.Intn(30)) * time.Minute)}
		case 4: // reversed operand order
			sql = fmt.Sprintf("SELECT * FROM leases WHERE ? %s score", ops[rng.Intn(4)])
			args = []any{rng.Intn(10) - 1}
		case 5: // mutation: insert then sweep-shaped update
			nextID++
			ins := "INSERT INTO leases (lease_id, score, expires_at, released, note) VALUES (?, ?, ?, FALSE, 'r')"
			insArgs := []any{nextID, rng.Intn(7), rangeBase.Add(time.Duration(rng.Intn(60)-30) * time.Minute)}
			idb.MustExec(ins, insArgs...)
			sdb.MustExec(ins, insArgs...)
			sql = "UPDATE leases SET released = TRUE WHERE expires_at <= ? AND released = FALSE"
			args = []any{rangeBase.Add(time.Duration(rng.Intn(40)-35) * time.Minute)}
		}
		gi, ei := idb.Exec(sql, args...)
		gs, es := sdb.Exec(sql, args...)
		if (ei == nil) != (es == nil) {
			t.Fatalf("step %d %s %v: indexed err=%v scan err=%v", step, sql, args, ei, es)
		}
		if ei != nil {
			continue
		}
		if gi.Affected != gs.Affected || canon(gi) != canon(gs) {
			t.Fatalf("step %d %s %v:\nindexed(%d):\n%s\nscan(%d):\n%s",
				step, sql, args, gi.Affected, canon(gi), gs.Affected, canon(gs))
		}
	}
	indexConsistent(t, idb, "leases")
}

func TestExplainRange(t *testing.T) {
	db := rangeDB(t, true)
	for _, tc := range []struct {
		sql  string
		args []any
		want string
	}{
		{"SELECT * FROM leases WHERE score > ?", []any{3},
			"range scan on leases(score) [leases_score] (score > 3)"},
		{"SELECT * FROM leases WHERE ? <= score", []any{2},
			"range scan on leases(score) [leases_score] (score >= 2)"},
		{"SELECT * FROM leases WHERE score > ? AND score <= ? AND released = FALSE", []any{1, 5},
			"range scan on leases(score) [leases_score] (score > 1 AND score <= 5)"},
		{"SELECT * FROM leases WHERE score >= ? AND score <= ?", []any{1, 4},
			"range scan on leases(score) [leases_score] (score >= 1 AND score <= 4)"},
		{"SELECT count(*) FROM leases WHERE released = FALSE AND expires_at > ?", []any{rangeBase},
			"range scan on leases(expires_at) [leases_exp] (expires_at > 2026-07-30T12:00:00Z)"},
		{"UPDATE leases SET released = TRUE WHERE expires_at <= ? AND released = FALSE", []any{rangeBase},
			"range scan on leases(expires_at) [leases_exp] (expires_at <= 2026-07-30T12:00:00Z)"},
		// Equality beats range; PK beats everything.
		{"SELECT * FROM leases WHERE score = ? AND score > ?", []any{3, 1},
			"index lookup on leases(score) [leases_score]"},
		{"SELECT * FROM leases WHERE lease_id = ? AND score > ?", []any{7, 1},
			"point lookup on leases(lease_id) [primary key]"},
		// NULL bound: provably empty.
		{"SELECT * FROM leases WHERE score > ?", []any{nil},
			"empty result (NULL key) on leases(score)"},
		// Order-incompatible bound, LIMIT or BETWEEN (evaluated, never
		// planned): scan.
		{"SELECT * FROM leases WHERE note > ?", []any{5},
			"full scan on leases"},
		{"SELECT * FROM leases WHERE score > ? LIMIT 3", []any{1},
			"full scan on leases (LIMIT)"},
		{"SELECT * FROM leases WHERE score NOT BETWEEN ? AND ?", []any{1, 4},
			"full scan on leases"},
		{"SELECT * FROM leases WHERE score BETWEEN ? AND ?", []any{1, 4},
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

// BenchmarkRangeSeekAt10k measures the expiry-sweep shape directly on
// the engine: a window probe over 10k rows must seek, not scan.
func BenchmarkRangeSeekAt10k(b *testing.B) {
	db := NewDB()
	db.MustExec(`CREATE TABLE leases (
		lease_id BIGINT NOT NULL PRIMARY KEY,
		expires_at TIMESTAMP,
		released BOOLEAN NOT NULL)`)
	db.MustExec("CREATE INDEX leases_exp ON leases (expires_at) USING ORDERED")
	for i := 0; i < 10000; i++ {
		db.MustExec("INSERT INTO leases (lease_id, expires_at, released) VALUES (?, ?, FALSE)",
			i, rangeBase.Add(time.Duration(i)*time.Second))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The window below rangeBase is empty: all rows expire after it.
		if _, err := db.Exec("SELECT count(*) FROM leases WHERE expires_at <= ? AND released = FALSE", rangeBase); err != nil {
			b.Fatal(err)
		}
	}
}
