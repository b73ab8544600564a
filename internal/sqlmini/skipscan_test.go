package sqlmini

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// skipScanDB builds the planner-vs-scan table: an ordered composite
// index whose leading column is NOT NULL, t(a, b), which may be
// skip-scanned on b, and one whose leading column is nullable, t(c, d),
// which may never be skip-scanned on d.
func skipScanDB(tb testing.TB) *DB {
	tb.Helper()
	db := NewDB(WithClock(func() time.Time { return rangeBase }))
	db.MustExec(`CREATE TABLE t (
		id INTEGER NOT NULL PRIMARY KEY,
		a INTEGER NOT NULL,
		b INTEGER,
		c INTEGER,
		d INTEGER)`)
	db.MustExec("CREATE INDEX t_ab ON t (a, b) USING ORDERED")
	db.MustExec("CREATE INDEX t_cd ON t (c, d) USING ORDERED")
	return db
}

// TestSkipScanPlans pins when the planner claims a skip scan: a range on
// the second column of an ordered composite index whose leading column
// is NOT NULL and unconstrained, when nothing better serves — and never
// over a nullable leading column.
func TestSkipScanPlans(t *testing.T) {
	db := skipScanDB(t)
	for i := 1; i <= 12; i++ {
		var c any = i % 3
		if i%4 == 0 {
			c = nil
		}
		db.MustExec("INSERT INTO t (id, a, b, c, d) VALUES (?, ?, ?, ?, ?)", i, i%3, i%5, c, i%4)
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT * FROM t WHERE b <= 3", "skip scan on t(a, b) [t_ab] (b <= 3) (residual-free)"},
		{"SELECT * FROM t WHERE b > 1 AND b < 4", "skip scan on t(a, b) [t_ab] (b > 1 AND b < 4) (residual-free)"},
		{"SELECT * FROM t WHERE 2 < b AND c IS NULL", "skip scan on t(a, b) [t_ab] (b > 2)"},
		{"UPDATE t SET c = 1 WHERE b BETWEEN 1 AND 2", "skip scan on t(a, b) [t_ab] (b >= 1 AND b <= 2) (residual-free)"},
		{"DELETE FROM t WHERE d = 1 AND b >= 2", "skip scan on t(a, b) [t_ab] (b >= 2)"},
		// A NULL bound proves the result empty, as on every range path.
		{"SELECT * FROM t WHERE b > NULL", "empty result (NULL key) on t(b)"},
		// Anything better wins: an equality candidate, a conjunct on the
		// leading column (which an index led by it serves).
		{"SELECT * FROM t WHERE id = 3 AND b > 1", "point lookup on t(id) [primary key]"},
		{"SELECT * FROM t WHERE a = 1 AND b > 1", "range scan on t(a, b) [t_ab] (a = 1 AND b > 1) (residual-free)"},
		{"SELECT * FROM t WHERE c = 2 AND d > 1 AND b > 1", "range scan on t(c, d) [t_cd] (c = 2 AND d > 1)"},
		{"SELECT * FROM t WHERE a >= 1 AND b > 1", "range scan on t(a, b) [t_ab] (a >= 1)"},
		// A nullable leading column is never skipped: its NULL rows are
		// filed nowhere.
		{"SELECT * FROM t WHERE d > 1", "full scan on t"},
		{"SELECT * FROM t WHERE d BETWEEN 0 AND 2", "full scan on t"},
		// Nor is any index that leaves a matching row unfiled: t(c, d)
		// without a conjunct on d misses the rows whose d is NULL, and
		// t(a, b) without one on b those whose b is.
		{"SELECT * FROM t WHERE c = 2 AND b > 1", "skip scan on t(a, b) [t_ab] (b > 1)"},
		{"SELECT * FROM t WHERE c = 2", "full scan on t"},
		{"SELECT * FROM t WHERE a = 1", "full scan on t"},
		{"SELECT * FROM t WHERE a < 2 AND c IS NULL", "full scan on t"},
		// A bound that cannot seek leaves nothing to skip-scan by.
		{"SELECT * FROM t WHERE b > 'x'", "full scan on t"},
		{"SELECT * FROM t WHERE b > 1 ORDER BY id LIMIT 2", "full scan on t (LIMIT)"},
	} {
		got, err := db.Explain(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got != tc.want {
			t.Fatalf("%s plans as %q, want %q", tc.sql, got, tc.want)
		}
	}
	// An index led by the range column beats the skip scan.
	db.MustExec("CREATE INDEX t_b ON t (b) USING ORDERED")
	if got, err := db.Explain("SELECT * FROM t WHERE b <= 3"); err != nil || got != "range scan on t(b) [t_b] (b <= 3)" {
		t.Fatalf("with t_b declared, b <= 3 plans as %q (%v), want the range scan on t_b", got, err)
	}
}

// fuzzReader hands out the fuzz input a byte at a time, zeros once it
// runs dry.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzVal renders a small integer literal, NULL one time in six.
func fuzzVal(b int) string {
	if b%6 == 5 {
		return "NULL"
	}
	return fmt.Sprint(b % 5)
}

var fuzzOps = []string{"<", "<=", ">", ">="}

// fuzzConjunct renders one WHERE conjunct of a shape the planner claims
// (equality, range and BETWEEN on every indexed column, reversed
// operands, lossy and NULL keys) or one it leaves residual.
func fuzzConjunct(r *fuzzReader) string {
	k, op := r.next(), fuzzOps[r.next()%len(fuzzOps)]
	col := []string{"id", "a", "b", "c", "d"}[r.next()%5]
	switch r.next() % 9 {
	case 0:
		return fmt.Sprintf("%s = %s", col, fuzzVal(k))
	case 1, 2:
		return fmt.Sprintf("%s %s %s", col, op, fuzzVal(k))
	case 3:
		return fmt.Sprintf("%s %s %s", fuzzVal(k), op, col)
	case 4:
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, fuzzVal(k), fuzzVal(r.next()))
	case 5:
		return fmt.Sprintf("%s %s %d.5", col, op, k%5) // a DOUBLE key on an INTEGER column
	case 6:
		return col + " IS NULL"
	case 7:
		return fmt.Sprintf("%s <> %s", col, fuzzVal(k))
	default:
		return fmt.Sprintf("b %s %s", op, fuzzVal(k)) // the skip-scan shape, more often
	}
}

// FuzzPlannerMatchesScan runs random INSERT/UPDATE/DELETE streams and
// random WHERE clauses of every shape the planner claims — the skip
// scan over t(a, b) included — on skipScanDB. Every statement runs
// planned on one copy and as a forced full scan on another (the WHERE
// wrapped as `(w) OR FALSE`, which no plan claims and which keeps w's
// truth value), and every query also runs both ways on the planned
// copy: affected counts and result sets must agree. Updates move rows
// between index groups, so stale MVCC groups — a row under its old and
// its new key — are there for the gathers to deduplicate and re-check.
// The seed corpus runs as part of plain `go test`.
func FuzzPlannerMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 2, 3, 1, 0, 0, 4, 4, 4, 2, 3, 1, 1, 2, 8, 3, 0, 1, 1, 2, 2, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 2, 2, 2, 2, 0, 3, 0, 3, 1, 1, 3, 0, 2, 2, 4, 2, 1, 8, 3, 1, 0, 1, 8})
	f.Add([]byte{0, 7, 3, 2, 1, 0, 9, 4, 5, 0, 2, 1, 2, 2, 4, 2, 0, 3, 2, 0, 1, 3, 0, 3, 0, 4, 1, 4, 1, 2, 0, 8, 3, 2, 4, 1, 5})
	f.Add([]byte{0, 1, 1, 1, 1, 0, 2, 2, 2, 2, 2, 1, 2, 1, 1, 3, 0, 4, 2, 3, 4, 3, 4, 1, 0, 7, 5, 1, 6, 2, 2, 2, 3, 3, 1, 2, 8})
	// Six rows over four leading keys, then skip scans cut above, below
	// and on both sides, around an UPDATE that moves rows to another
	// leading key and a DELETE.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 3, 1, 1, 0, 1, 0, 2, 2, 0, 1, 4, 0, 0, 0, 2, 1, 1, 1, 0, 3, 2, 0, 0,
		3, 0, 1, 1, 0, 8, 3, 1, 0, 2, 2, 1, 4, 0, 2, 1, 1, 0, 1, 3, 2, 1, 0, 2, 3, 0, 3, 1, 0, 8,
		2, 0, 0, 0, 2, 4, 2, 3, 0, 0, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		planned, scanned := skipScanDB(t), skipScanDB(t)
		nextID := 0
		for steps := 0; len(r) > 0 && steps < 64; steps++ {
			op := r.next() % 4
			var where []string
			if op != 0 {
				for n := 1 + r.next()%3; n > 0; n-- {
					where = append(where, fuzzConjunct(&r))
				}
			}
			w := strings.Join(where, " AND ")
			forced := "(" + w + ") OR FALSE"
			switch op {
			case 0:
				nextID++
				ins := fmt.Sprintf("INSERT INTO t (id, a, b, c, d) VALUES (%d, %d, %s, %s, %s)",
					nextID, r.next()%4, fuzzVal(r.next()), fuzzVal(r.next()), fuzzVal(r.next()))
				planned.MustExec(ins)
				scanned.MustExec(ins)
			case 1, 2:
				stmt := "DELETE FROM t WHERE "
				if op == 1 {
					col := []string{"a", "b", "c", "d"}[r.next()%4]
					val := fuzzVal(r.next())
					if col == "a" && val == "NULL" {
						val = "0"
					}
					stmt = fmt.Sprintf("UPDATE t SET %s = %s WHERE ", col, val)
				}
				rp, ep := planned.Exec(stmt + w)
				rs, es := scanned.Exec(stmt + forced)
				if ep != nil || es != nil {
					t.Fatalf("%s: planned err %v, scan err %v", stmt+w, ep, es)
				}
				if rp.Affected != rs.Affected {
					t.Fatalf("%s: affected %d planned, %d by scan", stmt+w, rp.Affected, rs.Affected)
				}
			case 3:
				q := "SELECT id, a, b, c, d FROM t WHERE "
				if plan, err := planned.Explain(q + forced); err != nil || plan != "full scan on t" {
					t.Fatalf("the forced scan plans as %q (%v)", plan, err)
				}
				got, err := planned.Exec(q + w)
				if err != nil {
					t.Fatalf("%s: %v", q+w, err)
				}
				want, err := planned.Exec(q + forced)
				if err != nil {
					t.Fatalf("%s: %v", q+forced, err)
				}
				if canon(got) != canon(want) {
					plan, _ := planned.Explain(q + w)
					t.Fatalf("%s (%s):\nplanned:\n%s\nscan:\n%s", q+w, plan, canon(got), canon(want))
				}
			}
		}
		got := planned.MustExec("SELECT * FROM t")
		want := scanned.MustExec("SELECT * FROM t")
		if canon(got) != canon(want) {
			t.Fatalf("tables diverged:\nplanned:\n%s\nscan:\n%s", canon(got), canon(want))
		}
	})
}
