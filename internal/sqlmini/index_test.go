package sqlmini

import (
	"fmt"
	"math/rand"
	"testing"
)

// liveRow pairs a row with its current (committed) values.
type liveRow struct {
	r    *Row
	vals []Value
}

// indexConsistent verifies the PK index and every secondary index
// agree with a full scan. MVCC indexes are lazily maintained — stale
// entries are legal until GC matures them — so the check first forces a
// full GC round (no reader is registered in these single-threaded
// tests, so every queued hint is mature) and then demands the settled
// state exactly: every live row indexed once under its current key, no
// stale entries, no empty buckets or groups.
func indexConsistent(t *testing.T, db *DB, table string) {
	t.Helper()
	db.gcAll()
	tbl, err := db.lookupTable(table)
	if err != nil {
		t.Fatalf("lookup %q: %v", table, err)
	}
	var live []liveRow
	for _, r := range tbl.rowsSnapshot() {
		if vals := r.curVals(); vals != nil {
			live = append(live, liveRow{r, vals})
		}
	}
	if tbl.pk >= 0 {
		hashSettled(t, "primary key", tbl.pkIx, live)
	}
	for _, ix := range tbl.loadIndexes() {
		if ix.kind == IndexOrdered {
			orderedConsistent(t, live, ix)
		} else {
			hashSettled(t, ix.name, ix.hash, live)
		}
	}
}

// hashSettled verifies a settled hash index against a full scan: every
// live row with a non-NULL key is found once by its key, and every slot
// holds a live row filed under the hash of its current key, so no
// stale slot is left and each row has one.
func hashSettled(t *testing.T, name string, h *hashIndex, live []liveRow) {
	t.Helper()
	writer := tableView{writer: true}
	filed := 0
	for _, lr := range live {
		key := lr.vals[h.col]
		if key.IsNull() {
			continue
		}
		filed++
		n := 0
		for _, r := range h.lookup(key, writer, nil) {
			if r == lr.r {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("index %s: row with key %v is found %d times by its key", name, key, n)
		}
	}
	slots := 0
	for _, s := range hashRows(h) {
		vals := s.row.curVals()
		if vals == nil || s.row.unlinked {
			t.Fatalf("index %s: a dead row is still filed after GC", name)
		}
		if hv, ok := h.slotHash(vals); !ok || hv != s.hash {
			t.Fatalf("index %s: row with key %v is filed under a stale hash", name, vals[h.col])
		}
		slots++
	}
	if slots != filed || h.live != filed {
		t.Fatalf("index %s: %d slots hold rows (live count %d), scan found %d keyed rows", name, slots, h.live, filed)
	}
}

// hashRow is one filled slot of a hash table.
type hashRow struct {
	hash uint64
	row  *Row
}

// hashRows returns the rows the published table of h holds, with the
// hash each is filed under, in slot order.
func hashRows(h *hashIndex) []hashRow {
	var out []hashRow
	tab := h.tab.Load()
	for i := range tab.slots {
		if r := tab.slots[i].row.Load(); r != nil && r != hashTomb {
			out = append(out, hashRow{tab.slots[i].hash, r})
		}
	}
	return out
}

// orderedConsistent verifies an ordered index: the skiplist's links
// (skipLinksConsistent), groups strictly sorted, no empty group, every
// member row live and filed under its current key, and total indexed
// rows matching the scan.
func orderedConsistent(t *testing.T, live []liveRow, ix *secondaryIndex) {
	t.Helper()
	skipLinksConsistent(t, ix.skip)
	indexed := 0
	var prevKey []Value
	ix.skip.each(func(key []Value, rows []*Row) {
		if len(rows) == 0 {
			t.Fatalf("index %q: empty group %v left behind", ix.name, key)
		}
		if prevKey != nil && cmpTuples(prevKey, key) >= 0 {
			t.Fatalf("index %q: groups out of order (%v vs %v)", ix.name, prevKey, key)
		}
		prevKey = key
		for _, br := range rows {
			vals := br.curVals()
			if vals == nil {
				t.Fatalf("index %q: dead row left in group %v after GC", ix.name, key)
			}
			bk, ok := tupleOf(nil, ix.cols, vals)
			if !ok || cmpTuples(key, bk) != 0 {
				t.Fatalf("index %q: row with key %v filed under group key %v", ix.name, bk, key)
			}
		}
		indexed += len(rows)
	})
	scan := 0
	for _, lr := range live {
		key, ok := tupleOf(nil, ix.cols, lr.vals)
		if !ok {
			continue
		}
		scan++
		n := 0
		for _, br := range ix.skip.lookupEqual(key, nil) {
			if br == lr.r {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("index %q: row with key %v appears %d times in its group", ix.name, key, n)
		}
	}
	if indexed != scan {
		t.Fatalf("index %q: %d rows indexed, scan found %d", ix.name, indexed, scan)
	}
}

// cmpTuples orders two tuples of one index's columns, over b's
// positions, as skipList.cmpKey orders a group's key against a probe.
func cmpTuples(a, b []Value) int {
	for i := range b {
		c, ok := comparePtr(&a[i], &b[i])
		if !ok {
			return 0
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// skipLinksConsistent checks a skiplist's links at every level: each
// node a forward link reaches is marked linked into sl and its back
// link names the node that reached it, keys strictly increase along
// every level, each level's last node is the one the list records for
// it (the head for an empty level), and size counts the level-0 groups.
func skipLinksConsistent(t testing.TB, sl *skipList) {
	t.Helper()
	groups := 0
	for lvl := 0; lvl < skipMaxLevel; lvl++ {
		prev := sl.head
		for n := sl.head.next(lvl); n != nil; prev, n = n, n.next(lvl) {
			if !n.linked {
				t.Fatalf("level %d: group %v is linked but not marked linked", lvl, sl.key(n))
			}
			if n.link(lvl).prev != prev {
				t.Fatalf("level %d: group %v has a back link to the wrong node", lvl, sl.key(n))
			}
			if prev != sl.head && cmpTuples(sl.key(prev), sl.key(n)) >= 0 {
				t.Fatalf("level %d: groups out of order (%v vs %v)", lvl, sl.key(prev), sl.key(n))
			}
			if lvl == 0 {
				groups++
			}
		}
		if sl.last[lvl] != prev {
			t.Fatalf("level %d: the list records the wrong last node", lvl)
		}
	}
	if groups != sl.size {
		t.Fatalf("skiplist counts %d groups, level 0 links %d", sl.size, groups)
	}
}

func TestPKIndexMutationSequence(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)")
	db.MustExec("INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)")
	indexConsistent(t, db, "t")

	// Key-changing update.
	db.MustExec("UPDATE t SET id = 4 WHERE id = 2")
	indexConsistent(t, db, "t")
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (2, 22)"); err != nil {
		t.Fatalf("freed key must be reusable: %v", err)
	}
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (4, 44)"); err == nil {
		t.Fatal("moved-to key must conflict")
	}
	indexConsistent(t, db, "t")

	// Delete frees keys.
	db.MustExec("DELETE FROM t WHERE id = 4")
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (4, 40)"); err != nil {
		t.Fatalf("deleted key must be reusable: %v", err)
	}
	indexConsistent(t, db, "t")
}

func TestPKIndexRollback(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)")
	db.MustExec("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")

	s := db.NewSession()
	defer s.Close()
	s.Exec("BEGIN")                                //nolint:errcheck
	s.Exec("INSERT INTO t (id, v) VALUES (3, 30)") //nolint:errcheck
	s.Exec("UPDATE t SET id = 9 WHERE id = 1")     //nolint:errcheck
	s.Exec("DELETE FROM t WHERE id = 2")           //nolint:errcheck
	s.Exec("ROLLBACK")                             //nolint:errcheck
	indexConsistent(t, db, "t")

	// Original keys are live again, transaction keys are free.
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (1, 0)"); err == nil {
		t.Fatal("key 1 must exist again after rollback")
	}
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (3, 0)"); err != nil {
		t.Fatalf("key 3 must be free after rollback: %v", err)
	}
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (9, 0)"); err != nil {
		t.Fatalf("key 9 must be free after rollback: %v", err)
	}
	indexConsistent(t, db, "t")
}

// TestPKIndexRandomizedProperty drives a random mutation sequence
// (inserts, deletes, key-moving updates, rollbacks) and checks the index
// against a full scan after every step.
func TestPKIndexRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)")
	live := map[int]bool{}
	nextFree := func() int {
		for {
			k := rng.Intn(200)
			if !live[k] {
				return k
			}
		}
	}
	anyLive := func() (int, bool) {
		for k := range live {
			return k, true
		}
		return 0, false
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(4); op {
		case 0: // insert
			k := nextFree()
			db.MustExec("INSERT INTO t (id, v) VALUES (?, ?)", k, step)
			live[k] = true
		case 1: // delete
			if k, ok := anyLive(); ok {
				db.MustExec("DELETE FROM t WHERE id = ?", k)
				delete(live, k)
			}
		case 2: // key-moving update
			if k, ok := anyLive(); ok {
				nk := nextFree()
				db.MustExec("UPDATE t SET id = ? WHERE id = ?", nk, k)
				delete(live, k)
				live[nk] = true
			}
		case 3: // transaction that rolls back
			s := db.NewSession()
			s.Exec("BEGIN") //nolint:errcheck
			k := nextFree()
			s.Exec("INSERT INTO t (id, v) VALUES (?, 0)", k) //nolint:errcheck
			if lk, ok := anyLive(); ok {
				s.Exec("DELETE FROM t WHERE id = ?", lk) //nolint:errcheck
			}
			s.Exec("ROLLBACK") //nolint:errcheck
			s.Close()
		}
		indexConsistent(t, db, "t")
	}
	// Final cross-check: count matches the model.
	res, _ := db.Exec("SELECT count(*) FROM t")
	if int(res.Rows[0][0].Int()) != len(live) {
		t.Fatalf("row count %d != model %d", res.Rows[0][0].Int(), len(live))
	}
}

func TestSecondaryIndexMutationSequence(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX t_grp ON t (grp)")
	db.MustExec("INSERT INTO t (id, grp, v) VALUES (1, 10, 1), (2, 10, 2), (3, 20, 3), (4, NULL, 4)")
	indexConsistent(t, db, "t")

	// Bucket-moving update, NULL transitions both ways.
	db.MustExec("UPDATE t SET grp = 20 WHERE id = 1")
	db.MustExec("UPDATE t SET grp = NULL WHERE id = 2")
	db.MustExec("UPDATE t SET grp = 30 WHERE id = 4")
	indexConsistent(t, db, "t")

	res := db.MustExec("SELECT id FROM t WHERE grp = 20 ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 3 {
		t.Fatalf("grp=20 rows = %v", res.Rows)
	}

	db.MustExec("DELETE FROM t WHERE grp = 20")
	indexConsistent(t, db, "t")
	if res := db.MustExec("SELECT count(*) FROM t"); res.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestSecondaryIndexRollback(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp INTEGER)")
	db.MustExec("CREATE INDEX t_grp ON t (grp)")
	db.MustExec("INSERT INTO t (id, grp) VALUES (1, 10), (2, 20)")

	s := db.NewSession()
	defer s.Close()
	s.Exec("BEGIN")                                  //nolint:errcheck
	s.Exec("INSERT INTO t (id, grp) VALUES (3, 10)") //nolint:errcheck
	s.Exec("UPDATE t SET grp = 99 WHERE id = 1")     //nolint:errcheck
	s.Exec("DELETE FROM t WHERE id = 2")             //nolint:errcheck
	s.Exec("ROLLBACK")                               //nolint:errcheck
	indexConsistent(t, db, "t")

	res := db.MustExec("SELECT id FROM t WHERE grp = 10")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("grp=10 after rollback = %v", res.Rows)
	}
	if res := db.MustExec("SELECT id FROM t WHERE grp = 20"); len(res.Rows) != 1 {
		t.Fatalf("grp=20 after rollback = %v", res.Rows)
	}
	if res := db.MustExec("SELECT id FROM t WHERE grp = 99"); len(res.Rows) != 0 {
		t.Fatalf("grp=99 after rollback = %v", res.Rows)
	}
}

// TestSecondaryIndexRandomizedProperty drives a random mutation
// sequence — inserts, deletes, bucket-moving updates and rollbacks —
// and checks after every step that the indexes are structurally
// consistent and that index-driven SELECTs agree with a forced full
// scan.
func TestSecondaryIndexRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX t_grp ON t (grp)")
	nextID := 0
	live := map[int]bool{}
	anyLive := func() (int, bool) {
		for k := range live {
			return k, true
		}
		return 0, false
	}
	grpVal := func() any {
		if rng.Intn(8) == 0 {
			return nil // NULLs must stay out of the index
		}
		return rng.Intn(5)
	}
	for step := 0; step < 500; step++ {
		switch op := rng.Intn(5); op {
		case 0, 1: // insert
			nextID++
			db.MustExec("INSERT INTO t (id, grp, v) VALUES (?, ?, ?)", nextID, grpVal(), step)
			live[nextID] = true
		case 2: // delete by id or by group
			if rng.Intn(2) == 0 {
				if k, ok := anyLive(); ok {
					db.MustExec("DELETE FROM t WHERE id = ?", k)
					delete(live, k)
				}
			} else {
				g := rng.Intn(5)
				res := db.MustExec("SELECT id FROM t WHERE grp = ?", g)
				db.MustExec("DELETE FROM t WHERE grp = ?", g)
				for _, row := range res.Rows {
					delete(live, int(row[0].Int()))
				}
			}
		case 3: // bucket-moving update
			if k, ok := anyLive(); ok {
				db.MustExec("UPDATE t SET grp = ? WHERE id = ?", grpVal(), k)
			}
		case 4: // transaction that rolls back
			s := db.NewSession()
			s.Exec("BEGIN") //nolint:errcheck
			nextID++
			s.Exec("INSERT INTO t (id, grp, v) VALUES (?, ?, 0)", nextID, grpVal()) //nolint:errcheck
			if lk, ok := anyLive(); ok {
				s.Exec("UPDATE t SET grp = ? WHERE id = ?", grpVal(), lk) //nolint:errcheck
				s.Exec("DELETE FROM t WHERE id = ?", lk)                  //nolint:errcheck
			}
			s.Exec("ROLLBACK") //nolint:errcheck
			s.Close()
		}
		indexConsistent(t, db, "t")
		// Index-driven lookups agree with a full scan for every group,
		// including one no row holds.
		for g := 0; g < 6; g++ {
			got := db.MustExec("SELECT id FROM t WHERE grp = ?", g)
			want := db.MustExec("SELECT id FROM t WHERE grp + 0 = ?", g) // arithmetic defeats the planner
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("step %d grp=%d: index path %d rows, scan %d rows", step, g, len(got.Rows), len(want.Rows))
			}
			gotIDs, wantIDs := map[int64]bool{}, map[int64]bool{}
			for _, r := range got.Rows {
				gotIDs[r[0].Int()] = true
			}
			for _, r := range want.Rows {
				wantIDs[r[0].Int()] = true
			}
			for id := range wantIDs {
				if !gotIDs[id] {
					t.Fatalf("step %d grp=%d: scan found id %d, index path did not", step, g, id)
				}
			}
		}
	}
	res, _ := db.Exec("SELECT count(*) FROM t")
	if int(res.Rows[0][0].Int()) != len(live) {
		t.Fatalf("row count %d != model %d", res.Rows[0][0].Int(), len(live))
	}
}

func BenchmarkInsertWithPKAt10k(b *testing.B) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY)")
	for i := 0; i < 10000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t (id) VALUES (%d)", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t (id) VALUES (?)", 10000+i); err != nil {
			b.Fatal(err)
		}
	}
}
