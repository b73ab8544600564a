package sqlmini

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRowBucketLockFreeReaders is the memory-model argument for the
// row bucket, run under -race: one writer (standing in for the
// table-latch holder) files rows into a hash index and an ordered index
// while readers look them up lock-free. Each round files its rows under
// a key of its own, so it starts from a fresh entry and group that hold
// their first row inline and are published by a slot or link store;
// it grows that bucket to many rows, re-files present rows (a no-op),
// removes rows — the inline one first, while others remain — and ends
// by removing every row, which drops the entry and unlinks the group.
// Rows enter in id order and a removed row never returns, so every
// bucket a reader can observe must list strictly increasing ids
// (duplicate-free, insertion order, no unwritten slot), and an id
// missing below the bucket's newest row must be one whose removal the
// writer had already announced. Writer and readers yield after every
// step, so the readers see the intermediate buckets at GOMAXPROCS=1
// too.
func TestRowBucketLockFreeReaders(t *testing.T) {
	const pool, rounds = 4000, 40
	const per = pool / rounds
	rows := make([]*Row, pool)
	idOf := make(map[*Row]int, pool)
	for i := range rows {
		rows[i] = &Row{}
		idOf[rows[i]] = i
	}
	var (
		h       = newHashIndex([]int{0})
		sl      = newSkipList([]int{0})
		round   atomic.Int64 // the key being filed under
		removed [pool]atomic.Bool
		done    atomic.Bool
		shared  atomic.Int64 // buckets read holding more than one row
		wg      sync.WaitGroup
	)
	// valid checks one bucket of round k's key.
	valid := func(k int, got []*Row) bool {
		prev := k*per - 1 // every earlier round's rows are announced removed
		for _, r := range got {
			if r == nil {
				t.Error("reader saw a slot before it was written")
				return false
			}
			id := idOf[r]
			if id <= prev {
				t.Errorf("ids out of insertion order or duplicated: %d after %d", id, prev)
				return false
			}
			for gap := prev + 1; gap < id; gap++ {
				if !removed[gap].Load() {
					t.Errorf("row %d missing from a bucket that reaches row %d", gap, id)
					return false
				}
			}
			prev = id
		}
		if len(got) > 1 {
			shared.Add(1)
		}
		return true
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				k := int(round.Load())
				key := []Value{NewInt(int64(k))}
				if !valid(k, h.lookup(key)) || !valid(k, sl.lookupEqual(key, nil)) {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	stop := func() { // also on a writer-side Fatal: readers must not outlive the test
		done.Store(true)
		wg.Wait()
	}
	defer stop()
	rng := rand.New(rand.NewSource(1))
	for k, next := 0, 0; k < rounds; k++ {
		round.Store(int64(k))
		key := []Value{NewInt(int64(k))}
		var node *skipNode
		var present []int
		file := func(id int, fresh bool) {
			h.insert(key, rows[id], fresh)
			if n := sl.insert(key, rows[id], fresh); node != nil && n != node {
				t.Fatal("a key's second row started a second group")
			} else {
				node = n
			}
		}
		dropped := false
		for end := next + per; next < end || len(present) > 0; runtime.Gosched() {
			switch op := rng.Intn(10); {
			case op < 6 && next < end:
				file(next, next%2 == 0)
				present = append(present, next)
				next++
			case op < 8 && len(present) > 0: // re-registration: must be a no-op
				file(present[rng.Intn(len(present))], false)
			case len(present) > 1 || next == end && len(present) > 0:
				i := rng.Intn(len(present))
				if !dropped { // the inline row
					i, dropped = 0, true
				}
				removed[present[i]].Store(true)
				h.remove(key, rows[present[i]])
				sl.remove(node, rows[present[i]])
				present = append(present[:i], present[i+1:]...)
				if len(present) > 0 && (node.owner != sl || len(h.lookup(key)) != len(present)) {
					t.Fatalf("round %d: %d rows left, but the group is unlinked or the entry lost some", k, len(present))
				}
			}
		}
		if node.owner != nil || h.lookup(key) != nil {
			t.Fatalf("round %d: the last removal left its group linked or its entry filed", k)
		}
	}
	stop()
	if shared.Load() == 0 {
		t.Fatal("no reader ever saw a bucket of more than one row")
	}
	if h.live != 0 || sl.size != 0 {
		t.Fatalf("%d entries and %d groups left once every row was removed", h.live, sl.size)
	}
	skipLinksConsistent(t, sl)
}

// bucketOf returns the rows index ix files under grp = key.
func bucketOf(t *testing.T, db *DB, ix string, key int64) []*Row {
	t.Helper()
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	return tbl.indexNamed(ix).lookup([]Value{NewInt(key)})
}

// bucketDB builds t(id, grp) with a hash and an ordered index on grp
// and n rows all filed under grp = 1.
func bucketDB(t testing.TB, n int) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX t_hash ON t (grp)")
	db.MustExec("CREATE INDEX t_ord ON t (grp, v) USING ORDERED")
	fillBucket(t, db, 0, n)
	return db
}

// fillBucket inserts rows lo+1..hi under grp = 1, v = 0.
func fillBucket(t testing.TB, db *DB, lo, hi int) {
	t.Helper()
	for lo < hi {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t (id, grp, v) VALUES ")
		for i := 0; i < 500 && lo < hi; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			lo++
			fmt.Fprintf(&sb, "(%d, 1, 0)", lo)
		}
		db.MustExec(sb.String())
	}
}

// wantOnce fails unless row id appears exactly once in the shared
// (grp = key) bucket of both indexes.
func wantOnce(t *testing.T, db *DB, id, key int64) {
	t.Helper()
	for _, ix := range []string{"t_hash", "t_ord"} {
		n := 0
		for _, r := range bucketOf(t, db, ix, key) {
			if vals := r.curVals(); vals != nil && vals[0].Int() == id {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%s: row %d appears %d times under grp = %d", ix, id, n, key)
		}
	}
}

// TestBucketKeyCycleAndRollbackNoDuplicates covers the add-if-absent
// paths into a bucket other rows share: an A→B→A key cycle with the A
// entry still in place, the same cycle with GC having dropped it in
// between, and rollbacks of an update and of a delete (with and
// without GC unlinking the row first).
func TestBucketKeyCycleAndRollbackNoDuplicates(t *testing.T) {
	db := bucketDB(t, 50)

	db.MustExec("UPDATE t SET grp = 2 WHERE id = 7")
	db.MustExec("UPDATE t SET grp = 1 WHERE id = 7") // stale A entry still there
	wantOnce(t, db, 7, 1)

	db.MustExec("UPDATE t SET grp = 2 WHERE id = 8")
	db.gcAll() // A entry dropped
	db.MustExec("UPDATE t SET grp = 1 WHERE id = 8")
	wantOnce(t, db, 8, 1)
	if got := bucketOf(t, db, "t_hash", 1); got[len(got)-1].curVals()[0].Int() != 8 {
		t.Fatal("a re-filed row must go to the end of the bucket (insertion order)")
	}

	s := db.NewSession()
	defer s.Close()
	for _, mid := range []func(){func() {}, db.gcAll} {
		s.Exec("BEGIN")                                  //nolint:errcheck
		s.Exec("UPDATE t SET grp = 3 WHERE id = 9")      //nolint:errcheck
		s.Exec("DELETE FROM t WHERE id = 10")            //nolint:errcheck
		s.Exec("INSERT INTO t (id, grp) VALUES (99, 1)") //nolint:errcheck
		mid()
		s.Exec("ROLLBACK") //nolint:errcheck
		wantOnce(t, db, 9, 1)
		wantOnce(t, db, 10, 1)
	}
	indexConsistent(t, db, "t")
	if n := len(bucketOf(t, db, "t_hash", 1)); n != 50 {
		t.Fatalf("bucket settled at %d rows, want 50", n)
	}
}

// TestBucketSurvivesUpgrade: a many-row bucket comes through the
// hash→ordered in-place upgrade (with the superseded hash kept fed as a
// shadow) and keeps appending. The upgrade's backfill files a
// superseded version too, and GC then drops that entry like any other
// moved key's.
func TestBucketSurvivesUpgrade(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX t_hash ON t (grp)")
	fillBucket(t, db, 0, 300)
	db.MustExec("UPDATE t SET grp = 2 WHERE id = 5")
	tbl, _ := db.lookupTable("t")
	old := tbl.indexNamed("t_hash").hash
	db.MustExec("CREATE INDEX IF NOT EXISTS t_grp_idx ON t (grp) USING ORDERED")
	ix := tbl.indexNamed("t_hash")
	if ix.kind != IndexOrdered || ix.shadow != old {
		t.Fatalf("upgrade left kind %v, shadow kept: %v", ix.kind, ix.shadow == old)
	}
	if n := len(bucketOf(t, db, "t_hash", 1)); n != 300 {
		t.Fatalf("backfill filed %d rows under grp = 1, want 300 (row 5's superseded version included)", n)
	}
	db.gcAll()
	if n := len(bucketOf(t, db, "t_hash", 1)); n != 299 {
		t.Fatalf("after GC grp = 1 holds %d rows, want 299: the backfilled entry of row 5's superseded version outlived GC", n)
	}
	fillBucket(t, db, 300, 310)
	if n := len(old.lookup([]Value{NewInt(1)})); n != 309 { // 300 - row 5 + 10
		t.Fatalf("shadow bucket holds %d rows, want 309", n)
	}
	indexConsistent(t, db, "t")
	if res := db.MustExec("SELECT count(*) FROM t WHERE grp = 1"); res.Rows[0][0].Int() != 309 {
		t.Fatalf("grp = 1 count after upgrade = %v", res.Rows[0][0])
	}
}

// TestGCKeepsEntryOfRowOnceNull: a row whose indexed column went
// NULL → 1 before the index existed is backfilled from both versions,
// only one of which has a tuple to index. Whatever GC then does about
// the NULL version, it must not take the row's live entry with it (an
// empty probe compares equal to every skiplist group, and hashes to
// the bucket of the empty VARCHAR).
func TestGCKeepsEntryOfRowOnceNull(t *testing.T) {
	for _, using := range []string{"", " USING ORDERED"} {
		db := NewDB()
		db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, x INTEGER, s VARCHAR)")
		db.MustExec("INSERT INTO t (id, x, s) VALUES (1, NULL, NULL), (2, 5, '')")
		db.MustExec("UPDATE t SET x = 1, s = '' WHERE id = 1")
		db.MustExec("CREATE INDEX t_x ON t (x)" + using)
		db.MustExec("CREATE INDEX t_s ON t (s)" + using)
		db.MustExec("UPDATE t SET x = NULL, s = NULL WHERE id = 2") // a hint whose new tuple is NULL
		db.gcAll()
		for _, q := range []string{"SELECT id FROM t WHERE x = 1", "SELECT id FROM t WHERE s = ''"} {
			if res := db.MustExec(q); len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
				t.Fatalf("%q after CREATE INDEX%s and GC: %v, want row 1", q, using, res.Rows)
			}
		}
		indexConsistent(t, db, "t")
	}
}

// TestInsertBytesFlatInBucketSize is the clock-free scaling guard for
// the grant path: an INSERT into a key that 20 000 rows already share
// may allocate at most twice what it does when 200 share it. (With
// copy-on-write buckets the 20 000-row INSERT allocated two fresh
// 160 KB arrays.)
func TestInsertBytesFlatInBucketSize(t *testing.T) {
	perInsert := func(n int) uint64 {
		db := bucketDB(t, n)
		ins, err := db.Prepare("INSERT INTO t (id, grp, v) VALUES ($id, 1, 0)")
		if err != nil {
			t.Fatal(err)
		}
		args := Args{}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= runs; i++ {
			args["id"] = int64(n + i)
			if _, err := ins.Exec(args); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := perInsert(200), perInsert(20000)
	t.Logf("bytes per INSERT: %d at 200 rows per key, %d at 20000", small, large)
	if large > 2*small {
		t.Fatalf("INSERT allocates %d B into a 20000-row bucket, %d B into a 200-row one: not O(1)", large, small)
	}
}

// TestGCQueueDropsProcessedItems: a GC round must not leave the items
// it processed sitting in the queue's backing array, where they keep
// deleted rows and their superseded values reachable. (The lease
// reaper deletes a second's worth of leases per sweep; the stale tail
// held the last sweep's rows, two versions each.)
func TestGCQueueDropsProcessedItems(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, x INTEGER)")
	db.MustExec("CREATE INDEX t_x ON t (x) USING ORDERED")
	for i := 0; i < 300; i++ {
		db.MustExec("INSERT INTO t (id, x) VALUES (?, ?)", i, i)
	}
	db.MustExec("UPDATE t SET x = x + 1000")
	db.MustExec("DELETE FROM t")
	db.gcAll()
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	q := tbl.gc.queue
	if len(q) != 0 {
		t.Fatalf("%d items still queued after a full GC round", len(q))
	}
	for i, it := range q[:cap(q)] {
		if it.row != nil || it.vals != nil {
			t.Fatalf("slot %d of the drained queue still references a row", i)
		}
	}
}
