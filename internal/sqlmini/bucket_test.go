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
// a key of its own, so it starts from a fresh group that holds its
// first row inline and is published by a link store, and from a probe
// run of slots published one by one; it grows them to many rows,
// re-files present rows (a no-op), removes rows — the inline one first,
// while others remain — and ends by removing every row, which
// tombstones the slots and unlinks the group.
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
		rows[i] = testRow(NewInt(int64(i / per))) // round i/per's key
		idOf[rows[i]] = i
	}
	var (
		h       = newHashIndex(0)
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
				if !valid(k, h.lookup(key[0], writerView, nil)) || !valid(k, sl.lookupEqual(key, nil)) {
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
			h.insert(rows[id].curVals(), rows[id], fresh)
			if n := sl.insert(key, rows[id].cur(), rows[id], fresh); node != nil && n != node {
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
				h.remove(rows[present[i]].curVals(), rows[present[i]])
				sl.remove(node, rows[present[i]])
				present = append(present[:i], present[i+1:]...)
				if len(present) > 0 && (!node.linked || len(h.lookup(key[0], writerView, nil)) != len(present)) {
					t.Fatalf("round %d: %d rows left, but the group is unlinked or the hash index lost some", k, len(present))
				}
			}
		}
		if node.linked || h.lookup(key[0], writerView, nil) != nil {
			t.Fatalf("round %d: the last removal left its group linked or a row filed", k)
		}
	}
	stop()
	if shared.Load() == 0 {
		t.Fatal("no reader ever saw a bucket of more than one row")
	}
	if h.live != 0 || sl.size != 0 {
		t.Fatalf("%d rows filed and %d groups left once every row was removed", h.live, sl.size)
	}
	skipLinksConsistent(t, sl)
}

// bucketOf returns the rows index ix files under grp = key, whatever
// version of them any reader sees.
func bucketOf(t *testing.T, db *DB, ix string, key int64) []*Row {
	t.Helper()
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if sx := tbl.indexNamed(ix); sx.kind == IndexOrdered {
		return sx.skip.lookupEqual([]Value{NewInt(key)}, nil)
	} else {
		return filedUnder(sx.hash, NewInt(key))
	}
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
		if it.row != nil || it.ver != nil {
			t.Fatalf("slot %d of the drained queue still references a row", i)
		}
	}
}

// TestGCQueueShrinks: a GC round gives back the backing array a sweep
// grew. A 5 000-row DELETE queues an unlink hint per row; the round
// that drains them must leave the queue's capacity under the floor,
// not the sweep's peak. (The reaper's DELETE left ≈120 kB of hint
// array held between sweeps.)
func TestGCQueueShrinks(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, x INTEGER)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t (id, x) VALUES ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	db.MustExec(sb.String())
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	slot := db.readers.acquire() // hold the round off until every hint is queued
	db.readers.publish(slot, db.commits.Load())
	db.MustExec("DELETE FROM t")
	grown := cap(tbl.gc.queue)
	db.readers.release(slot)
	db.gcAll()
	if c := cap(tbl.gc.queue); grown < 5000 || c > gcQueueFloor {
		t.Fatalf("the DELETE grew the queue to %d, and one round left a capacity of %d, want at most %d", grown, c, gcQueueFloor)
	}
	if res := db.MustExec("SELECT COUNT(*) FROM t"); res.Rows[0][0].Int() != 0 {
		t.Fatalf("%v rows left after the DELETE", res.Rows[0][0])
	}
}
