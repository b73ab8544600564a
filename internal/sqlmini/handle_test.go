package sqlmini

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// renewLeaseSQL is the server's no-change renewal: one guarded UPDATE
// that moves expires_at in both ordered indexes of leaseTableDB.
const renewLeaseSQL = `UPDATE leases SET expires_at = $exp, renewals = renewals + 1, driver_id = $drv
	WHERE lease_id = $id AND released = FALSE`

// leaseTableDB builds a lease log shaped like the server's — a PRIMARY
// KEY plus the (expires_at) and (driver_id, expires_at) ordered indexes
// — with n unreleased leases on driver 1 expiring a millisecond apart
// from base.
func leaseTableDB(tb testing.TB, n int, base time.Time) *DB {
	tb.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE leases (lease_id BIGINT NOT NULL PRIMARY KEY, driver_id INTEGER NOT NULL,
		expires_at TIMESTAMP NOT NULL, released BOOLEAN NOT NULL, renewals INTEGER NOT NULL)`)
	db.MustExec("CREATE INDEX leases_exp ON leases (expires_at) USING ORDERED")
	db.MustExec("CREATE INDEX leases_drv_exp ON leases (driver_id, expires_at) USING ORDERED")
	ins, err := db.Prepare(`INSERT INTO leases (lease_id, driver_id, expires_at, released, renewals)
		VALUES ($id, 1, $exp, FALSE, 0)`)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := ins.Exec(Args{"id": int64(i), "exp": base.Add(time.Duration(i) * time.Millisecond)}); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// TestRenewalGCRemovesByHandle: every removal hint a renewal storm
// leaves carries the handle of a linked group holding its row under the
// superseded key, and GC — of the storm, and of a sweep + purge of
// rows whose chains are still several renewals deep — leaves no entry
// behind, though it removes through those handles alone.
func TestRenewalGCRemovesByHandle(t *testing.T) {
	const rows, passes = 300, 3
	base := time.Unix(1_700_000_000, 0)
	db := leaseTableDB(t, rows, base)
	tbl, err := db.lookupTable("leases")
	if err != nil {
		t.Fatal(err)
	}
	renew, err := db.Prepare(renewLeaseSQL)
	if err != nil {
		t.Fatal(err)
	}
	// A registered reader pins the GC floor: the storm's hints stay
	// queued and every row keeps all of its versions.
	slot := db.readers.acquire()
	db.readers.publish(slot, db.commits.Load())
	for i := 0; i < passes*rows; i++ {
		res, err := renew.Exec(Args{"id": int64(i%rows + 1), "drv": int64(1),
			"exp": base.Add(time.Hour + time.Duration(i)*time.Millisecond)})
		if err != nil || res.Affected != 1 {
			t.Fatalf("renewal %d: %v, %v", i, res, err)
		}
	}
	hints := 0
	for _, it := range tbl.gc.queue {
		if it.skip == nil {
			continue
		}
		hints++
		key, _ := tupleOf(nil, it.skip.cols, it.row.valsOf(it.ver))
		n := it.node
		if n == nil || !n.linked || it.skip.cmpKey(n, key) != 0 || !slices.Contains(n.rows.load(), it.row) {
			t.Fatalf("hint %d for key %v: handle %p is not a linked group holding its row", hints, key, n)
		}
	}
	if want := 2 * passes * rows; hints != want {
		t.Fatalf("%d skiplist hints queued, want %d (two per renewal)", hints, want)
	}

	// Sweep and purge the first third while the reader still pins every
	// version, so each dying row's chain is four versions deep.
	now := Args{"now": base.Add(time.Hour + time.Duration((passes-1)*rows+rows/3)*time.Millisecond)}
	res, err := db.ExecBatchAtomic([]BatchStmt{
		{SQL: "UPDATE leases SET released = TRUE WHERE released = FALSE AND expires_at <= $now", Args: []any{now}},
		{SQL: "DELETE FROM leases WHERE released = TRUE AND expires_at <= $now", Args: []any{now}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Affected != rows/3+1 || res[1].Affected != rows/3+1 {
		t.Fatalf("sweep %d, purge %d rows, want %d each", res[0].Affected, res[1].Affected, rows/3+1)
	}
	db.readers.release(slot)
	db.gcAll()
	if n := len(tbl.rowsSnapshot()); n != rows-rows/3-1 {
		t.Fatalf("%d rows left after the purge, want %d", n, rows-rows/3-1)
	}
	indexConsistent(t, db, "leases")
}

// TestGCSkipsUnlinkedHandle: a key that leaves, comes back and leaves
// again leaves two hints with the same handle. When both mature in one
// round, the first empties and unlinks the group (the prune has already
// cut the version that came back), and the second must skip the now
// unlinked node rather than unlink it again.
func TestGCSkipsUnlinkedHandle(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	db := leaseTableDB(t, 3, base)
	tbl, err := db.lookupTable("leases")
	if err != nil {
		t.Fatal(err)
	}
	renew, err := db.Prepare(renewLeaseSQL)
	if err != nil {
		t.Fatal(err)
	}
	slot := db.readers.acquire()
	db.readers.publish(slot, db.commits.Load())
	first := base.Add(time.Millisecond) // lease 1's expiry at insert
	for _, exp := range []time.Time{base.Add(time.Hour), first, base.Add(2 * time.Hour)} {
		if res, err := renew.Exec(Args{"id": int64(1), "drv": int64(1), "exp": exp}); err != nil || res.Affected != 1 {
			t.Fatalf("renewal to %v: %v, %v", exp, res, err)
		}
	}
	shared := map[*skipNode]int{}
	for _, it := range tbl.gc.queue {
		if it.skip != nil {
			shared[it.node]++
		}
	}
	if len(shared) != 4 {
		t.Fatalf("6 skip hints name %d distinct handles, want 4 (each index's first group twice)", len(shared))
	}
	db.readers.release(slot)
	db.gcAll()
	indexConsistent(t, db, "leases")
}

// TestGroupKeyRetainsNoVersion: an update that leaves a row's indexed
// tuples as they were — the sweep's released = TRUE — keeps no
// superseded version live once GC has run. 10 000 lease rows, each
// released by its own statement and then collected, hold no more live
// heap per row than before, give or take half a version block: an
// index group that went on reading its key from the version it was
// filed by would keep a whole block per row.
func TestGroupKeyRetainsNoVersion(t *testing.T) {
	const rows = 10000
	base := time.Unix(1_700_000_000, 0)
	db := leaseTableDB(t, rows, base)
	tbl, err := db.lookupTable("leases")
	if err != nil {
		t.Fatal(err)
	}
	release, err := db.Prepare("UPDATE leases SET released = TRUE WHERE lease_id = $id")
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		db.gcAll()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	for i := 1; i <= rows; i++ {
		if res, err := release.Exec(Args{"id": int64(i)}); err != nil || res.Affected != 1 {
			t.Fatalf("release %d: %v, %v", i, res, err)
		}
	}
	after := heap()
	runtime.KeepAlive(db)
	block := int64(len(tbl.Cols)+tbl.nh+1) * int64(valueSize)
	grew := (after - before) / rows
	t.Logf("releasing a row changed its live heap by %d bytes (version block %d)", grew, block)
	if grew > block/2 {
		t.Fatalf("a released row holds %d more bytes of live heap, want under half its %d-byte version block", grew, block)
	}
	indexConsistent(t, db, "leases")
}

// TestIndexHandleSizes: the allocations a lease row keeps for its
// index entries stay in their size classes on 64-bit — a hash slot in
// 16 bytes, a skiplist node in 32, and a group, the node and its links
// in one block, in 48 at level one and 64 at level two, whatever its
// key's width: a node holds no key, and reaches its links by offset.
// The node fits only while a bucket holds its first row inline. Every
// level's block has its links right after the node, where link looks
// for them. A version's header and its handles have exactly a Value's
// size and layout, a pointer word first, on every architecture: the
// block is allocated as a []Value, so that is the layout the collector
// scans it by.
func TestIndexHandleSizes(t *testing.T) {
	for _, c := range []struct {
		what      string
		size, max uintptr
	}{
		{"hashSlot", unsafe.Sizeof(hashSlot{}), 16},
		{"skipNode", unsafe.Sizeof(skipNode{}), 32},
		{"a level-one group", unsafe.Sizeof(group[[1]skipLink]{}), 48},
		{"a level-two group", unsafe.Sizeof(group[[2]skipLink]{}), 64},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.what, c.size, c.max)
		}
	}
	if g := (group[[1]skipLink]{}); unsafe.Offsetof(g.links) != nodeSize {
		t.Errorf("a group's links start at byte %d, not right after its %d-byte node", unsafe.Offsetof(g.links), nodeSize)
	}
	for lvl := 1; lvl <= skipMaxLevel; lvl++ {
		const nodes = 64
		keep := make([]*skipNode, nodes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = newNodeOf[lvl-1]()
		}
		runtime.ReadMemStats(&after)
		if per, want := (after.TotalAlloc-before.TotalAlloc)/nodes, uint64(nodeSize+uintptr(lvl)*linkSize); per < want {
			t.Errorf("a level-%d node is allocated in %d bytes, too few for its %d links", lvl, per, lvl)
		}
	}
	var v Value
	var h rowVersion
	var n handle
	if unsafe.Sizeof(h) != unsafe.Sizeof(v) || unsafe.Sizeof(n) != unsafe.Sizeof(v) ||
		unsafe.Offsetof(h.prev) != unsafe.Offsetof(v.p) || unsafe.Offsetof(n.node) != unsafe.Offsetof(v.p) ||
		unsafe.Offsetof(h.stamp) != unsafe.Offsetof(v.w) {
		t.Errorf("a version header (%d B) or handle (%d B) is not laid out as a %d-byte Value", unsafe.Sizeof(h), unsafe.Sizeof(n), unsafe.Sizeof(v))
	}
}

// TestCreateIndexWidensVersions: an ordered index created over a
// populated table gives new versions a handle slot more, and its
// backfill moves each row's newest live version that files a key — a
// deleted row's too, below its tombstone — into a wider copy that
// records the new handle.
// A reader holding a snapshot from before reads the same rows
// throughout, and once it is gone every entry is dropped through the
// handles the copies recorded.
func TestCreateIndexWidensVersions(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, a INTEGER, b INTEGER)")
	db.MustExec("CREATE INDEX t_a ON t (a)") // a hash index: no handle slot
	for i := 0; i < 40; i++ {
		db.MustExec("INSERT INTO t (id, a, b) VALUES (?, ?, ?)", i, i%3, i)
	}
	db.MustExec("UPDATE t SET b = b + 100 WHERE a = 1")
	db.MustExec("UPDATE t SET b = NULL WHERE id = 5")
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	slot := db.readers.acquire()
	held := tbl.watermark.Load()
	db.readers.publish(slot, held)
	db.MustExec("DELETE FROM t WHERE a = 2")
	const all = "SELECT id FROM t WHERE id >= 0 ORDER BY id"
	before := selectAt(t, db, held, all)
	if tbl.nh != 0 {
		t.Fatalf("a table with a hash index only carries %d handle slots", tbl.nh)
	}

	db.MustExec("CREATE INDEX t_b ON t (b) USING ORDERED")
	if tbl.nh != 2 {
		t.Fatalf("the ordered index is at position 1, but versions carry %d handle slots", tbl.nh)
	}
	ix := tbl.indexNamed("t_b")
	for _, r := range tbl.rowsSnapshot() {
		v := r.live()
		n := r.node(v, 1)
		switch {
		case r.valsOf(v)[2].IsNull(): // nothing to record: the version stays as it was
			if n != nil {
				t.Fatalf("row %v: a NULL key recorded a handle", r.valsOf(v)[0])
			}
		case r.nh != 2:
			t.Fatalf("row %v: its newest live version has %d handle slots", r.valsOf(v)[0], r.nh)
		case n == nil || !n.linked || !slices.Contains(n.rows.load(), r):
			t.Fatalf("row %v: no linked handle holding the row", r.valsOf(v)[0])
		}
	}
	if got := selectAt(t, db, held, all); !slices.Equal(got, before) {
		t.Fatalf("the held snapshot read %v before CREATE INDEX and %v after", before, got)
	}

	db.MustExec("UPDATE t SET b = b + 1000")
	db.readers.release(slot)
	db.gcAll()
	indexConsistent(t, db, "t")
	if ix.skip.size != 27 { // 40 rows, the 13 with a = 2 deleted (row 5, whose b is NULL, among them)
		t.Fatalf("%d groups left, want one per live row (27)", ix.skip.size)
	}
}
