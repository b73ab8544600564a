package sqlmini

import (
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
		key, _ := tupleOf(nil, it.skip.cols, it.vals)
		n := it.node
		if n == nil || n.owner != it.skip || cmpKey(n.key, key) != 0 || !slices.Contains(n.rows.load(), it.row) {
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

// TestIndexHandleSizes: the handles kept a row version, a skiplist node
// and a hash entry inside the 64-byte size class (a lease row has one of
// each: its version, its node in the (driver_id, expires_at) index and
// its primary key's entry). The hash entry was 80 bytes while its key
// was a 32-byte struct of its own rather than a Value.
func TestIndexHandleSizes(t *testing.T) {
	if n := unsafe.Sizeof(rowVersion{}); n > 64 {
		t.Fatalf("rowVersion is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(skipNode{}); n > 64 {
		t.Fatalf("skipNode is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(hashEntry{}); n > 64 {
		t.Fatalf("hashEntry is %d bytes, want at most 64", n)
	}
}
