package core

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlmini"
)

// TestLeaseRowLiveHeap is the clock-free guard on what a lease costs
// to hold: 10 000 rows inserted through the real schema by the grant
// INSERT keep at most 322 B of live heap and 5.0 live objects each —
// the row, its one version (header, values and handle in one block),
// its three strings in two blocks, its slot in the primary key's hash
// table and its node in the one ordered index, (driver_id, expires_at),
// which reads its key from the version and holds its links in its own
// block.
// (It was ≈1.65–1.8 KB with the 96-byte sqlmini.Value, 856 B in 14.6
// objects with the PK in a sync.Map, 768 B in 9.2 objects while a
// second ordered index on expires_at alone filed a node of its own,
// 611 B in 8.1 objects with the 24-byte Value and a 32-byte hash key,
// 499 B while the PK entry and the index group each held their first
// row in a one-row array and slice header, and the group's node reached
// its key and links through slice headers, and 439 B in 8.1 objects
// while a version kept its header, values and handle array in three
// objects and the PK hash slot pointed at a 48-byte entry, and 364 B in
// 5.1 objects while the index group held a copy of its key and reached
// it and its links by pointer, its links apart from level three up.)
// The strings are fresh per row, as a decoded REQUEST's are.
// leaseRowProfile names a file TestLeaseRowLiveHeap writes a heap
// profile to while its rows are held live: docs/ARCHITECTURE.md's
// "What a lease costs to hold" is read from it.
var leaseRowProfile = flag.String("leaserow.heapprofile", "", "write a heap profile of TestLeaseRowLiveHeap's rows, held live, to this file")

func TestLeaseRowLiveHeap(t *testing.T) {
	const rows = 10000
	db := sqlmini.NewDB()
	if err := EnsureSchema(NewLocalStore(db)); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(newLeaseSQL)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	args := sqlmini.Args{"drv": int64(1), "granted": now}
	before := liveHeap()
	for i := 1; i <= rows; i++ {
		args["id"] = int64(i)
		args["db"] = strings.Clone("prod")
		args["user"] = strings.Clone("app")
		args["client"] = fmt.Sprintf("client-%06d", i)
		args["exp"] = now.Add(time.Duration(i) * time.Millisecond)
		if _, err := ins.Exec(args); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	if *leaseRowProfile != "" {
		writeHeapProfile(t, *leaseRowProfile)
	}
	runtime.KeepAlive(db)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / rows
	objs := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / rows
	t.Logf("a lease row holds %d bytes of live heap in %.3f objects", per, objs)
	maxBytes, maxObjs := int64(322), 5.0
	if raceEnabled {
		// The three short strings take three blocks, not two. That makes
		// exactly six objects a row, and the race runtime's own objects
		// come and go by a handful between the two measurements, so the
		// bound leaves them a hundredth of an object a row: 100 in all,
		// a hundredth of what one more allocation per row would add.
		maxBytes, maxObjs = maxBytes+16, maxObjs+1.01
	}
	if per > maxBytes {
		t.Fatalf("a lease row holds %d bytes of live heap, want at most %d", per, maxBytes)
	}
	if objs > maxObjs {
		t.Fatalf("a lease row holds %.3f live objects, want at most %v", objs, maxObjs)
	}
}

// writeHeapProfile writes the heap profile as of the last collection
// to path.
func writeHeapProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		t.Fatal(err)
	}
}

// liveHeap collects and returns the heap statistics. It collects
// twice: a sync.Pool's items outlive one collection in its victim
// cache, and under -race a Put drops items at random, so after a single
// collection the pools' leftovers would count, a different number each
// run.
func liveHeap() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// TestPendingTransfersShrink: the pending-transfer map gives its memory
// back. 20 000 staged transfers — a fleet bootstrapped or upgraded —
// that are then all acknowledged by renewal, or all reaped, leave the
// server within 100 KB of its idle live heap; a Go map that is only
// deleted from keeps the buckets of its peak (≈2 MB here).
func TestPendingTransfersShrink(t *testing.T) {
	const staged = 20000
	srv, err := NewServer("shrink", NewLocalStore(sqlmini.NewDB()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ReapExpiredLeases(); err != nil { // warm the sweep's statements
		t.Fatal(err)
	}
	blob := make([]byte, 1024)
	idle := liveHeap().HeapAlloc
	now := srv.clock()
	for _, reap := range []bool{false, true} {
		for id := uint64(1); id <= staged; id++ {
			srv.stageTransfer(id, blob, now.Add(-time.Second))
		}
		if reap {
			if _, err := srv.ReapExpiredLeases(); err != nil {
				t.Fatal(err)
			}
		} else {
			for id := uint64(1); id <= staged; id++ {
				srv.dropPending(id)
			}
		}
		grew := int64(liveHeap().HeapAlloc) - int64(idle)
		runtime.KeepAlive(srv)
		t.Logf("reaped %v: live heap %+d B over idle", reap, grew)
		if grew > 100<<10 {
			t.Fatalf("after %d transfers were staged and dropped (reaped: %v), the server holds %d B more than idle, want at most 100 KB", staged, reap, grew)
		}
	}
}
