package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlmini"
)

// TestLeaseRowLiveHeap is the clock-free guard on what a lease costs
// to hold: 10 000 rows inserted through the real schema by the grant
// INSERT keep at most 800 B of live heap and ten live objects each —
// the row and its one version with its values and handle array, its
// three strings, its PK entry and slot, and its node in each of the two
// ordered indexes. (It was ≈1.65–1.8 KB with the 96-byte sqlmini.Value,
// and 856 B in 14.6 objects with the PK in a sync.Map.) The strings are
// fresh per row, as a decoded REQUEST's are.
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
	runtime.KeepAlive(db)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / rows
	objs := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / rows
	t.Logf("a lease row holds %d bytes of live heap in %.1f objects", per, objs)
	if per > 800 {
		t.Fatalf("a lease row holds %d bytes of live heap, want at most 800", per)
	}
	maxObjs := 10.0
	if raceEnabled {
		maxObjs++ // the three short strings take three blocks, not two
	}
	if objs > maxObjs {
		t.Fatalf("a lease row holds %.1f live objects, want at most %v", objs, maxObjs)
	}
}

// liveHeap collects and returns the heap statistics.
func liveHeap() runtime.MemStats {
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
