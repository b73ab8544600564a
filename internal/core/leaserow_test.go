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
// INSERT keep at most 1 KB of live heap each — the row's one version,
// its PK bucket and map entry, and its nodes in the two ordered
// indexes. (With the 96-byte sqlmini.Value it was ≈1.65–1.8 KB.) The
// strings are fresh per row, as a decoded REQUEST's are.
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
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
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
	per := (int64(live()) - int64(before)) / rows
	runtime.KeepAlive(db)
	t.Logf("a lease row holds %d bytes of live heap", per)
	if per > 1024 {
		t.Fatalf("a lease row holds %d bytes of live heap, want at most 1 KB", per)
	}
}
