package sqlmini

import (
	"fmt"
	"testing"
	"time"
)

// maxChainLen walks every row's version chain in every table and
// returns the longest one found.
func maxChainLen(db *DB) int {
	max := 0
	for _, t := range db.sortedTables() {
		t.latch.Lock()
		for _, r := range t.rows.Load().snapshot() {
			n := 0
			for v := r.v.Load(); v != nil; v = v.prev.Load() {
				n++
			}
			if n > max {
				max = n
			}
		}
		t.latch.Unlock()
	}
	return max
}

// TestSweeperConvergesIdleChains pins the sweeper's reason to exist:
// GC piggybacks on writers, so a write burst followed by a read-only
// period leaves version chains pinned forever — until a background
// sweep reclaims them down to length 1.
func TestSweeperConvergesIdleChains(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE kv (k INT PRIMARY KEY, v INT)`)
	for k := 0; k < 4; k++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO kv (k, v) VALUES (%d, 0)`, k))
	}
	// A write burst small enough that the writer-side threshold
	// (maybeGCLocked fires at 128 queued items) never trips: the
	// chains it builds would survive indefinitely without a sweeper.
	for i := 1; i <= 20; i++ {
		for k := 0; k < 4; k++ {
			mustExec(t, db, fmt.Sprintf(`UPDATE kv SET v = %d WHERE k = %d`, i, k))
		}
	}
	if got := maxChainLen(db); got < 21 {
		t.Fatalf("expected long version chains after the burst, max = %d", got)
	}

	stop := db.StartSweeper(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for maxChainLen(db) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("chains did not converge to length 1: max = %d", maxChainLen(db))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The sweep must reclaim history, not state: every row still reads
	// its last committed value.
	res, err := db.Exec(`SELECT k, v FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows lost by sweep: got %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].Int() != 20 {
			t.Fatalf("row %d lost its final value: got %d, want 20", row[0].Int(), row[1].Int())
		}
	}
	stop()
	stop() // idempotent
}

func mustExec(t *testing.T, db *DB, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
