package sqlmini

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hashKeyPool holds keys of every Value type, chosen so that distinct
// values print the same (Value.Str) across types: the integer 3, the VARCHAR "3"
// and the BLOB "3" are one key; "03", "-0" and the out-of-range
// "9223372036854775808" are not integers and stay strings.
var hashKeyPool = []Value{
	NewInt(0), NewInt(3), NewInt(-3), scalar(TypeInteger, 3),
	NewInt(math.MaxInt64), NewInt(math.MinInt64), NewInt(1 << 53),
	NewString("3"), NewString(""), NewString("-0"), NewString("03"),
	NewString("abc"), NewString("9223372036854775807"),
	NewString("9223372036854775808"), NewString("-9223372036854775808"),
	NewString("1:a"), NewString("TRUE"),
	NewBytes([]byte("3")), NewBytes([]byte("abc")),
	NewBool(true), NewBool(false),
	NewTime(time.Unix(0, 0)), NewTime(time.Unix(5, 0)),
}

// testRow returns a published row holding vals in one version, stamped
// at commit 1.
func testRow(vals ...Value) *Row {
	r := &Row{ncol: uint32(len(vals))}
	v := newVersion(len(vals), 0)
	v.setFrom(1)
	copy(valueSlots(v, len(vals)), vals)
	r.v.Store(v)
	return r
}

// writerView reads every row's current version.
var writerView = tableView{writer: true}

// hashConsistent checks one hash index of tbl against a scan of the
// table, through every view in views: a probe of each key in probes
// returns, each once, exactly the rows whose version in the view holds
// a key that prints the same — the reference is Value.Str equality, so
// an integer probe must meet the VARCHAR that spells it. It also checks
// the table's bookkeeping: no row filed twice under one hash, the live
// and used counts, the load ceiling every probe relies on, and the
// shrink floor.
func hashConsistent(t *testing.T, tbl *Table, h *hashIndex, views []tableView, probes []Value) {
	t.Helper()
	type pair struct {
		hash uint64
		row  *Row
	}
	filed := map[pair]bool{}
	for _, s := range hashRows(h) {
		if filed[pair(s)] {
			t.Fatalf("column %d: a row is filed twice under one hash", h.col)
		}
		filed[pair(s)] = true
	}
	tab := h.tab.Load()
	used := 0
	for i := range tab.slots {
		if tab.slots[i].row.Load() != nil {
			used++
		}
	}
	n := len(tab.slots)
	switch {
	case len(filed) != h.live:
		t.Fatalf("column %d: %d slots hold rows, live count %d", h.col, len(filed), h.live)
	case used != h.used:
		t.Fatalf("column %d: %d slots in use, counted %d", h.col, used, h.used)
	case used > n/4*3:
		t.Fatalf("column %d: %d of %d slots in use, over the load ceiling", h.col, used, n)
	case n > hashMinSlots && h.live < n/8:
		t.Fatalf("column %d: %d live slots of %d, under the shrink floor", h.col, h.live, n)
	}
	for _, vw := range views {
		for _, key := range probes {
			var want []*Row
			for _, r := range tbl.rowsSnapshot() {
				if vals := vw.valsOf(r); vals != nil && !vals[h.col].IsNull() && vals[h.col].Str() == key.Str() {
					want = append(want, r)
				}
			}
			got := h.lookup(key, vw, nil)
			seen := map[*Row]bool{}
			for _, r := range got {
				if seen[r] || !slices.Contains(want, r) {
					t.Fatalf("column %d, snapshot %d: lookup(%v) returned a row twice or one the scan does not", h.col, vw.s, key)
				}
				seen[r] = true
			}
			if len(got) != len(want) {
				t.Fatalf("column %d, snapshot %d: lookup(%v) = %d rows, the scan %d", h.col, vw.s, key, len(got), len(want))
			}
		}
	}
}

// FuzzHashIndex runs statements against a table with an integer
// PRIMARY KEY and a hash-indexed VARCHAR column and checks both hash
// indexes after every step through every live view: the writer's, the
// latest snapshot's and those of up to three held readers. The steps
// are INSERTs, key-changing UPDATEs of either column (run while a
// reader holds an older snapshot, they leave a row findable under its
// old key there and its new key elsewhere), DELETEs, a delete and
// re-insert of one key, transactions that change and delete rows and
// roll back (with a GC round before the rollback, or not), FIFO churn
// (the reaper's pattern: integer keys filed in order, the oldest
// deleted, leaving tombstones), GC rounds, and holding or releasing a
// snapshot. Keys come from hashKeyPool, so every probe also runs
// across types. The seed corpus runs as part of plain `go test`.
func FuzzHashIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 3, 1, 0, 0, 7, 2, 0, 5, 0, 0, 0, 1, 14, 1, 0, 2, 9, 2, 0, 6, 3, 0, 0})
	f.Add([]byte{4, 63, 8, 0, 4, 63, 31, 0, 7, 0, 0, 0, 4, 40, 2, 0, 7, 0, 0, 0})
	f.Add([]byte{0, 3, 1, 0, 5, 0, 0, 0, 1, 7, 1, 0, 2, 20, 1, 0, 5, 0, 0, 0, 1, 3, 1, 0, 5, 1, 0, 0, 7, 0, 0, 0, 5, 1, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 2, 2, 0, 3, 3, 1, 0, 3, 3, 1, 0, 3, 3, 1, 0, 7, 0, 0, 0, 3, 3, 1, 0})
	f.Add([]byte{0, 1, 4, 0, 0, 2, 5, 0, 6, 4, 1, 0, 6, 5, 2, 1, 7, 0, 0, 0})
	f.Add([]byte{0, 1, 7, 0, 5, 0, 0, 0, 6, 7, 1, 1, 2, 3, 1, 0, 6, 7, 3, 0, 5, 1, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{4, 63, 31, 0, 4, 0, 0, 0, 7, 0, 0, 0}) // grow, then shrink by deletes alone
	f.Add([]byte{0, 9, 13, 0, 0, 10, 13, 0, 5, 0, 0, 0, 1, 15, 9, 0, 3, 9, 1, 0, 0, 9, 13, 0, 7, 0, 0, 0, 5, 1, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		db := NewDB()
		db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, k VARCHAR)")
		db.MustExec("CREATE INDEX t_k ON t (k)")
		tbl, err := db.lookupTable("t")
		if err != nil {
			t.Fatal(err)
		}
		kIx := tbl.indexNamed("t_k").hash
		keyOf := func(b byte) any { // a NULL in every eighth
			if b%8 == 7 {
				return nil
			}
			return hashKeyPool[int(b)%len(hashKeyPool)]
		}
		var (
			held  []int // reader slots holding snapshots
			fifo  []int64
			next  = int64(1000)
			probe []Value
		)
		probe = append(probe, hashKeyPool...)
		for id := range int64(20) {
			probe = append(probe, NewInt(id))
		}
		defer func() {
			for _, slot := range held {
				db.readers.release(slot)
			}
		}()
		for ; len(ops) >= 4; ops = ops[4:] {
			id, k := int64(ops[1]%20), keyOf(ops[2])
			switch ops[0] % 8 {
			case 0:
				db.Exec("INSERT INTO t (id, k) VALUES (?, ?)", id, k) //nolint:errcheck // duplicates refused
			case 1: // a key-changing update of k
				db.MustExec("UPDATE t SET k = ? WHERE id = ?", k, id)
			case 2: // a key-changing update of the primary key
				db.Exec("UPDATE t SET id = ? WHERE id = ?", int64(ops[2]%20), id) //nolint:errcheck // duplicates refused
			case 3: // a delete and re-insert of one key
				db.MustExec("DELETE FROM t WHERE id = ?", id)
				db.MustExec("INSERT INTO t (id, k) VALUES (?, ?)", id, k)
			case 4: // FIFO churn
				for range int(ops[1]) % 64 {
					db.MustExec("INSERT INTO t (id, k) VALUES (?, ?)", next, strconv.FormatInt(next, 10))
					fifo = append(fifo, next)
					next++
					for len(fifo) > int(ops[2])%32 {
						db.MustExec("DELETE FROM t WHERE id = ?", fifo[0])
						fifo = fifo[1:]
					}
				}
			case 5: // hold a snapshot, or release the oldest held
				if ops[1]%2 == 1 || len(held) == 3 {
					if len(held) > 0 {
						db.readers.release(held[0])
						held = held[1:]
					}
				} else if slot := db.readers.acquire(); slot >= 0 {
					db.readers.publish(slot, tbl.watermark.Load())
					held = append(held, slot)
				}
			case 6: // a transaction that rolls back
				s := db.NewSession()
				s.Exec("BEGIN")                                              //nolint:errcheck
				s.Exec("UPDATE t SET k = ? WHERE id = ?", k, id)             //nolint:errcheck
				s.Exec("UPDATE t SET id = ? WHERE id = ?", id+20, (id+1)%20) //nolint:errcheck
				s.Exec("DELETE FROM t WHERE id = ?", (id+2)%20)              //nolint:errcheck
				s.Exec("INSERT INTO t (id, k) VALUES (?, ?)", (id+3)%20, k)  //nolint:errcheck
				if ops[3]%2 == 1 {
					db.gcAll()
				}
				s.Exec("ROLLBACK") //nolint:errcheck
			case 7:
				db.gcAll()
			}
			views := []tableView{writerView, {s: tbl.watermark.Load()}}
			for _, slot := range held {
				views = append(views, tableView{s: db.readers.slots[slot].Load() - 2})
			}
			hashConsistent(t, tbl, tbl.pkIx, views, probe)
			hashConsistent(t, tbl, kIx, views, probe)
		}
	})
}

// TestHashIndexLockFreeReaders is the memory-model argument for the
// flat table, run under -race: one writer (standing in for the
// table-latch holder) grows the table through several rehashes, churns
// tombstones through it and shrinks it back, round after round, while
// readers probe lock-free. Keys filed before the readers start are
// never removed, so every probe of one, whatever table it loads and
// however far the writer has got, must find exactly its row. A churned
// key's probe may find none of its rows or several, but each of them
// once and none of another key's.
//
// Each filing of a churned key is a row of its own, as in the engine,
// which never files a row it removed under a key again while a reader
// could match the row under that key in the slot it left (see
// docs/ARCHITECTURE.md, "Engine concurrency"). A writer that did would
// put the row in a later slot, tombstones being reused only by a
// rehash, and a probe that passed the old slot before the tombstone
// and reached the new one after it would find the row twice.
func TestHashIndexLockFreeReaders(t *testing.T) {
	const stable, churn, rounds = 64, 3000, 8
	h := newHashIndex(0)
	rowOf := map[int64]*Row{}
	for k := range int64(stable) {
		rowOf[k] = testRow(NewInt(k))
		h.insert(rowOf[k].curVals(), rowOf[k], true)
	}
	keyOf := map[*Row]int64{}
	filings := make([][]*Row, rounds) // each round's rows, in filing order
	for rd := range filings {
		for k := int64(stable); k < stable+churn; k++ {
			n := 1
			if k%3 == 0 { // refiled amid the growth, leaving a tombstone
				n = 2
			}
			for range n {
				r := testRow(NewInt(k))
				keyOf[r] = k
				filings[rd] = append(filings[rd], r)
			}
		}
	}
	var (
		done atomic.Bool
		wg   sync.WaitGroup
	)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(g); !done.Load(); i++ {
				k := i % stable
				if got := h.lookup(NewInt(k), writerView, nil); len(got) != 1 || got[0] != rowOf[k] {
					t.Errorf("stable key %d: %d rows", k, len(got))
					return
				}
				k = stable + i%churn
				got := h.lookup(NewString(NewInt(k).Str()), writerView, nil)
				for j, r := range got {
					if keyOf[r] != k || slices.Contains(got[:j], r) {
						t.Errorf("churned key %d: %d rows, one of them twice or another key's", k, len(got))
						return
					}
				}
			}
		}()
	}
	grown, shrunk := 0, 0
	cur := map[int64]*Row{}
	for _, rows := range filings {
		for _, r := range rows { // grow
			k := keyOf[r]
			if old := cur[k]; old != nil { // a tombstone amid the growth
				h.remove(old.curVals(), old)
			}
			h.insert(r.curVals(), r, true)
			cur[k] = r
		}
		grown = max(grown, len(h.tab.Load().slots))
		for k := int64(stable); k < stable+churn; k++ { // shrink
			h.remove(cur[k].curVals(), cur[k])
			delete(cur, k)
		}
		shrunk = len(h.tab.Load().slots)
	}
	done.Store(true)
	wg.Wait()
	if grown <= 8*stable || shrunk > 8*stable { // the shrink floor: a live key per 8 slots
		t.Fatalf("table grew to %d slots and shrank to %d: the rehashes did not run", grown, shrunk)
	}
}

// TestHashKeyArms: an integer key whose value spells a string key's
// word — the string's type above its length — is never that string's
// key, and no two strings of one length are one key unless their bytes
// are.
func TestHashKeyArms(t *testing.T) {
	for _, s := range []string{"", "abc", "lease-0001"} {
		str := hashKeyOf(NewString(s))
		word := int64(uint64(TypeVarchar)<<lenBits | uint64(len(s)))
		num := hashKeyOf(NewInt(word))
		if str.isInt() || !num.isInt() || str.w != num.w {
			t.Fatalf("%q: keys %+v and %+v are not one word in two arms", s, str, num)
		}
		if str.equal(num) || num.equal(str) {
			t.Fatalf("%q: the integer %d is taken for the string", s, word)
		}
		if !str.equal(hashKeyOf(NewString(strings.Clone(s)))) {
			t.Fatalf("%q: a copy of the string is another key", s)
		}
		h := newHashIndex(0)
		r := testRow(NewInt(word))
		h.insert(r.curVals(), r, true)
		if got := h.lookup(NewString(s), writerView, nil); len(got) != 0 {
			t.Fatalf("%q: lookup returned the integer key's %d rows", s, len(got))
		}
		if got := h.lookup(NewInt(word), writerView, nil); len(got) != 1 || got[0] != r {
			t.Fatalf("%q: the integer key lost its row", s)
		}
	}
	if hashKeyOf(NewString("abc")).equal(hashKeyOf(NewString("abd"))) {
		t.Fatal(`"abc" and "abd" are one key`)
	}
}
