package sqlmini

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// bound decodes an optional range bound over one key column: b%5 == 4
// is unbounded (NULL), anything else the value b%5.
func bound(b byte) Value {
	if b%5 == 4 {
		return Value{}
	}
	return NewInt(int64(b % 5))
}

// inBound reports whether v lies within the bounds of rangeRows and
// skipRows (a NULL bound is unbounded).
func inBound(v, lo Value, loStrict bool, hi Value, hiStrict bool) bool {
	if !lo.IsNull() {
		if c, _ := Compare(v, lo); c < 0 || loStrict && c == 0 {
			return false
		}
	}
	if !hi.IsNull() {
		if c, _ := Compare(v, hi); c > 0 || hiStrict && c == 0 {
			return false
		}
	}
	return true
}

// viewMatches returns, each once, the rows of rows whose version in vw
// files a tuple under cols that keep accepts: of a gather's rows, what
// execution keeps once it has filtered them by visibility; of the
// table's, what the gather must find.
func viewMatches(rows []*Row, vw tableView, cols []int, keep func(tuple []Value) bool) map[*Row]bool {
	out := map[*Row]bool{}
	for _, r := range rows {
		vals := vw.valsOf(r)
		if vals == nil {
			continue
		}
		if tuple, ok := tupleOf(nil, cols, vals); ok && keep(tuple) {
			out[r] = true
		}
	}
	return out
}

// gatherMatches fails unless the rows an index gather returned, filtered
// through vw by keep, are exactly the table's rows vw sees under a tuple
// keep accepts.
func gatherMatches(t *testing.T, what string, tbl *Table, got []*Row, vw tableView, cols []int, keep func(tuple []Value) bool) {
	t.Helper()
	g := viewMatches(got, vw, cols, keep)
	w := viewMatches(tbl.rowsSnapshot(), vw, cols, keep)
	if !maps.Equal(g, w) {
		t.Fatalf("%s, view %+v: the gather finds %d matching rows, a scan %d", what, vw, len(g), len(w))
	}
}

// key returns a copy of n's key.
func (sl *skipList) key(n *skipNode) []Value {
	v := n.ver.Load()
	key := make([]Value, len(sl.cols))
	for i, ci := range sl.cols {
		key[i] = *v.col(ci)
	}
	return key
}

// each visits every (key, rows) group in order, as the writer sees
// them.
func (sl *skipList) each(fn func(key []Value, rows []*Row)) {
	for n := sl.head.next(0); n != nil; n = n.next(0) {
		fn(sl.key(n), n.rows.load())
	}
}

// filesKey reports whether a live version of r, anywhere in its chain,
// holds key under cols.
func filesKey(r *Row, cols []int, key []Value) bool {
	for v := r.v.Load(); v != nil; v = v.prev.Load() {
		if vals := r.valsOf(v); vals != nil {
			if tuple, ok := tupleOf(nil, cols, vals); ok && cmpTuples(tuple, key) == 0 {
				return true
			}
		}
	}
	return false
}

// groupsFileTheirKeys checks every ordered index of tbl as the writer
// sees it: its links and order (skipLinksConsistent); that each group
// reads a non-NULL key, holds each of its rows once and no row GC has
// unlinked from the table, and that a live version of each of its rows
// files that key — so no re-pointed node has changed its key under its
// rows; and that each linked row's newest live version holds a handle
// to the linked group holding it under its tuple, or none for a NULL
// tuple.
func groupsFileTheirKeys(t *testing.T, tbl *Table) {
	t.Helper()
	for i, ix := range tbl.loadIndexes() {
		if ix.kind != IndexOrdered {
			continue
		}
		sl := ix.skip
		skipLinksConsistent(t, sl)
		for n := sl.head.next(0); n != nil; n = n.next(0) {
			key := sl.key(n)
			if slices.ContainsFunc(key, Value.IsNull) {
				t.Fatalf("index %s: a group reads a NULL key %v", ix.name, key)
			}
			rows := n.rows.load()
			for j, r := range rows {
				if r.unlinked {
					t.Fatalf("index %s: group %v holds a row GC has unlinked", ix.name, key)
				}
				if slices.Contains(rows[:j], r) {
					t.Fatalf("index %s: group %v holds a row twice", ix.name, key)
				}
				if !filesKey(r, ix.cols, key) {
					t.Fatalf("index %s: group %v holds a row no version of which files that key", ix.name, key)
				}
			}
		}
		for _, r := range tbl.rowsSnapshot() {
			v := r.live()
			if r.unlinked || v == nil {
				continue
			}
			n := r.node(v, i)
			tuple, ok := tupleOf(nil, ix.cols, r.valsOf(v))
			switch {
			case !ok && n != nil:
				t.Fatalf("index %s: a NULL tuple holds a handle", ix.name)
			case ok && (n == nil || !n.linked || sl.cmpKey(n, tuple) != 0 || !slices.Contains(n.rows.load(), r)):
				t.Fatalf("index %s: the handle of a row filed under %v is not the linked group holding it there", ix.name, tuple)
			}
		}
	}
}

// FuzzSkipList runs statements against t(id, a, b, c, d) with an
// ordered index on (a, b) — and, once a step creates it over the
// populated table, one on (c, a) — and checks every ordered index after
// every step: links and order, each group's key filed by its rows, no
// row twice in a group or left there once unlinked, the newest
// versions' handles (groupsFileTheirKeys), and an equality
// lookup of every key and every one-column prefix through every live
// view — the writer's, the latest snapshot's and those of up to three
// held readers — against a scan of that view. The steps are INSERTs;
// updates that keep every key (of one row, or of every row with one
// a), which re-point the rows' groups at the new versions; updates that
// move a row's key, left to GC while a held reader may need the old
// one; DELETEs; holding and releasing snapshots; transactions that
// make each kind of change and roll back (with a GC round before the
// rollback, or not); GC rounds, after which, with no snapshot held,
// every index must hold exactly the live rows under their current keys
// (indexConsistent); the lease log's pattern — a key past
// the last group appended, the first group's oldest row reaped; moving
// away the row a group of several reads its key from; CREATE INDEX
// over the populated table; and range, skip-scan and seek queries
// checked through every view. An input runs at most 64 steps, so a
// long one cannot stall the fuzzer on checks that grow with the table.
// The seed corpus runs as part of plain `go test`.
func FuzzSkipList(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 2, 1, 1, 0, 3, 5, 2, 2, 1, 9, 0, 1, 1, 0, 0, 11, 9, 16, 2, 6, 0, 0, 0})
	f.Add([]byte{0, 1, 5, 0, 0, 2, 5, 1, 0, 3, 5, 2, 4, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 1, 2, 2, 7, 0, 4, 1, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{7, 0, 0, 0, 7, 1, 0, 1, 7, 1, 0, 2, 7, 0, 0, 3, 8, 0, 0, 1, 7, 1, 0, 0, 8, 0, 0, 0, 11, 9, 16, 2, 6, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 2, 1, 0, 0, 3, 2, 1, 4, 0, 0, 0, 5, 1, 0, 1, 5, 2, 3, 0, 6, 0, 0, 0, 4, 1, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 2, 5, 2, 0, 3, 10, 3, 1, 1, 0, 0, 10, 0, 0, 0, 2, 1, 3, 1, 1, 2, 0, 1, 11, 12, 33, 1, 6, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0, 9, 0, 1, 0, 4, 0, 0, 0, 9, 0, 2, 0, 1, 0, 0, 1, 4, 1, 0, 0, 4, 1, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 2, 6, 0, 0, 3, 11, 0, 0, 4, 13, 0, 0, 5, 4, 1, 11, 0, 32, 2, 11, 13, 36, 2, 11, 33, 28, 2, 11, 9, 16, 0, 11, 6, 9, 1})
	// an index created over rows whose keys then move under a held
	// snapshot, and a rolled-back transaction with a GC round inside
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 0, 4, 1, 0, 10, 0, 0, 0, 4, 0, 0, 0, 2, 1, 6, 1,
		1, 2, 0, 1, 5, 2, 9, 1, 11, 3, 44, 1, 4, 1, 0, 0, 6, 0, 0, 0, 11, 0, 36, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		db := NewDB()
		db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, a INTEGER NOT NULL, b INTEGER, c INTEGER, d INTEGER)")
		db.MustExec("CREATE INDEX t_ab ON t (a, b) USING ORDERED")
		tbl, err := db.lookupTable("t")
		if err != nil {
			t.Fatal(err)
		}
		ab := tbl.indexNamed("t_ab").skip
		var held []int // reader slots holding snapshots
		defer func() {
			for _, slot := range held {
				db.readers.release(slot)
			}
		}()
		next := int64(100) // the ids of appended rows
		for steps := 0; len(ops) >= 4 && steps < 64; ops, steps = ops[4:], steps+1 {
			op, x, y, z := ops[0]%12, ops[1], ops[2], ops[3]
			id := int64(x % 24)
			a, b := int64(y%16/4), any(int64(y%4))
			if y/16%8 == 7 {
				b = nil
			}
			c := any(int64(z % 4))
			if z%5 == 4 {
				c = nil
			}
			switch op {
			case 0:
				db.Exec("INSERT INTO t (id, a, b, c, d) VALUES (?, ?, ?, ?, 0)", id, a, b, c) //nolint:errcheck // duplicates refused
			case 1: // keeps every key
				if z&1 == 0 {
					db.MustExec("UPDATE t SET d = d + 1 WHERE id = ?", id)
				} else {
					db.MustExec("UPDATE t SET d = d + 1 WHERE a = ?", a)
				}
			case 2: // moves (a, b), and (c, a) with it
				db.MustExec("UPDATE t SET a = ?, b = ? WHERE id = ?", a, b, id)
				if z&1 == 1 {
					db.MustExec("UPDATE t SET c = ? WHERE id = ?", c, id)
				}
			case 3:
				db.MustExec("DELETE FROM t WHERE id = ?", id)
			case 4: // hold a snapshot, or release the oldest held
				if x%2 == 1 || len(held) == 3 {
					if len(held) > 0 {
						db.readers.release(held[0])
						held = held[1:]
					}
				} else if slot := db.readers.acquire(); slot >= 0 {
					db.readers.publish(slot, tbl.watermark.Load())
					held = append(held, slot)
				}
			case 5: // a transaction that rolls back
				s := db.NewSession()
				s.Exec("BEGIN")                                                                     //nolint:errcheck
				s.Exec("UPDATE t SET d = d + 1 WHERE id = ?", id)                                   //nolint:errcheck
				s.Exec("UPDATE t SET b = ? WHERE id = ?", b, (id+1)%24)                             //nolint:errcheck
				s.Exec("DELETE FROM t WHERE id = ?", (id+2)%24)                                     //nolint:errcheck
				s.Exec("INSERT INTO t (id, a, b, c, d) VALUES (?, ?, ?, ?, 0)", (id+3)%24, a, b, c) //nolint:errcheck
				s.Exec("UPDATE t SET d = d + 1 WHERE id = ?", (id+3)%24)                            //nolint:errcheck
				if z&1 == 1 {
					db.gcAll()
				}
				s.Exec("ROLLBACK") //nolint:errcheck
			case 6:
				db.gcAll()
				if len(held) == 0 { // nothing pins an old version: every index is settled
					indexConsistent(t, db, "t")
				}
			case 7: // the lease log's append: the last group's key, or the next one up
				k := int64(0)
				if n := ab.last[0]; n != ab.head {
					key := ab.key(n)
					k = min(key[0].Int()*4+key[1].Int()+int64(x%2), 15)
				}
				db.MustExec("INSERT INTO t (id, a, b, c, d) VALUES (?, ?, ?, ?, 0)", next, k/4, k%4, c)
				next++
			case 8: // the reaper: the first group's oldest row
				if n := ab.head.next(0); n != nil {
					if vals := n.rows.load()[0].curVals(); vals != nil {
						db.MustExec("DELETE FROM t WHERE id = ?", vals[0])
					}
				}
				if z&1 == 1 {
					db.gcAll()
				}
			case 9: // move away the row a group of several reads its key from
				moved := false
				for n := ab.head.next(0); n != nil && !moved; n = n.next(0) {
					rows := n.rows.load()
					if len(rows) < 2 {
						continue
					}
					r := readerOf(n, rows)
					if vals := r.curVals(); vals != nil {
						db.MustExec("UPDATE t SET b = ? WHERE id = ?", (vals[2].Int()+1+int64(y%3))%4, vals[0])
						moved = true
					}
				}
				if !moved { // make a group of several: a second row under the last group's key
					if n := ab.last[0]; n != ab.head {
						key := ab.key(n)
						db.MustExec("INSERT INTO t (id, a, b, c, d) VALUES (?, ?, ?, ?, 0)", next, key[0], key[1], c)
						next++
					}
				}
			case 10:
				db.MustExec("CREATE INDEX IF NOT EXISTS t_ca ON t (c, a) USING ORDERED")
			}

			views := []tableView{{t: tbl, writer: true}, {t: tbl, s: tbl.watermark.Load()}}
			for _, slot := range held {
				views = append(views, tableView{t: tbl, s: db.readers.slots[slot].Load() - 2})
			}
			groupsFileTheirKeys(t, tbl)
			for _, ix := range tbl.loadIndexes() {
				if ix.kind != IndexOrdered {
					continue
				}
				sl := ix.skip
				for _, vw := range views {
					for k := range int64(20) {
						probe := []Value{NewInt(k / 4), NewInt(k % 4)}
						if k >= 16 { // a one-column prefix
							probe = []Value{NewInt(k - 16)}
						}
						gatherMatches(t, fmt.Sprintf("%s: lookupEqual(%v)", ix.name, probe), tbl, sl.lookupEqual(probe, nil), vw, ix.cols,
							func(tuple []Value) bool { return cmpTuples(tuple, probe) == 0 })
					}
				}
				if op != 11 {
					continue
				}
				lo, hi := bound(x>>3), bound(y>>3)
				loStrict, hiStrict := x&4 != 0, y&4 != 0
				for _, vw := range views {
					switch z % 3 {
					case 0: // a prefix, the bounds on the second column
						prefix := []Value{NewInt(int64(x % 4))}
						gatherMatches(t, ix.name+": rangeRows with a prefix", tbl, sl.rangeRows(prefix, lo, loStrict, hi, hiStrict, nil), vw, ix.cols,
							func(tuple []Value) bool {
								return cmpTuples(tuple, prefix) == 0 && inBound(tuple[1], lo, loStrict, hi, hiStrict)
							})
					case 1: // the bounds on the first column
						gatherMatches(t, ix.name+": rangeRows", tbl, sl.rangeRows(nil, lo, loStrict, hi, hiStrict, nil), vw, ix.cols,
							func(tuple []Value) bool { return inBound(tuple[0], lo, loStrict, hi, hiStrict) })
					default: // the skip scan: the bounds on the second column under every leading key
						gatherMatches(t, ix.name+": skipRows", tbl, sl.skipRows(lo, loStrict, hi, hiStrict, nil), vw, ix.cols,
							func(tuple []Value) bool { return inBound(tuple[1], lo, loStrict, hi, hiStrict) })
					}
				}
				probe := []Value{NewInt(int64(x % 4)), NewInt(int64(y % 5))}[:1+z/3%2]
				var want *skipNode
				for n := sl.head.next(0); n != nil; n = n.next(0) {
					if sl.cmpKey(n, probe) >= 0 {
						want = n
						break
					}
				}
				if got := sl.seekGE(probe); got != want {
					t.Fatalf("%s: seekGE(%v) is not the first group at or after it", ix.name, probe)
				}
			}
		}
	})
}

// readerOf returns the row of rows whose chain holds the version n reads
// its key from, or rows[0] when none does any more.
func readerOf(n *skipNode, rows []*Row) *Row {
	ver := n.ver.Load()
	for _, r := range rows {
		for v := r.v.Load(); v != nil; v = v.prev.Load() {
			if v == ver {
				return r
			}
		}
	}
	return rows[0]
}

// TestGroupKeyLockFreeReaders is the memory-model argument for groups
// that read their keys from versions, run under -race: readers seek and
// gather lock-free while the writer re-points groups at new versions —
// updates that keep a row's key, of one row and of every row with one
// a, rolled-back updates and deletes, and CREATE INDEX, which moves
// every row into a wider version — and churns rows whose keys move
// between the stable groups, filing and unlinking groups beside them.
// Stable rows never leave their keys, so every read must find each
// stable key's group, seek to it, and gather its rows and no other; the
// three rows of each key no transaction deletes must come back every
// time, in insertion order (a rolled-back delete may re-file the
// fourth at the end). A reader that compared against another key, or a
// version the writer had not finished, would miss or reorder them; so
// would a seek that re-loaded its level-0 successor after comparing it
// and was handed a churn group filed just below the probe meanwhile.
// Writer and readers yield after every step, so the readers see the
// intermediate states at GOMAXPROCS=1 too.
func TestGroupKeyLockFreeReaders(t *testing.T) {
	const stable, kept = 64, 48 // 16 keys (a, b), b < 4, four rows each: rows from kept on, a key's last, may be deleted
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, a INTEGER NOT NULL, b INTEGER, c INTEGER)")
	db.MustExec("CREATE INDEX t_ab ON t (a, b) USING ORDERED")
	for id := range stable {
		db.MustExec("INSERT INTO t (id, a, b, c) VALUES (?, ?, ?, 0)", id, id%4, id/4%4)
	}
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	sl := tbl.indexNamed("t_ab").skip
	rowsOf := map[[2]int64][]*Row{}
	for _, r := range tbl.rowsSnapshot() {
		vals := r.curVals()
		k := [2]int64{vals[1].Int(), vals[2].Int()}
		rowsOf[k] = append(rowsOf[k], r)
	}
	var (
		done atomic.Bool
		wg   sync.WaitGroup
	)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; !done.Load(); i++ {
				k := [2]int64{int64(i % 4), int64(i / 4 % 4)}
				probe := []Value{NewInt(k[0]), NewInt(k[1])}
				if !stableRows(sl.lookupEqual(probe, nil), k[1], k[1], rowsOf, k[0], 3) {
					t.Errorf("key %v: the gather lost, reordered or added rows", k)
					return
				}
				if n := sl.seekGE(probe); n == nil || sl.cmpKey(n, probe) != 0 {
					t.Errorf("key %v: the seek missed its group", k)
					return
				}
				if !stableRows(sl.rangeRows(probe[:1], NewInt(0), false, NewInt(3), false, nil), 0, 3, rowsOf, k[0], 3) {
					t.Errorf("a = %d: the stable window lost, reordered or added rows", k[0])
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
	s := db.NewSession()
	defer s.Close()
	churn := int64(1000)
	for step := range 1500 {
		id := rng.Intn(stable)
		switch rng.Intn(8) {
		case 0, 1:
			db.MustExec("UPDATE t SET c = c + 1 WHERE id = ?", id)
		case 2:
			db.MustExec("UPDATE t SET c = c + 1 WHERE a = ?", id%4)
		case 3: // rolled back: the undo re-points, or re-files a deleted row
			s.Exec("BEGIN")                                             //nolint:errcheck
			s.Exec("UPDATE t SET c = c + 1 WHERE id = ?", id)           //nolint:errcheck
			s.Exec("DELETE FROM t WHERE id = ?", kept+id%(stable-kept)) //nolint:errcheck
			s.Exec("ROLLBACK")                                          //nolint:errcheck
		case 4: // a churn row filed between the stable groups
			db.MustExec("INSERT INTO t (id, a, b, c) VALUES (?, ?, ?, 0)", churn, id%4, 10+rng.Intn(10))
			churn++
		case 5: // a churn row's key moves
			db.MustExec("UPDATE t SET b = ? WHERE id = ?", 10+rng.Intn(10), churn-1-int64(rng.Intn(8)))
		case 6:
			db.MustExec("DELETE FROM t WHERE id = ?", churn-1-int64(rng.Intn(8)))
		default:
			db.gcAll()
		}
		if step%500 == 250 { // every version moves into a wider copy
			db.MustExec(fmt.Sprintf("CREATE INDEX t_c%d ON t (c, a) USING ORDERED", step))
		}
		runtime.Gosched()
	}
	stop()
	indexConsistent(t, db, "t")
}

// stableRows reports whether got, a gather over a's keys (a, lo..hi),
// holds those keys' stable rows, key by key, and no others, each at
// most once, with every one of rowsOf's first kept rows present and in
// insertion order.
func stableRows(got []*Row, lo, hi int64, rowsOf map[[2]int64][]*Row, a int64, kept int) bool {
	for b := lo; b <= hi; b++ {
		rows := rowsOf[[2]int64{a, b}]
		i := 0
		for ; i < len(got) && slices.Contains(rows, got[i]); i++ {
		}
		want, have := rows[:kept], []*Row(nil)
		for _, r := range got[:i] {
			if slices.Contains(want, r) {
				have = append(have, r)
			}
		}
		if !slices.Equal(have, want) || i > len(rows) {
			return false
		}
		got = got[i:]
	}
	return len(got) == 0
}

// BenchmarkSkipListInsert{Tail,Random} file one new group into a list
// of 20 000 and remove one, so the list keeps its size. Tail files keys
// in increasing order and removes the oldest, as lease expiries are
// filed and reaped: no walk. Random files a key between two existing
// ones and removes it again: the walk, which the tail check must not
// slow. A group reads its key from a row's version, so every key has a
// row of its own; Tail gives the row it has just removed the next key,
// in place, which no reader can see in a benchmark.
func BenchmarkSkipListInsertTail(b *testing.B) {
	const groups = 20000
	sl := newSkipList([]int{0})
	type filed struct {
		n *skipNode
		r *Row
	}
	fifo := make([]filed, 0, groups)
	for k := range groups {
		r := testRow(NewInt(int64(k)))
		fifo = append(fifo, filed{sl.insert(r.curVals(), r.cur(), r, true), r})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := fifo[0]
		fifo = fifo[1:]
		sl.remove(old.n, old.r)
		old.r.curVals()[0] = NewInt(int64(groups + i))
		fifo = append(fifo, filed{sl.insert(old.r.curVals(), old.r.cur(), old.r, true), old.r})
	}
}

func BenchmarkSkipListInsertRandom(b *testing.B) {
	const groups = 20000
	sl := newSkipList([]int{0})
	for k := range groups {
		r := testRow(NewInt(int64(2 * k)))
		sl.insert(r.curVals(), r.cur(), r, true)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]*Row, 4096)
	for i := range rows {
		rows[i] = testRow(NewInt(int64(2*rng.Intn(groups) + 1)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rows[i%len(rows)]
		sl.remove(sl.insert(r.curVals(), r.cur(), r, true), r)
	}
}

// BenchmarkSkipListSeek runs seekGE for random keys over 20 000
// one-row groups, steady_renew's lease count: about 7 levels at p = ¼,
// so a seek that started at skipMaxLevel would first load 16 head links
// that are always nil.
func BenchmarkSkipListSeek(b *testing.B) {
	const groups = 20000
	sl := newSkipList([]int{0})
	for k := range groups {
		r := testRow(NewInt(int64(2 * k)))
		sl.insert(r.curVals(), r.cur(), r, true)
	}
	rng := rand.New(rand.NewSource(1))
	probes := make([][]Value, 4096)
	for i := range probes {
		probes[i] = []Value{NewInt(int64(rng.Intn(2 * groups)))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sl.seekGE(probes[i%len(probes)]) == nil && i%len(probes) == 0 {
			b.Fatal("no group at or after a key inside the list")
		}
	}
}
