package sqlmini

import (
	"slices"
	"sync/atomic"
)

// skipList is the ordered-index backing structure: nodes are key
// groups (all rows whose indexed tuple compares equal), sorted by
// tuple key. A single writer mutates it under the owning table's
// latch; readers traverse lock-free. Node links are atomic pointers
// and each node's rows are a rowBucket (index.go): an insert links a
// fully built node bottom-up, a removal unlinks top-down, and a row
// change publishes a longer or a fresh rows header — a reader
// mid-traversal always sees a consistent (possibly slightly stale)
// list, which MVCC execution tolerates because candidates are filtered
// by version visibility and the statement's predicate anyway.
//
// Grouping invariant (inherited from the slice-based predecessor):
// rows are grouped by Compare == 0 over the stored tuple. Stored
// values are uniformly typed per column (post-coercion), where Compare
// is a total order, so all rows of one group compare identically
// against any probe — the planner can treat a group as one unit when
// cutting range boundaries.

const skipMaxLevel = 24

type skipNode struct {
	key  []Value // immutable tuple
	rows rowBucket
	next []atomic.Pointer[skipNode] // len = node level
}

type skipList struct {
	cols []int // indexed column positions (tuple order)
	head *skipNode
	rnd  uint64 // xorshift64 state; writer-only (under the latch)
	size int    // group count; writer-only
}

func newSkipList(cols []int) *skipList {
	head := &skipNode{next: make([]atomic.Pointer[skipNode], skipMaxLevel)}
	return &skipList{cols: cols, head: head, rnd: 0x9e3779b97f4a7c15}
}

// randLevel draws a geometric level in [1, skipMaxLevel] from a
// deterministic xorshift stream (reproducible structure across
// replicas fed the same statement stream).
func (sl *skipList) randLevel() int {
	x := sl.rnd
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	sl.rnd = x
	lvl := 1
	for x&3 == 0 && lvl < skipMaxLevel { // p = 1/4
		lvl++
		x >>= 2
	}
	return lvl
}

// cmpKey orders a node key against a probe tuple, comparing only the
// probe's positions (a shorter probe matches on its prefix). Caller
// guarantees per-position order compatibility (orderedProbeOK), so a
// failed Compare cannot occur between a stored key and a vetted probe;
// it is treated as equal-rank which keeps the walk safe regardless.
// Values are compared in place: a walk takes tens of steps.
func cmpKey(nodeKey, probe []Value) int {
	for i := range probe {
		c, ok := comparePtr(&nodeKey[i], &probe[i])
		if !ok {
			return 0
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// seekGE returns the first node whose key compares >= probe on the
// probe's prefix. Lock-free.
func (sl *skipList) seekGE(probe []Value) *skipNode {
	x := sl.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt == nil || cmpKey(nxt.key, probe) >= 0 {
				break
			}
			x = nxt
		}
	}
	return x.next[0].Load()
}

// seekGT returns the first node whose key compares > probe on the
// probe's prefix. Lock-free.
func (sl *skipList) seekGT(probe []Value) *skipNode {
	x := sl.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt == nil || cmpKey(nxt.key, probe) > 0 {
				break
			}
			x = nxt
		}
	}
	return x.next[0].Load()
}

// predecessors fills update with the rightmost node before key at each
// level. Writer-only (exact key compare over the full tuple).
func (sl *skipList) predecessors(key []Value, update *[skipMaxLevel]*skipNode) {
	x := sl.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt == nil || cmpKey(nxt.key, key) >= 0 {
				break
			}
			x = nxt
		}
		update[lvl] = x
	}
}

// insert adds r under key, creating the group (with its own copy of
// key) if needed; see rowBucket.add for fresh. Caller holds the latch.
func (sl *skipList) insert(key []Value, r *Row, fresh bool) {
	var update [skipMaxLevel]*skipNode
	sl.predecessors(key, &update)
	if n := update[0].next[0].Load(); n != nil && cmpKey(n.key, key) == 0 {
		n.rows.add(r, fresh)
		return
	}
	lvl := sl.randLevel()
	n := &skipNode{key: slices.Clone(key), next: make([]atomic.Pointer[skipNode], lvl)}
	n.rows.add(r, true)
	for i := 0; i < lvl; i++ {
		n.next[i].Store(update[i].next[i].Load())
	}
	for i := 0; i < lvl; i++ { // link bottom-up: readers above always find the levels below
		update[i].next[i].Store(n)
	}
	sl.size++
}

// remove drops r from key's group, unlinking the group when it
// empties. Caller holds the latch.
func (sl *skipList) remove(key []Value, r *Row) {
	var update [skipMaxLevel]*skipNode
	sl.predecessors(key, &update)
	n := update[0].next[0].Load()
	if n == nil || cmpKey(n.key, key) != 0 || !n.rows.remove(r) {
		return
	}
	for lvl := len(n.next) - 1; lvl >= 0; lvl-- { // unlink top-down
		if update[lvl].next[lvl].Load() == n {
			update[lvl].next[lvl].Store(n.next[lvl].Load())
		}
	}
	sl.size--
}

// lookupEqual gathers the rows of every group comparing equal to probe
// (a cross-typed probe can project several adjacent stored keys onto
// one value, e.g. a 2^53 DOUBLE against two adjacent BIGINTs).
// Lock-free; out is appended to and returned.
func (sl *skipList) lookupEqual(probe []Value, out []*Row) []*Row {
	for n := sl.seekGE(probe); n != nil && cmpKey(n.key, probe) == 0; n = n.next[0].Load() {
		out = append(out, n.rows.load()...)
	}
	return out
}

// rangeRows gathers rows from every group within the window: prefix is
// an equality tuple over the leading columns (may be empty), and
// lo/hi optionally bound the next column with exact strictness
// (loStrict: > vs >=; hiStrict: < vs <=). NULL bounds mean unbounded.
// Lock-free.
func (sl *skipList) rangeRows(prefix []Value, lo Value, loStrict bool, hi Value, hiStrict bool, out []*Row) []*Row {
	var start *skipNode
	switch {
	case !lo.IsNull():
		probe := append(append(make([]Value, 0, len(prefix)+1), prefix...), lo)
		if loStrict {
			start = sl.seekGT(probe)
		} else {
			start = sl.seekGE(probe)
		}
	case len(prefix) > 0:
		start = sl.seekGE(prefix)
	default:
		start = sl.head.next[0].Load()
	}
	var hiProbe []Value
	if !hi.IsNull() {
		hiProbe = append(append(make([]Value, 0, len(prefix)+1), prefix...), hi)
	}
	for n := start; n != nil; n = n.next[0].Load() {
		if len(prefix) > 0 && cmpKey(n.key, prefix) != 0 {
			break
		}
		if hiProbe != nil {
			c := cmpKey(n.key, hiProbe)
			if c > 0 || (hiStrict && c == 0) {
				break
			}
		}
		out = append(out, n.rows.load()...)
	}
	return out
}

// each visits every (key, rows) group in order; writer-side helper for
// consistency checks and rebuilds.
func (sl *skipList) each(fn func(key []Value, rows []*Row)) {
	for n := sl.head.next[0].Load(); n != nil; n = n.next[0].Load() {
		fn(n.key, n.rows.load())
	}
}
