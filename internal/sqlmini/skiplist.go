package sqlmini

import "sync/atomic"

// skipList is the ordered-index backing structure: nodes are key
// groups (all rows whose indexed tuple compares equal), sorted by
// tuple key. A single writer mutates it under the owning table's
// latch; readers traverse lock-free. Forward links are atomic pointers
// and each node's rows are a rowBucket (index.go): an insert links a
// fully built node bottom-up, a removal unlinks top-down, and a row
// change publishes a longer or a fresh rows header — a reader
// mid-traversal always sees a consistent (possibly slightly stale)
// list, which MVCC execution tolerates because candidates are filtered
// by version visibility and the statement's predicate anyway.
//
// Each level also carries a back link, so the writer can splice out a
// node it holds (unlink) without walking to it, and the list keeps its
// last node per level, so a key sorting after every group (an
// expires_at of now + lease) links in without walking to the end.
// Back links and last nodes are writer-only: they are written and read
// only under the latch, and no reader ever loads one, so they need no
// atomics and do not enter the lock-free argument. An unlinked node
// keeps its forward links, so a reader standing on it still reaches the
// rest of the list.
//
// Grouping invariant (inherited from the slice-based predecessor):
// rows are grouped by Compare == 0 over the stored tuple. Stored
// values are uniformly typed per column (post-coercion), where Compare
// is a total order, so all rows of one group compare identically
// against any probe — the planner can treat a group as one unit when
// cutting range boundaries.

const skipMaxLevel = 24

type skipNode struct {
	key   []Value // immutable tuple
	rows  rowBucket
	links []skipLink // len = node level
	// owner is the list the node is linked into, nil once unlinked;
	// writer-only. A handle (rowVersion.nodes, gcItem.node) is usable
	// only while its node is still linked into the index's own list.
	owner *skipList
}

// skipLink is one level of a node: the forward link readers follow and
// the writer-only back link to the level's predecessor.
type skipLink struct {
	next atomic.Pointer[skipNode]
	prev *skipNode
}

// next loads the node's successor at lvl. Lock-free.
func (n *skipNode) next(lvl int) *skipNode { return n.links[lvl].next.Load() }

type skipList struct {
	cols []int // indexed column positions (tuple order)
	head *skipNode
	// last is each level's last node, head while the level is empty;
	// writer-only.
	last [skipMaxLevel]*skipNode
	rnd  uint64 // xorshift64 state; writer-only (under the latch)
	size int    // group count; writer-only
}

func newSkipList(cols []int) *skipList {
	sl := &skipList{cols: cols, head: &skipNode{links: make([]skipLink, skipMaxLevel)}, rnd: 0x9e3779b97f4a7c15}
	for i := range sl.last {
		sl.last[i] = sl.head
	}
	return sl
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
			nxt := x.next(lvl)
			if nxt == nil || cmpKey(nxt.key, probe) >= 0 {
				break
			}
			x = nxt
		}
	}
	return x.next(0)
}

// seekGT returns the first node whose key compares > probe on the
// probe's prefix. Lock-free.
func (sl *skipList) seekGT(probe []Value) *skipNode {
	x := sl.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next(lvl)
			if nxt == nil || cmpKey(nxt.key, probe) > 0 {
				break
			}
			x = nxt
		}
	}
	return x.next(0)
}

// insert adds r under key, creating the group (with its own copy of
// key) if needed, and returns the group's node — the handle a later
// removal passes to remove. A key at or after the last group needs no
// walk: its predecessors are the last nodes. See rowBucket.add for
// fresh. Caller holds the latch.
func (sl *skipList) insert(key []Value, r *Row, fresh bool) *skipNode {
	var update [skipMaxLevel]*skipNode
	tail := sl.last[0]
	c := -1 // an empty list: every key is past its end
	if tail != sl.head {
		c = cmpKey(tail.key, key)
	}
	switch {
	case c < 0:
		update = sl.last
	case c == 0:
		tail.rows.add(r, fresh)
		return tail
	default:
		x := sl.head
		for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
			for {
				nxt := x.next(lvl)
				if nxt == nil || cmpKey(nxt.key, key) >= 0 {
					break
				}
				x = nxt
			}
			update[lvl] = x
		}
		if n := x.next(0); n != nil && cmpKey(n.key, key) == 0 {
			n.rows.add(r, fresh)
			return n
		}
	}
	lvl := sl.randLevel()
	n := newGroup(key, lvl, r)
	n.owner = sl
	for i := 0; i < lvl; i++ {
		succ := update[i].next(i)
		n.links[i].next.Store(succ)
		n.links[i].prev = update[i]
		if succ != nil {
			succ.links[i].prev = n
		} else {
			sl.last[i] = n
		}
	}
	for i := 0; i < lvl; i++ { // link bottom-up: readers above always find the levels below
		update[i].links[i].next.Store(n)
	}
	sl.size++
	return n
}

// group is a skiplist node allocated together with its key copy, its
// links and the bucket of its first row.
type group[K, L any] struct {
	node   skipNode
	key    K
	links  L
	bucket oneRow
}

// newGroup builds an unlinked node holding a copy of key and r alone,
// with lvl links. A one- or two-column key at level one or two — every
// index this repository declares, and fifteen groups in sixteen — is
// one allocation; any other shape allocates its key and links apart.
func newGroup(key []Value, lvl int, r *Row) *skipNode {
	var n *skipNode
	var k []Value
	var links []skipLink
	var b *oneRow
	switch {
	case len(key) == 1 && lvl == 1:
		g := new(group[[1]Value, [1]skipLink])
		n, k, links, b = &g.node, g.key[:], g.links[:], &g.bucket
	case len(key) == 1 && lvl == 2:
		g := new(group[[1]Value, [2]skipLink])
		n, k, links, b = &g.node, g.key[:], g.links[:], &g.bucket
	case len(key) == 2 && lvl == 1:
		g := new(group[[2]Value, [1]skipLink])
		n, k, links, b = &g.node, g.key[:], g.links[:], &g.bucket
	case len(key) == 2 && lvl == 2:
		g := new(group[[2]Value, [2]skipLink])
		n, k, links, b = &g.node, g.key[:], g.links[:], &g.bucket
	default:
		g := new(group[struct{}, struct{}])
		n, k, links, b = &g.node, make([]Value, len(key)), make([]skipLink, lvl), &g.bucket
	}
	copy(k, key)
	n.key, n.links = k, links
	n.rows.first(b, r)
	return n
}

// remove drops r from the group n, the handle insert returned when it
// filed r, unlinking the group when it empties. Caller holds the latch.
//
// A nil or unlinked handle means the entry is already gone, and remove
// does nothing. A version records a nil handle only for a tuple it did
// not file (a NULL in an indexed column). A group is unlinked only once
// it has emptied, and insert never adds a row to an unlinked node, so
// if r is still filed under that key it sits in a newer group, filed
// by a newer version whose own handle removes it. The owner check is
// not optional: rowBucket.remove leaves the last row in place in an
// unlinked node, so a second unlink of it would corrupt the list.
func (sl *skipList) remove(n *skipNode, r *Row) {
	if n != nil && n.owner == sl && n.rows.remove(r) {
		sl.unlink(n)
	}
}

// unlink splices n out of every level through its back links, top-down
// so a reader never finds n at a level above one it has already left,
// and leaves n's own forward links intact for any reader standing on
// it. O(level). Caller holds the latch.
func (sl *skipList) unlink(n *skipNode) {
	for lvl := len(n.links) - 1; lvl >= 0; lvl-- {
		prev, succ := n.links[lvl].prev, n.next(lvl)
		prev.links[lvl].next.Store(succ)
		if succ != nil {
			succ.links[lvl].prev = prev
		} else {
			sl.last[lvl] = prev
		}
	}
	n.owner = nil
	sl.size--
}

// lookupEqual gathers the rows of every group comparing equal to probe
// (a cross-typed probe can project several adjacent stored keys onto
// one value, e.g. a 2^53 DOUBLE against two adjacent BIGINTs).
// Lock-free; out is appended to and returned.
func (sl *skipList) lookupEqual(probe []Value, out []*Row) []*Row {
	for n := sl.seekGE(probe); n != nil && cmpKey(n.key, probe) == 0; n = n.next(0) {
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
		start = sl.head.next(0)
	}
	var hiProbe []Value
	if !hi.IsNull() {
		hiProbe = append(append(make([]Value, 0, len(prefix)+1), prefix...), hi)
	}
	for n := start; n != nil; n = n.next(0) {
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

// skipRows is the skip scan: it gathers, for every distinct leading
// key in turn, the rows of the groups whose SECOND column lies within
// lo/hi (exact strictness, NULL meaning unbounded). Each leading key
// costs one seek to its window's first group — none when lo is
// unbounded, the walk arrives there — and, when hi cuts the window
// short, one seek past the key's remaining groups, so a list of d
// leading keys costs O(d·log n + k) for k gathered groups. Every
// leading key is strictly greater than the last (the level-0 walk is
// forward-only), so the gather terminates under concurrent writes.
// Lock-free.
func (sl *skipList) skipRows(lo Value, loStrict bool, hi Value, hiStrict bool, out []*Row) []*Row {
	var probe [2]Value
	hiProbe := [1]Value{hi}
	for n := sl.head.next(0); n != nil; {
		lead := n.key[:1]
		if !lo.IsNull() {
			probe[0], probe[1] = lead[0], lo
			if loStrict {
				n = sl.seekGT(probe[:])
			} else {
				n = sl.seekGE(probe[:])
			}
		}
		for ; n != nil && cmpKey(n.key, lead) == 0; n = n.next(0) {
			if !hi.IsNull() {
				if c := cmpKey(n.key[1:], hiProbe[:]); c > 0 || (hiStrict && c == 0) {
					n = sl.seekGT(lead)
					break
				}
			}
			out = append(out, n.rows.load()...)
		}
		for n != nil && cmpKey(n.key, lead) <= 0 {
			n = n.next(0) // a group filed under lead mid-seek
		}
	}
	return out
}

// each visits every (key, rows) group in order; writer-side helper for
// consistency checks and rebuilds.
func (sl *skipList) each(fn func(key []Value, rows []*Row)) {
	for n := sl.head.next(0); n != nil; n = n.next(0) {
		fn(n.key, n.rows.load())
	}
}
