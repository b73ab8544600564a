package sqlmini

import (
	"sync/atomic"
	"unsafe"
)

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

// maxIndexCols bounds an index's columns; CREATE INDEX refuses more.
const maxIndexCols = 255

// skipNode is one group. It holds no key of its own: ver is a live
// version that files one of the group's rows under the group's key, and
// the key is that version's values at the list's columns (skipList.key).
// A version's values never change once it is published, and the
// collector keeps the block alive while the node points at it, so a
// lock-free reader compares against the same key whichever version it
// loads. The writer moves ver only to a version whose tuple is the
// group's key — a newer version of a row whose key an update left
// where it was (indexUpdate, Table.widen, a rolled-back delete's
// re-registration) — never to one whose key moved, which keeps the old
// version and so the old key. A one-row group empties and is unlinked
// when its row's old entry goes to GC, so it holds no version longer
// than the removal hint does. A group of several rows whose reading row
// moves away or is deleted goes on reading that row's superseded
// version, and keeps that block alive — with any older versions its
// prev link still reaches — until the group empties or an update that
// keeps the key of a row still in it re-points it.
//
// The node's links follow it in the same allocation (group), so a
// node of level l is one block of 32 + 16·l bytes on 64-bit, reached
// through link. level and the bucket's inline row are written before
// the node is linked and are immutable after; linked is writer-only.
type skipNode struct {
	rows  rowBucket
	ver   atomic.Pointer[rowVersion]
	level uint8
	// linked says the node is linked into its list; writer-only. A
	// handle (rowVersion's, gcItem.node) is usable only while it is.
	linked bool
}

// group is a node allocated together with its links, L being an array
// of them.
type group[L any] struct {
	node  skipNode
	links L
}

const (
	nodeSize = unsafe.Sizeof(skipNode{})
	linkSize = unsafe.Sizeof(skipLink{})
)

// newNode allocates a node whose links are L, unlinked and empty.
func newNode[L any]() *skipNode { return &new(group[L]).node }

// newNodeOf[l-1] allocates a node with l links, in one block.
var newNodeOf = [skipMaxLevel]func() *skipNode{
	newNode[[1]skipLink], newNode[[2]skipLink], newNode[[3]skipLink], newNode[[4]skipLink],
	newNode[[5]skipLink], newNode[[6]skipLink], newNode[[7]skipLink], newNode[[8]skipLink],
	newNode[[9]skipLink], newNode[[10]skipLink], newNode[[11]skipLink], newNode[[12]skipLink],
	newNode[[13]skipLink], newNode[[14]skipLink], newNode[[15]skipLink], newNode[[16]skipLink],
	newNode[[17]skipLink], newNode[[18]skipLink], newNode[[19]skipLink], newNode[[20]skipLink],
	newNode[[21]skipLink], newNode[[22]skipLink], newNode[[23]skipLink], newNode[[24]skipLink],
}

// link returns the node's link at lvl, which is below its level.
func (n *skipNode) link(lvl int) *skipLink {
	return (*skipLink)(unsafe.Add(unsafe.Pointer(n), nodeSize+uintptr(lvl)*linkSize))
}

// links returns one link per level of the node. Writer-only: readers
// use link, and never read level.
func (n *skipNode) links() []skipLink { return unsafe.Slice(n.link(0), n.level) }

// skipLink is one level of a node: the forward link readers follow and
// the writer-only back link to the level's predecessor.
type skipLink struct {
	next atomic.Pointer[skipNode]
	prev *skipNode
}

// next loads the node's successor at lvl. Lock-free.
func (n *skipNode) next(lvl int) *skipNode { return n.link(lvl).next.Load() }

type skipList struct {
	cols []int // indexed column positions (tuple order)
	head *skipNode
	// last is each level's last node, head while the level is empty;
	// writer-only.
	last [skipMaxLevel]*skipNode
	// top is the number of levels any group has been linked at, raised
	// by insert once a taller group is linked at every level; seeks
	// start below it, not at skipMaxLevel. It never falls: a level an
	// unlink empties costs a seek one nil link.
	top  atomic.Int32
	rnd  uint64 // xorshift64 state; writer-only (under the latch)
	size int    // group count; writer-only
}

func newSkipList(cols []int) *skipList {
	head := newNodeOf[skipMaxLevel-1]()
	head.level = skipMaxLevel
	sl := &skipList{cols: cols, head: head, rnd: 0x9e3779b97f4a7c15}
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

// cmpKey orders n's key against a probe tuple, comparing only the
// probe's positions (a shorter probe matches on its prefix). Caller
// guarantees per-position order compatibility (orderedProbeOK), so a
// failed Compare cannot occur between a stored key and a vetted probe;
// it is treated as equal-rank which keeps the walk safe regardless.
// The key's values are compared where they sit, in the version n reads
// them from: a walk takes tens of steps.
func (sl *skipList) cmpKey(n *skipNode, probe []Value) int {
	return cmpCols(n.ver.Load(), sl.cols, probe)
}

// cmpCols orders the live version v's values at cols against probe,
// over the probe's positions, as cmpKey does.
func cmpCols(v *rowVersion, cols []int, probe []Value) int {
	for i := range probe {
		c, ok := comparePtr(v.col(cols[i]), &probe[i])
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
// probe's prefix. Lock-free. It returns the level-0 successor it
// compared, not a fresh load of it: a group filed since, between the
// last node below probe and that successor, may sort below probe, and
// a caller handed it would stop there and miss the groups it wants.
func (sl *skipList) seekGE(probe []Value) *skipNode {
	x, nxt := sl.head, (*skipNode)(nil)
	for lvl := int(sl.top.Load()) - 1; lvl >= 0; lvl-- {
		for {
			nxt = x.next(lvl)
			if nxt == nil || sl.cmpKey(nxt, probe) >= 0 {
				break
			}
			x = nxt
		}
	}
	return nxt
}

// seekGT returns the first node whose key compares > probe on the
// probe's prefix. Lock-free; see seekGE for why it returns the
// successor it compared.
func (sl *skipList) seekGT(probe []Value) *skipNode {
	x, nxt := sl.head, (*skipNode)(nil)
	for lvl := int(sl.top.Load()) - 1; lvl >= 0; lvl-- {
		for {
			nxt = x.next(lvl)
			if nxt == nil || sl.cmpKey(nxt, probe) > 0 {
				break
			}
			x = nxt
		}
	}
	return nxt
}

// insert files r under key, the tuple of v, one of r's live versions,
// creating the group if needed, and returns the group's node — the
// handle a later removal passes to remove. A new group reads its key
// from v; an existing one keeps the version it reads from. A key at or
// after the last group needs no walk: its predecessors are the last
// nodes. See rowBucket.add for fresh. Caller holds the latch.
func (sl *skipList) insert(key []Value, v *rowVersion, r *Row, fresh bool) *skipNode {
	var update [skipMaxLevel]*skipNode
	tail := sl.last[0]
	c := -1 // an empty list: every key is past its end
	if tail != sl.head {
		c = sl.cmpKey(tail, key)
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
				if nxt == nil || sl.cmpKey(nxt, key) >= 0 {
					break
				}
				x = nxt
			}
			update[lvl] = x
		}
		if n := x.next(0); n != nil && sl.cmpKey(n, key) == 0 {
			n.rows.add(r, fresh)
			return n
		}
	}
	lvl := sl.randLevel()
	n := newNodeOf[lvl-1]()
	n.level, n.linked = uint8(lvl), true
	n.ver.Store(v)
	n.rows.row[0] = r
	links := n.links()
	for i := range links {
		succ := update[i].next(i)
		links[i].next.Store(succ)
		links[i].prev = update[i]
		if succ != nil {
			succ.link(i).prev = n
		} else {
			sl.last[i] = n
		}
	}
	for i := range links { // link bottom-up: readers above always find the levels below
		update[i].link(i).next.Store(n)
	}
	if int32(lvl) > sl.top.Load() { // published once n is linked at every level
		sl.top.Store(int32(lvl))
	}
	sl.size++
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
// by a newer version whose own handle removes it. The linked check is
// not optional: rowBucket.remove leaves the last row in place in an
// unlinked node, so a second unlink of it would corrupt the list.
func (sl *skipList) remove(n *skipNode, r *Row) {
	if n != nil && n.linked && n.rows.remove(r) {
		sl.unlink(n)
	}
}

// unlink splices n out of every level through its back links, top-down
// so a reader never finds n at a level above one it has already left,
// and leaves n's own forward links intact for any reader standing on
// it. O(level). Caller holds the latch.
func (sl *skipList) unlink(n *skipNode) {
	links := n.links()
	for lvl := len(links) - 1; lvl >= 0; lvl-- {
		prev, succ := links[lvl].prev, links[lvl].next.Load()
		prev.link(lvl).next.Store(succ)
		if succ != nil {
			succ.link(lvl).prev = prev
		} else {
			sl.last[lvl] = prev
		}
	}
	n.linked = false
	sl.size--
}

// lookupEqual gathers the rows of every group comparing equal to probe.
// Lock-free; out is appended to and returned.
func (sl *skipList) lookupEqual(probe []Value, out []*Row) []*Row {
	for n := sl.seekGE(probe); n != nil && sl.cmpKey(n, probe) == 0; n = n.next(0) {
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
		if len(prefix) > 0 && sl.cmpKey(n, prefix) != 0 {
			break
		}
		if hiProbe != nil {
			c := sl.cmpKey(n, hiProbe)
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
		lead := [1]Value{*n.ver.Load().col(sl.cols[0])}
		if !lo.IsNull() {
			probe[0], probe[1] = lead[0], lo
			if loStrict {
				n = sl.seekGT(probe[:])
			} else {
				n = sl.seekGE(probe[:])
			}
		}
		for ; n != nil && sl.cmpKey(n, lead[:]) == 0; n = n.next(0) {
			if !hi.IsNull() {
				if c := cmpCols(n.ver.Load(), sl.cols[1:], hiProbe[:]); c > 0 || (hiStrict && c == 0) {
					n = sl.seekGT(lead[:])
					break
				}
			}
			out = append(out, n.rows.load()...)
		}
		for n != nil && sl.cmpKey(n, lead[:]) <= 0 {
			n = n.next(0) // a group filed under lead mid-seek
		}
	}
	return out
}
