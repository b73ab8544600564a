package sqlmini

import (
	"sync/atomic"
)

// MVCC storage: every row is an immutable version chain. Writers (under
// the owning table's latch) push a new version stamped with a commit
// number from the engine-wide clock; snapshot readers walk the chain to
// the newest version at or below their snapshot and never block. A
// deleted row is a version too — a tombstone — which makes rollback
// uniform (undo always pushes another version) and lets readers that
// predate the delete keep seeing the row.
//
// Visibility contract: a statement's snapshot s is the owning table's
// published watermark. A row is visible iff the newest version with
// from <= s exists and is not a tombstone. Writers publish the
// watermark once, at statement end, so multi-row statements become
// visible atomically.

// rowVersion is one immutable version of a row. vals is nil exactly
// when the version is a tombstone. prev links to the version it
// superseded; the garbage collector cuts the link once no reader can
// need it, so readers load it atomically.
//
// nodes are the row's ordered-index handles, aligned with the table's
// loadIndexes(): nodes[i] is the skiplist node that files the row under
// this version's tuple in index i (nil for a hash index or a NULL
// tuple). They are writer-only (table latch held) and are kept on the
// newest live version alone: a live version superseding another takes
// its array over (push), patching only the slots whose key moved, and
// the moved key's old handle travels in its GC hint (indexUpdate).
type rowVersion struct {
	vals  []Value
	from  uint64 // commit number that created this version
	prev  atomic.Pointer[rowVersion]
	nodes []*skipNode
}

// node returns the version's handle for index position i, if any.
func (v *rowVersion) node(i int) *skipNode {
	if i < len(v.nodes) {
		return v.nodes[i]
	}
	return nil
}

// setNode records n as the handle for position i of a table with count
// secondary indexes, growing the array as needed. Caller holds the latch.
func (v *rowVersion) setNode(i int, n *skipNode, count int) {
	if len(v.nodes) < count {
		nodes := make([]*skipNode, count)
		copy(nodes, v.nodes)
		v.nodes = nodes
	}
	v.nodes[i] = n
}

// Row is a stored row. Identity (the pointer) is stable for the row's
// lifetime, which the undo log relies on. The version chain head is the
// current (writer-visible) state.
type Row struct {
	v atomic.Pointer[rowVersion]

	// unlinked marks a row physically removed from the table's row list
	// and indexes by GC; guarded by the table latch. Rollback checks it
	// to re-link a row it must resurrect.
	unlinked bool
}

// newRow allocates a live row created at commit from.
func newRow(vals []Value, from uint64) *Row {
	r := &Row{}
	r.v.Store(&rowVersion{vals: vals, from: from})
	return r
}

// cur returns the chain head (writer view). Callers on the write path
// hold the table latch; readers use visible instead.
func (r *Row) cur() *rowVersion { return r.v.Load() }

// curVals returns the current values, nil if the row is dead.
func (r *Row) curVals() []Value { return r.v.Load().vals }

// live returns the newest live version: the head, or the newest one
// below the tombstone heading a deleted row. Caller holds the latch.
func (r *Row) live() *rowVersion {
	v := r.v.Load()
	for v != nil && v.vals == nil {
		v = v.prev.Load()
	}
	return v
}

// push prepends a new version (a tombstone when vals is nil) and
// returns it. A live version superseding a live one takes over its
// index handles. Caller holds the table latch.
func (r *Row) push(vals []Value, from uint64) *rowVersion {
	old := r.v.Load()
	nv := &rowVersion{vals: vals, from: from}
	if vals != nil && old.vals != nil {
		nv.nodes, old.nodes = old.nodes, nil
	}
	nv.prev.Store(old)
	r.v.Store(nv)
	return nv
}

// visible returns the values of the newest version at or below snapshot
// s, or nil if the row is invisible at s (not yet inserted, or deleted).
func (r *Row) visible(s uint64) []Value {
	v := r.v.Load()
	for v != nil && v.from > s {
		v = v.prev.Load()
	}
	if v == nil {
		return nil
	}
	return v.vals
}

// rowArr is a table's published row list: a slice whose first n entries
// are valid. Appends (under the table latch) write the slot first and
// then publish the new length, so lock-free readers that observe the
// length also observe the slot. Slots are never overwritten once
// published; compaction builds and publishes a fresh rowArr.
type rowArr struct {
	slots []*Row
	n     atomic.Int64
}

func newRowArr(capHint int) *rowArr {
	if capHint < 8 {
		capHint = 8
	}
	return &rowArr{slots: make([]*Row, capHint)}
}

// snapshot returns the published prefix. The returned slice is
// immutable: entries below the published length never change.
func (a *rowArr) snapshot() []*Row {
	return a.slots[:a.n.Load()]
}

// append adds a row under the table latch, returning the (possibly
// replacement) rowArr the caller must publish if it changed.
func (a *rowArr) append(r *Row) *rowArr {
	n := int(a.n.Load())
	if n < len(a.slots) {
		a.slots[n] = r
		a.n.Store(int64(n + 1))
		return a
	}
	b := newRowArr(2 * len(a.slots))
	copy(b.slots, a.slots[:n])
	b.slots[n] = r
	b.n.Store(int64(n + 1))
	return b
}

// readerSlotCount bounds concurrently registered snapshot readers;
// excess readers fall back to reading under the table latch.
const readerSlotCount = 128

const slotPending = 1 // claimed, snapshot not yet published

// readerSlots registers active snapshot readers so the garbage
// collector can compute a safe reclamation floor. A slot holds 0
// (free), slotPending (claimed; the reader is about to publish its
// snapshot), or snapshot+2. The two-phase claim (CAS to pending, then
// store the snapshot) closes the race where a reader picks a snapshot,
// stalls, and GC — not yet seeing the registration — reclaims versions
// the reader needs: a pending slot forces the floor to zero, making
// that GC round a no-op.
type readerSlots struct {
	slots [readerSlotCount]atomic.Uint64
	hint  atomic.Uint32
}

// acquire claims a slot, returning its id or -1 if all are taken.
func (rs *readerSlots) acquire() int {
	h := int(rs.hint.Add(1))
	for i := 0; i < readerSlotCount; i++ {
		idx := (h + i) % readerSlotCount
		if rs.slots[idx].CompareAndSwap(0, slotPending) {
			return idx
		}
	}
	return -1
}

// publish records the claimed slot's snapshot.
func (rs *readerSlots) publish(idx int, s uint64) { rs.slots[idx].Store(s + 2) }

// release frees the slot.
func (rs *readerSlots) release(idx int) { rs.slots[idx].Store(0) }

// floor returns the oldest snapshot any registered reader may use,
// bounded above by the current commit clock. A pending slot returns 0:
// nothing may be reclaimed until it publishes.
func (rs *readerSlots) floor(clock uint64) uint64 {
	m := clock
	for i := range rs.slots {
		v := rs.slots[i].Load()
		if v == 0 {
			continue
		}
		if v == slotPending {
			return 0
		}
		if s := v - 2; s < m {
			m = s
		}
	}
	return m
}

// gcItem is one deferred-reclamation hint, enqueued by the write paths
// under the table latch. Items are enqueued in commit order, so the
// queue prefix with c <= floor is exactly the mature work. Each item is
// a hint, not a command: GC revalidates against the row's chain before
// acting, because a later rollback may have restored the state the item
// proposed to reclaim.
type gcItem struct {
	c   uint64
	row *Row

	// Entry-removal hint: the row may no longer need the entry it held in
	// this index (hash or skip, matching the index kind) while it carried
	// vals — the superseded version's values, aliased, never written. An
	// ordered index's entry comes with its node, the superseded version's
	// handle.
	hash *hashIndex
	skip *skipList
	node *skipNode
	vals []Value

	// unlink: the row may be fully dead (newest version a tombstone) and
	// eligible for physical removal from the row list and all indexes.
	unlink bool
}

// gcState is a table's deferred-reclamation queue; guarded by the
// table latch.
type gcState struct {
	queue []gcItem
}

func (g *gcState) enqueue(it gcItem) { g.queue = append(g.queue, it) }

// gcTableLocked processes the mature queue prefix for t. Caller holds
// t's latch; floor is a safe reclamation floor (readerSlots.floor).
func (t *Table) gcTableLocked(floor uint64) {
	g := &t.gc
	if len(g.queue) == 0 || g.queue[0].c > floor {
		return
	}
	i := 0
	unlinkedAny := false
	for ; i < len(g.queue) && g.queue[i].c <= floor; i++ {
		it := g.queue[i]
		switch {
		case it.unlink:
			if t.gcUnlink(it.row, floor) {
				unlinkedAny = true
			}
		case it.hash != nil || it.skip != nil:
			// The hint also reclaims the row's old versions. Prune only cuts
			// below the newest version at or below floor, so anything a
			// registered reader might still need survives — and with it, its
			// index entries. Pruning first can cut a newer version that
			// shared this key; this hint then empties the group, and that
			// version's later hint carries a handle to an unlinked node,
			// which skipList.remove's owner check skips.
			t.gcPrune(it.row, floor)
			t.gcDropEntry(it)
		default:
			t.gcPrune(it.row, floor)
		}
	}
	// Zero the vacated tail: a processed item left in the backing array
	// would keep its row and that row's superseded values reachable until
	// the queue grew over it again — after a sweep that deletes a
	// thousand leases, a thousand dead rows.
	n := copy(g.queue, g.queue[i:])
	clear(g.queue[n:])
	g.queue = g.queue[:n]
	if unlinkedAny {
		t.compactRowsLocked()
	}
}

// gcPrune cuts a row's version chain below the newest version at or
// below floor. A chain headed by a mature tombstone is left intact for
// the pending unlink item, which reads the newest live version below it.
func (t *Table) gcPrune(r *Row, floor uint64) {
	v := r.v.Load()
	for v.from > floor {
		p := v.prev.Load()
		if p == nil {
			return
		}
		v = p
	}
	if v.vals == nil {
		return
	}
	v.prev.Store(nil)
}

// chainHasKey reports whether a live version of r newer than the
// superseded one carries vals' tuple under cols. vals aliases the
// superseded version's values, which is how the walk recognises it:
// versions from there down are invisible to every reader once the hint
// is mature, so they cannot keep the entry.
func chainHasKey(r *Row, cols []int, vals []Value) bool {
	for v := r.v.Load(); v != nil; v = v.prev.Load() {
		if v.vals == nil {
			continue
		}
		if &v.vals[0] == &vals[0] {
			return false
		}
		if tupleEqualAt(v.vals, vals, cols) {
			return true
		}
	}
	return false
}

// gcDropEntry removes a stale index entry if no newer live version
// still carries the key; an entry a newer version shares is left to
// that version's own hint or, for the newest live version, to gcUnlink.
func (t *Table) gcDropEntry(it gcItem) {
	if it.hash != nil {
		if !chainHasKey(it.row, it.hash.cols, it.vals) {
			it.hash.remove(it.vals, it.row)
		}
	} else if !chainHasKey(it.row, it.skip.cols, it.vals) {
		it.skip.remove(it.node, it.row)
	}
}

// gcUnlink physically removes a fully dead row and marks it unlinked so
// compaction excludes it. Only the newest live version's entries are
// left to drop, through its handles: every older version's entry that
// its successor did not share went to a hint with a smaller commit
// number, and those hints have all run by now. Returns false when the
// row was resurrected (rollback) after the hint was enqueued.
func (t *Table) gcUnlink(r *Row, floor uint64) bool {
	head := r.v.Load()
	if head.vals != nil || head.from > floor || r.unlinked {
		return r.unlinked && head.vals == nil
	}
	v := r.live()
	if t.pkIx != nil {
		t.pkIx.remove(v.vals, r)
	}
	for i, ix := range t.loadIndexes() {
		if ix.kind == IndexOrdered {
			ix.skip.remove(v.node(i), r)
		} else {
			ix.hash.remove(v.vals, r)
		}
	}
	r.unlinked = true
	return true
}

// compactRowsLocked rebuilds the row list without unlinked rows and
// publishes it. Caller holds the latch.
func (t *Table) compactRowsLocked() {
	old := t.rows.Load().snapshot()
	b := newRowArr(len(old))
	n := 0
	for _, r := range old {
		if !r.unlinked {
			b.slots[n] = r
			n++
		}
	}
	b.n.Store(int64(n))
	t.rows.Store(b)
}

// maybeGCLocked runs a GC round when enough deferred work has queued.
// Caller holds the latch. Computing the floor costs a readerSlots scan,
// so small queues wait.
func (t *Table) maybeGCLocked(db *DB) {
	if len(t.gc.queue) < 128 {
		return
	}
	t.gcTableLocked(db.readers.floor(db.commits.Load()))
}

// gcAll forces a full GC round on every table; tests use it to bring
// indexes and row lists to their settled state before invariant checks.
func (db *DB) gcAll() {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	for _, t := range db.sortedTables() {
		t.latch.Lock()
		t.gcTableLocked(db.readers.floor(db.commits.Load()))
		t.latch.Unlock()
	}
}
