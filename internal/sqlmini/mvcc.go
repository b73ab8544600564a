package sqlmini

import (
	"sync/atomic"
	"unsafe"
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

// rowVersion is the header of one immutable version of a row. A live
// version is one allocation, a []Value block laid out as
//
//	[ header | values × ncol | handles × nh ]
//
// so its commit stamp, its prev link, its values and its index handles
// sit together; a tombstone is the header alone. The header and a
// handle have Value's layout — a pointer word, then a scalar word — so
// the collector scans the block as the []Value it was allocated as.
// prev links to the version this one superseded; the garbage collector
// cuts the link once no reader can need it, so readers load it
// atomically. Everything else is written before the version is
// published and never again, except the handles: an ordered index's
// groups read their keys from the values of a version they point at
// (skipNode), lock-free.
//
// The handles are the row's ordered-index handles, aligned with the
// table's loadIndexes(): handle i is the skiplist node that files the
// row under this version's tuple in index i (nil for a hash index or a
// NULL tuple). They are writer-only (table latch held) and are kept on
// the newest live version alone: a live version superseding another
// takes them over (push), patching only the slots whose key moved, and
// the moved key's old handle travels in its GC hint (indexUpdate).
type rowVersion struct {
	prev  atomic.Pointer[rowVersion]
	stamp uint64 // the creating commit number << 1, | 1 for a tombstone
}

// handle is one index handle slot of a version, padded to a Value.
type handle struct {
	node *skipNode
	_    uint64
}

const valueSize = unsafe.Sizeof(Value{})

// newVersion allocates an unpublished, unstamped live version block of
// ncol NULL values and nh empty handles.
func newVersion(ncol, nh int) *rowVersion {
	b := make([]Value, 1+ncol+nh)
	return (*rowVersion)(unsafe.Pointer(&b[0]))
}

// newTombstone allocates an unpublished tombstone.
func newTombstone() *rowVersion { return &rowVersion{stamp: 1} }

// from returns the commit number that created the version.
func (v *rowVersion) from() uint64 { return v.stamp >> 1 }

// setFrom stamps an unpublished version with its commit number.
func (v *rowVersion) setFrom(c uint64) { v.stamp = c<<1 | v.stamp&1 }

// dead reports whether the version is a tombstone.
func (v *rowVersion) dead() bool { return v.stamp&1 != 0 }

// Row is a stored row. Identity (the pointer) is stable for the row's
// lifetime, which the undo log relies on. The version chain head is the
// current (writer-visible) state.
type Row struct {
	v atomic.Pointer[rowVersion]

	// ncol is the number of values in each of the row's live versions,
	// its table's column count; immutable.
	ncol uint32

	// nh is the number of handle slots in the row's newest live version;
	// writer-only.
	nh uint16

	// unlinked marks a row physically removed from the table's row list
	// and indexes by GC; guarded by the table latch. Rollback checks it
	// to re-link a row it must resurrect.
	unlinked bool
}

// valueSlots returns the ncol values of the live version block v.
func valueSlots(v *rowVersion, ncol int) []Value { return unsafe.Slice(v.col(0), ncol) }

// col returns the value of column ci of the live version block v, which
// holds more than ci values.
func (v *rowVersion) col(ci int) *Value {
	return (*Value)(unsafe.Add(unsafe.Pointer(v), uintptr(1+ci)*valueSize))
}

// handleSlots returns the nh handles of the live version block v,
// which holds ncol values.
func handleSlots(v *rowVersion, ncol, nh int) []handle {
	if nh == 0 {
		return nil
	}
	return unsafe.Slice((*handle)(unsafe.Add(unsafe.Pointer(v), uintptr(1+ncol)*valueSize)), nh)
}

// valsOf returns the values of v, one of r's versions, nil for a
// tombstone. The slice's capacity ends at the values.
func (r *Row) valsOf(v *rowVersion) []Value {
	if v.dead() {
		return nil
	}
	return valueSlots(v, int(r.ncol))
}

// handles returns the handles of r's newest live version v. Caller
// holds the latch.
func (r *Row) handles(v *rowVersion) []handle { return handleSlots(v, int(r.ncol), int(r.nh)) }

// node returns the handle for index position i of r's newest live
// version v, if any. Caller holds the latch.
func (r *Row) node(v *rowVersion, i int) *skipNode {
	if hs := r.handles(v); i < len(hs) {
		return hs[i].node
	}
	return nil
}

// newRow allocates an unpublished live row of t whose first version's
// values, returned, start NULL for the caller to fill in place; the
// caller stamps the version (setFrom) before publishing the row.
func (t *Table) newRow() (*Row, []Value) {
	r := &Row{ncol: uint32(len(t.Cols)), nh: uint16(t.nh)}
	v := newVersion(len(t.Cols), t.nh)
	r.v.Store(v)
	return r, r.valsOf(v)
}

// nextVersion allocates an unpublished live version in t's layout
// holding a copy of vals, for the caller to change in place and push.
func (t *Table) nextVersion(vals []Value) *rowVersion {
	nv := newVersion(len(t.Cols), t.nh)
	copy(valueSlots(nv, len(t.Cols)), vals)
	return nv
}

// cur returns the chain head (writer view). Callers on the write path
// hold the table latch; readers use visible instead.
func (r *Row) cur() *rowVersion { return r.v.Load() }

// curVals returns the current values, nil if the row is dead.
func (r *Row) curVals() []Value { return r.valsOf(r.v.Load()) }

// live returns the newest live version: the head, or the newest one
// below the tombstone heading a deleted row. Caller holds the latch.
func (r *Row) live() *rowVersion {
	v := r.v.Load()
	for v != nil && v.dead() {
		v = v.prev.Load()
	}
	return v
}

// push stamps nv, a tombstone or a version of t's layout, with commit c
// and prepends it. A live version superseding a live one takes over its
// index handles; one superseding a tombstone starts with none, for
// indexInsert to record. Caller holds the table latch.
func (r *Row) push(t *Table, nv *rowVersion, c uint64) {
	old := r.v.Load()
	nv.setFrom(c)
	if !nv.dead() {
		if !old.dead() {
			hs := r.handles(old)
			copy(handleSlots(nv, int(r.ncol), t.nh), hs)
			clear(hs)
		}
		r.nh = uint16(t.nh)
	}
	nv.prev.Store(old)
	r.v.Store(nv)
}

// widen moves r's newest live version v, built before CREATE INDEX
// gave t more handle slots, into a copy in t's layout, which takes v's
// place in the chain, and returns the copy. The groups v's handles name
// read their keys from the copy from then on, so nothing holds v but a
// reader that already does, and keeps reading the same values. Caller
// holds the latch.
func (t *Table) widen(r *Row, v *rowVersion) *rowVersion {
	nv := t.nextVersion(r.valsOf(v))
	nv.stamp = v.stamp
	hs := handleSlots(nv, int(r.ncol), t.nh)
	copy(hs, r.handles(v))
	for _, h := range hs {
		if h.node != nil {
			h.node.ver.Store(nv)
		}
	}
	nv.prev.Store(v.prev.Load())
	if p := r.v.Load(); p == v {
		r.v.Store(nv)
	} else {
		for p.prev.Load() != v {
			p = p.prev.Load()
		}
		p.prev.Store(nv)
	}
	r.nh = uint16(t.nh)
	return nv
}

// visible returns the values of the newest version at or below snapshot
// s, or nil if the row is invisible at s (not yet inserted, or deleted).
func (r *Row) visible(s uint64) []Value {
	v := r.v.Load()
	for v != nil && v.from() > s {
		v = v.prev.Load()
	}
	if v == nil {
		return nil
	}
	return r.valsOf(v)
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
	// ver's values — ver is the superseded version, never written again.
	// An ordered index's entry comes with its node, the superseded
	// version's handle.
	hash *hashIndex
	skip *skipList
	node *skipNode
	ver  *rowVersion

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

// gcQueueFloor is the queue capacity a table keeps whatever a round
// leaves in it: twice what maybeGCLocked lets queue before a round.
const gcQueueFloor = 256

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
			// which skipList.remove's linked check skips.
			t.gcPrune(it.row, floor)
			t.gcDropEntry(it)
		default:
			t.gcPrune(it.row, floor)
		}
	}
	// Zero the vacated tail: a processed item left in the backing array
	// would keep its row and that row's superseded version reachable
	// until the queue grew over it again — after a sweep that deletes a
	// thousand leases, a thousand dead rows. A round that leaves the
	// queue under a quarter full gives a backing array grown past the
	// floor back whole: the reaper's DELETE queues a hint per row it
	// deletes, and an array that once held them all would be held for
	// good. The copy costs what the drained items did.
	n := copy(g.queue, g.queue[i:])
	clear(g.queue[n:])
	g.queue = g.queue[:n]
	if c := cap(g.queue); c > gcQueueFloor && n < c/4 {
		g.queue = append([]gcItem(nil), g.queue...)
	}
	if unlinkedAny {
		t.compactRowsLocked()
	}
}

// gcPrune cuts a row's version chain below the newest version at or
// below floor. A chain headed by a mature tombstone is left intact for
// the pending unlink item, which reads the newest live version below it.
func (t *Table) gcPrune(r *Row, floor uint64) {
	v := r.v.Load()
	for v.from() > floor {
		p := v.prev.Load()
		if p == nil {
			return
		}
		v = p
	}
	if v.dead() {
		return
	}
	v.prev.Store(nil)
}

// chainHas reports whether a live version of r newer than ver, the
// superseded one, satisfies keeps. Versions from ver down are invisible
// to every reader once the hint is mature, so they cannot keep the
// entry.
func chainHas(r *Row, ver *rowVersion, keeps func(vals []Value) bool) bool {
	for v := r.v.Load(); v != nil && v != ver; v = v.prev.Load() {
		if vals := r.valsOf(v); vals != nil && keeps(vals) {
			return true
		}
	}
	return false
}

// gcDropEntry removes a stale index entry if no newer live version
// still needs it; an entry a newer version shares is left to that
// version's own hint or, for the newest live version, to gcUnlink. A
// hash slot is shared by every version whose key hashes alike, so it
// stays while any newer version's key hashes to its hash.
func (t *Table) gcDropEntry(it gcItem) {
	old := it.row.valsOf(it.ver)
	if h := it.hash; h != nil {
		hv, ok := h.slotHash(old)
		if ok && !chainHas(it.row, it.ver, func(vals []Value) bool {
			nv, ok := h.slotHash(vals)
			return ok && nv == hv
		}) {
			h.remove(old, it.row)
		}
		return
	}
	cols := it.skip.cols
	if !chainHas(it.row, it.ver, func(vals []Value) bool { return tupleEqualAt(vals, old, cols) }) {
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
	if !head.dead() || head.from() > floor || r.unlinked {
		return r.unlinked && head.dead()
	}
	v := r.live()
	vals := r.valsOf(v)
	if t.pkIx != nil {
		t.pkIx.remove(vals, r)
	}
	for i, ix := range t.loadIndexes() {
		if ix.kind == IndexOrdered {
			ix.skip.remove(r.node(v, i), r)
		} else {
			ix.hash.remove(vals, r)
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
