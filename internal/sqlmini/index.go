package sqlmini

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Indexes. Every table with a PRIMARY KEY column keeps a hash index
// from the key's canonical string to the rows that ever held it, so
// uniqueness checks and equality point-lookups are O(1) instead of a
// full scan. Tables may additionally carry secondary indexes (declared
// with CREATE INDEX or DB.EnsureIndex/EnsureOrderedIndex) in one of
// two kinds:
//
//   - hash (the default, single-column): a concurrent map from a
//     column's canonical key to the bucket of rows holding that value,
//     in insertion order. Serves equality point-lookups.
//   - ordered (single- or multi-column): a skiplist of key groups over
//     the column tuple, each group holding its rows in insertion
//     order. Serves equality seeks in O(log n) and, through the
//     planner, range scans — including composite plans that pin a
//     prefix of the columns by equality and range over the next one.
//
// Both kinds keep the rows of one key in a rowBucket: an append-only
// array published by length, so adding a row to a key costs O(1)
// however many rows already share it.
//
// MVCC index contract: entries are inserted eagerly (INSERT, UPDATE
// key moves, rollback re-registration) but removed lazily — a key
// change keeps the old entry because readers at older snapshots still
// reach the row through it. Index lookups therefore return a superset
// of the matching rows; execution always filters candidates by version
// visibility and the statement's predicate, and range/multi-group
// gathers deduplicate (one row can legitimately sit in two groups).
// The deferred-GC queue (mvcc.go) drops entries once no live version
// carries the key and no registered reader can need them.
//
// Ordered-index grouping invariant: rows are grouped by Compare == 0
// over the stored tuples. Stored values are uniformly typed per column
// (post-coercion), where Compare is a total order, so all rows of one
// group compare identically against any probe key — which is what lets
// the planner treat a group as one unit when cutting range boundaries.

// pkCol returns the index of the table's PRIMARY KEY column, or -1.
func (t *Table) pkCol() int {
	for i, c := range t.Cols {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// initIndex prepares the PK index structures; call after Cols are set.
// Secondary indexes are added separately (addIndex) and survive this
// call.
func (t *Table) initIndex() {
	t.pk = t.pkCol()
	if t.pk >= 0 {
		t.pkIx = newHashIndex([]int{t.pk})
	}
	if t.rows.Load() == nil {
		t.rows.Store(newRowArr(8))
	}
	if t.indexes.Load() == nil {
		empty := []*secondaryIndex{}
		t.indexes.Store(&empty)
	}
}

// loadIndexes returns the published secondary-index set.
func (t *Table) loadIndexes() []*secondaryIndex { return *t.indexes.Load() }

// storeIndexes publishes a new secondary-index set (DDL only).
func (t *Table) storeIndexes(ixs []*secondaryIndex) { t.indexes.Store(&ixs) }

// pkKey canonicalizes a key value for hashing. Values are stored
// post-coercion, so one column holds one type and Str() is injective
// within it — except the DOUBLE zeroes, which compare equal but format
// differently, so negative zero is folded into "0".
func pkKey(v Value) string {
	if v.typ == TypeDouble && v.float() == 0 {
		return "0"
	}
	return v.Str()
}

// tupleKey canonicalizes a key tuple: single-column keys use pkKey
// directly (the hot path), longer tuples length-prefix each part so no
// byte sequence is ambiguous.
func tupleKey(key []Value) string {
	if len(key) == 1 {
		return pkKey(key[0])
	}
	var sb strings.Builder
	for _, v := range key {
		p := pkKey(v)
		sb.WriteString(strconv.Itoa(len(p)))
		sb.WriteByte(':')
		sb.WriteString(p)
	}
	return sb.String()
}

// tupleOf appends vals projected through cols to dst; ok=false when a
// component is NULL (NULL tuples are not indexed — no equality or range
// predicate matches them). Callers that only probe pass a stack buffer.
func tupleOf(dst []Value, cols []int, vals []Value) ([]Value, bool) {
	for _, ci := range cols {
		if vals[ci].IsNull() {
			return nil, false
		}
		dst = append(dst, vals[ci])
	}
	return dst, true
}

// tupleEqualAt reports whether rows a and b carry the same tuple under
// cols by Compare (NULL components never match).
func tupleEqualAt(a, b []Value, cols []int) bool {
	for _, ci := range cols {
		if c, ok := comparePtr(&a[ci], &b[ci]); !ok || c != 0 {
			return false
		}
	}
	return true
}

// keyMoved reports what an update did to a row's tuple under cols:
// whether the old and new tuples are indexed at all (no NULL
// component) and whether the row has to change bucket. The columns are
// compared where they sit, so a key that stayed put costs no
// allocation. Stored values are uniformly typed per column, where
// Compare equality and canonical-string equality (hash buckets) agree.
func keyMoved(cols []int, oldVals, newVals []Value) (oldOK, newOK, moved bool) {
	oldOK, newOK = true, true
	for _, ci := range cols {
		o, n := &oldVals[ci], &newVals[ci]
		oldOK, newOK = oldOK && !o.IsNull(), newOK && !n.IsNull()
		if c, ok := comparePtr(o, n); !ok || c != 0 {
			moved = true
		}
	}
	return oldOK, newOK, moved && (oldOK || newOK)
}

// rowBucket holds the rows filed under one key — a hash bucket or an
// ordered-index group — in insertion order. It is an append-only array
// published by length: the single writer (table latch held) writes the
// slot just past the published length and then publishes a header one
// longer, so readers, who Load a header lock-free, hold an immutable
// prefix. No reader can hold a header covering the slot being written,
// because a header never shrinks in place: removal copies the
// survivors to a fresh array.
type rowBucket struct {
	hdr atomic.Pointer[[]*Row]
}

// load returns the published rows. The slice is immutable and its
// capacity is clipped to its length, so a caller's append can never
// reach the writer's unpublished slots.
func (b *rowBucket) load() []*Row {
	if p := b.hdr.Load(); p != nil {
		return (*p)[:len(*p):len(*p)]
	}
	return nil
}

// add appends r, doubling the array when it is full. fresh says r was
// allocated by this statement and so cannot be present; otherwise
// (update, rollback re-registration, A→B→A key cycles, backfill) add
// is a no-op when the bucket already holds r. Caller holds the latch.
func (b *rowBucket) add(r *Row, fresh bool) {
	var rows []*Row
	if p := b.hdr.Load(); p != nil {
		rows = *p // unclipped: the spare capacity is the writer's
	}
	if !fresh && slices.Contains(rows, r) {
		return
	}
	if len(rows) == cap(rows) {
		rows = append(make([]*Row, 0, max(1, 2*len(rows))), rows...)
	}
	rows = append(rows, r) // in place: slot len(rows) is unpublished
	b.hdr.Store(&rows)
}

// remove drops r and reports whether the bucket held nothing else, in
// which case it is left as it was for the caller to unlink whole.
// Caller holds the latch.
func (b *rowBucket) remove(r *Row) (emptied bool) {
	rows := b.load()
	i := slices.Index(rows, r)
	if i < 0 {
		return false
	}
	if len(rows) == 1 {
		return true
	}
	rest := make([]*Row, 0, len(rows)-1)
	rest = append(append(rest, rows[:i]...), rows[i+1:]...)
	b.hdr.Store(&rest)
	return false
}

// hashIndex is a concurrent non-unique hash index: a sync.Map from the
// canonical tuple key to the key's rowBucket. Readers Load lock-free;
// the single writer (table latch held) appends to buckets in place.
type hashIndex struct {
	cols []int
	m    sync.Map // string -> *rowBucket
}

func newHashIndex(cols []int) *hashIndex { return &hashIndex{cols: cols} }

// lookup returns the bucket for key; the slice is immutable.
func (h *hashIndex) lookup(key []Value) []*Row {
	v, ok := h.m.Load(tupleKey(key))
	if !ok {
		return nil
	}
	return v.(*rowBucket).load()
}

// insert adds r to key's bucket (see rowBucket.add for fresh). Caller
// holds the latch.
func (h *hashIndex) insert(key []Value, r *Row, fresh bool) {
	ks := tupleKey(key)
	if v, ok := h.m.Load(ks); ok {
		v.(*rowBucket).add(r, fresh)
		return
	}
	b := &rowBucket{}
	b.add(r, true)
	h.m.Store(ks, b)
}

// remove drops r from the bucket of vals' tuple, and the bucket with
// its last row (a NULL tuple was never filed: nothing to drop). Caller
// holds the latch.
func (h *hashIndex) remove(vals []Value, r *Row) {
	var buf [4]Value
	key, ok := tupleOf(buf[:0], h.cols, vals)
	if !ok {
		return
	}
	ks := tupleKey(key)
	if v, ok := h.m.Load(ks); ok && v.(*rowBucket).remove(r) {
		h.m.Delete(ks)
	}
}

// each visits every (key, bucket) pair; writer-side helper for
// consistency checks.
func (h *hashIndex) each(fn func(key string, rows []*Row)) {
	h.m.Range(func(k, v any) bool {
		fn(k.(string), v.(*rowBucket).load())
		return true
	})
}

// secondaryIndex is one non-unique index, hash (single-column) or
// ordered (single- or multi-column skiplist).
type secondaryIndex struct {
	name string
	cols []int
	kind IndexKind

	hash *hashIndex // kind == IndexHash
	skip *skipList  // kind == IndexOrdered

	// shadow is the hash structure this ordered index superseded via the
	// in-place upgrade path (declareIndex). A prepared plan bound just
	// before the upgrade may still probe it, so inserts keep feeding it;
	// entries are never GC'd from a shadow (lookups tolerate supersets,
	// and upgrades are rare enough that the leak is acceptable).
	shadow *hashIndex
}

// newSecondaryIndex allocates the backing structure for the given kind.
func newSecondaryIndex(name string, cols []int, kind IndexKind) *secondaryIndex {
	ix := &secondaryIndex{name: name, cols: append([]int(nil), cols...), kind: kind}
	if kind == IndexOrdered {
		ix.skip = newSkipList(ix.cols)
	} else {
		ix.hash = newHashIndex(ix.cols)
	}
	return ix
}

// colNames renders the indexed column list for Explain and snapshots.
func (ix *secondaryIndex) colNames(t *Table) []string {
	out := make([]string, len(ix.cols))
	for i, ci := range ix.cols {
		out[i] = t.Cols[ci].Name
	}
	return out
}

// insertFor registers vals' key for r (no-op on a NULL component; see
// rowBucket.add for fresh) and returns the skiplist node that now holds
// r — nil for a hash index or a NULL tuple. Caller holds the latch.
func (ix *secondaryIndex) insertFor(vals []Value, r *Row, fresh bool) *skipNode {
	var buf [4]Value
	key, ok := tupleOf(buf[:0], ix.cols, vals)
	if !ok {
		return nil
	}
	if ix.kind == IndexHash {
		ix.hash.insert(key, r, fresh)
		return nil
	}
	if ix.shadow != nil {
		ix.shadow.insert(key, r, fresh)
	}
	return ix.skip.insert(key, r, fresh)
}

// lookup returns the candidate rows for an equality probe on the full
// tuple. The result may be a superset (stale entries) and, for ordered
// indexes, may contain duplicates across adjacent groups; callers
// filter and deduplicate. Lock-free.
func (ix *secondaryIndex) lookup(key []Value) []*Row {
	if ix.kind == IndexHash {
		return ix.hash.lookup(key)
	}
	return ix.skip.lookupEqual(key, nil)
}

// indexOn returns the first secondary index whose leading column is
// col; exact=true restricts to single-column indexes (hash candidates
// must cover the whole tuple).
func (t *Table) indexOn(col int) *secondaryIndex {
	for _, ix := range t.loadIndexes() {
		if ix.cols[0] == col {
			return ix
		}
	}
	return nil
}

// indexNamed returns the secondary index with the given name, if any.
func (t *Table) indexNamed(name string) *secondaryIndex {
	for _, ix := range t.loadIndexes() {
		if ix.name == name {
			return ix
		}
	}
	return nil
}

// indexWithCols returns the secondary index over exactly cols, if any.
func (t *Table) indexWithCols(cols []int) *secondaryIndex {
	for _, ix := range t.loadIndexes() {
		if len(ix.cols) != len(cols) {
			continue
		}
		same := true
		for i := range cols {
			if ix.cols[i] != cols[i] {
				same = false
				break
			}
		}
		if same {
			return ix
		}
	}
	return nil
}

// removeIndex drops one secondary index (the hash→ordered upgrade
// path), and its slot from every row's handle array so the positions
// stay aligned with the index set. Caller holds ddlMu and the table
// latch.
func (t *Table) removeIndex(target *secondaryIndex) {
	old := t.loadIndexes()
	pos := slices.Index(old, target)
	t.storeIndexes(slices.Delete(slices.Clone(old), pos, pos+1))
	for _, r := range t.rows.Load().snapshot() {
		if v := r.live(); pos < len(v.nodes) {
			v.nodes = slices.Delete(v.nodes, pos, pos+1)
		}
	}
}

// addIndex creates a secondary index over cols and backfills it from
// every live version of every row — not just the current ones — so
// readers at older snapshots can still find rows whose key has since
// moved. The newest live version records its handle; an older version
// whose tuple its successor does not share gets the deferred-removal
// hint indexUpdate would have left, handle included, stamped with the
// table's watermark (no earlier than the commit that superseded it, and
// no earlier than anything queued), so GC drops it once no reader can
// need it. Caller holds ddlMu and the table latch; name/columns are
// validated.
func (t *Table) addIndex(name string, cols []int, kind IndexKind) {
	ix := newSecondaryIndex(name, cols, kind)
	ixs := append(slices.Clone(t.loadIndexes()), ix)
	pos := len(ixs) - 1
	c := t.watermark.Load()
	for _, r := range t.rows.Load().snapshot() {
		var newer *rowVersion
		for v := r.v.Load(); v != nil; v = v.prev.Load() {
			if v.vals == nil {
				continue
			}
			n := ix.insertFor(v.vals, r, false)
			switch {
			case newer == nil:
				if n != nil {
					v.setNode(pos, n, len(ixs))
				}
			case !tupleEqualAt(v.vals, newer.vals, ix.cols):
				t.gc.enqueue(gcItem{c: c, row: r, hash: ix.hash, skip: ix.skip, node: n, vals: v.vals})
			}
			newer = v
		}
	}
	t.storeIndexes(ixs)
}

// indexInsert registers a row's newest version under its keys in the PK
// and all secondary indexes, recording the version's handles. fresh
// marks a row this statement allocated (INSERT, restore into empty
// indexes), which no bucket can hold yet; rollback passes false to
// re-register values whose entries GC may or may not have dropped.
// Caller holds the latch and has checked uniqueness.
func (t *Table) indexInsert(r *Row, fresh bool) {
	v := r.cur()
	if t.pk >= 0 && !v.vals[t.pk].IsNull() {
		t.pkIx.insert(v.vals[t.pk:t.pk+1], r, fresh)
	}
	ixs := t.loadIndexes()
	for i, ix := range ixs {
		if n := ix.insertFor(v.vals, r, fresh); n != nil {
			v.setNode(i, n, len(ixs))
		}
	}
}

// indexUpdate registers a row's new keys after an update pushed nv,
// which took over the superseded version's handles. Old entries stay
// for older snapshots; each changed key enqueues a deferred removal
// hint for GC, which aliases the (immutable) old version's values
// instead of copying the key out and carries the old entry's handle.
// Caller holds the latch; c is the statement's commit number.
func (t *Table) indexUpdate(r *Row, nv *rowVersion, oldVals []Value, c uint64) {
	newVals := nv.vals
	if t.pk >= 0 {
		if oldOK, newOK, moved := keyMoved(t.pkIx.cols, oldVals, newVals); moved {
			if newOK {
				t.pkIx.insert(newVals[t.pk:t.pk+1], r, false)
			}
			if oldOK {
				t.gc.enqueue(gcItem{c: c, row: r, hash: t.pkIx, vals: oldVals})
			}
		}
	}
	ixs := t.loadIndexes()
	for i, ix := range ixs {
		oldOK, newOK, moved := keyMoved(ix.cols, oldVals, newVals)
		if !moved {
			continue
		}
		old := nv.node(i)
		var n *skipNode
		if newOK {
			n = ix.insertFor(newVals, r, false)
		}
		if n != nil || old != nil {
			nv.setNode(i, n, len(ixs))
		}
		if oldOK {
			t.gc.enqueue(gcItem{c: c, row: r, hash: ix.hash, skip: ix.skip, node: old, vals: oldVals})
		}
	}
}

// lookupPKCurrent finds the live row currently holding the given PK
// value, if any. Caller holds the latch (uniqueness checks) or accepts
// latest-committed semantics (FK existence checks).
func (t *Table) lookupPKCurrent(v Value) (*Row, bool) {
	if t.pk < 0 || v.IsNull() {
		return nil, false
	}
	for _, r := range t.pkIx.lookup([]Value{v}) {
		vals := r.curVals()
		if vals != nil && Equal(vals[t.pk], v) {
			return r, true
		}
	}
	return nil, false
}

// pkCandidates returns the PK bucket for a probe (a superset: stale
// entries and dead rows filter out downstream). Lock-free.
func (t *Table) pkCandidates(v Value) []*Row {
	if t.pk < 0 || v.IsNull() {
		return nil
	}
	return t.pkIx.lookup([]Value{v})
}

// rebuildIndex reconstructs the PK index and every secondary index
// from the current rows (snapshot restore, on fresh tables).
func (t *Table) rebuildIndex() {
	t.pk = t.pkCol()
	if t.pk >= 0 {
		t.pkIx = newHashIndex([]int{t.pk})
	}
	ixs := t.loadIndexes()
	fresh := make([]*secondaryIndex, len(ixs))
	for i, ix := range ixs {
		fresh[i] = newSecondaryIndex(ix.name, ix.cols, ix.kind)
	}
	t.storeIndexes(fresh)
	for _, r := range t.rows.Load().snapshot() {
		if r.curVals() != nil {
			t.indexInsert(r, true)
		}
	}
}
