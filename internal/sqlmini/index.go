package sqlmini

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Indexes. Every table with a PRIMARY KEY column keeps a hash index
// from the key's canonical string to the rows that ever held it, so
// uniqueness checks and equality point-lookups are O(1) instead of a
// full scan. Tables may additionally carry secondary indexes (declared
// with CREATE INDEX) in one of two kinds:
//
//   - hash (the default, single-column): a lock-free-readable
//     open-addressing table from a column's canonical key to the bucket
//     of rows holding that value, in insertion order. Serves equality
//     point-lookups.
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
	if v.typ() == TypeDouble && v.float() == 0 {
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
// ordered-index group — in insertion order. A bucket of one row holds
// it inline, in row, which the writer fills before the entry or group
// that embeds the bucket is published and never writes again: the
// store that publishes the owner orders it for every reader. A second
// row moves the rows to more, an append-only array published by
// length, which from then on holds them all. The single writer (table
// latch held) writes the slot just past the published length and then
// publishes a header one longer, so readers, who Load a header
// lock-free, hold an immutable prefix. No reader can hold a header
// covering the slot being written, because a header never shrinks in
// place: removal copies the survivors to a fresh array.
type rowBucket struct {
	row  [1]*Row
	more atomic.Pointer[[]*Row]
}

// load returns the published rows. The slice is immutable and its
// capacity is clipped to its length, so a caller's append can never
// reach the writer's unpublished slots.
func (b *rowBucket) load() []*Row {
	if p := b.more.Load(); p != nil {
		return (*p)[:len(*p):len(*p)]
	}
	return b.row[:]
}

// add appends r, doubling the array when it is full. fresh says r was
// allocated by this statement and so cannot be present; otherwise
// (update, rollback re-registration, A→B→A key cycles, backfill) add
// is a no-op when the bucket already holds r. Caller holds the latch.
func (b *rowBucket) add(r *Row, fresh bool) {
	rows := b.row[:]
	if p := b.more.Load(); p != nil {
		rows = *p // unclipped: the spare capacity is the writer's
	}
	if !fresh && slices.Contains(rows, r) {
		return
	}
	if len(rows) == cap(rows) {
		rows = append(make([]*Row, 0, 2*len(rows)), rows...)
	}
	rows = append(rows, r) // in place: slot len(rows) is unpublished
	b.more.Store(&rows)
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
	b.more.Store(&rest)
	return false
}

// hashKey is a hash index key: tupleKey(key) held as the BIGINT it
// spells when it spells one canonically (strconv.FormatInt's form), and
// as a VARCHAR otherwise. The split is a function of the string, so
// two keys are equal exactly when their tupleKeys are — an integer
// probe still meets the "3" of a DOUBLE or VARCHAR column — and the
// integer keys every lease statement probes with never format.
type hashKey Value

func hashKeyOf(key []Value) hashKey {
	if len(key) == 1 && intType(key[0].typ()) {
		return hashKey(NewInt(int64(key[0].w)))
	}
	s := tupleKey(key)
	if i, ok := canonicalInt(s); ok {
		return hashKey(NewInt(i))
	}
	return hashKey(NewString(s))
}

// isInt reports whether k is an integer key, not a string one.
func (k hashKey) isInt() bool { return k.p == unsafe.Pointer(&tags[TypeBigint]) }

// equal reports whether k and o are one key. The word is an integer
// key's value and a string key's type and length, so keys with one
// word and one pointer are equal; with one word and two pointers, only
// two strings of the same bytes are — an integer whose value spells a
// string's word is never taken for that string.
func (k hashKey) equal(o hashKey) bool {
	switch {
	case k.w != o.w:
		return false
	case k.p == o.p:
		return true
	}
	return !k.isInt() && !o.isInt() && Value(k).str() == Value(o).str()
}

// String returns the key's tupleKey.
func (k hashKey) String() string {
	if k.isInt() {
		return strconv.FormatInt(int64(k.w), 10)
	}
	return Value(k).str()
}

// canonicalInt parses s if strconv.FormatInt would print it: an
// optional minus, no leading zero, no "-0", within int64.
func canonicalInt(s string) (int64, bool) {
	d := strings.TrimPrefix(s, "-")
	neg := len(d) < len(s)
	if d == "" || len(d) > 19 || d[0] == '0' && (len(d) > 1 || neg) {
		return 0, false
	}
	var u uint64 // 19 digits cannot overflow it
	for i := 0; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			return 0, false
		}
		u = u*10 + uint64(c)
	}
	switch {
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// hashEntry is one key of a hash index and its rows, in one allocation:
// the key, its hash and the rowBucket with its first row inline.
// Everything but the bucket's overflow array is immutable once the
// entry is published.
type hashEntry struct {
	hash uint64
	key  hashKey
	rows rowBucket
}

// hashTomb marks a slot whose entry was removed, so probe sequences
// that ran through it still reach the entries beyond.
var hashTomb = new(hashEntry)

// hashTable is one published slot array: a power of two long, never
// more than three quarters non-nil, so every probe meets a nil slot.
type hashTable struct {
	slots []atomic.Pointer[hashEntry]
}

// hashIndex is a concurrent non-unique hash index: an open-addressing
// table, probed linearly, of pointers to one hashEntry per key. Keys
// hash with a per-index maphash seed, so keys a client chooses cannot
// be aimed at one probe sequence. Readers load the published table and
// probe it lock-free. The single writer (table latch held) fills nil
// or tombstoned slots in place and tombstones removed entries, so
// within one table a slot goes only nil → entry ⇄ tombstone, and a
// probe that found a key once finds it while its entry stays. Growth,
// tombstone clean-up and shrinking all rehash into a fresh table sized
// from the live count and publish it; the old table is never written
// again, so a reader still on it sees every entry the table held.
type hashIndex struct {
	cols []int
	seed maphash.Seed
	tab  atomic.Pointer[hashTable]
	live int // entries filed; writer-only
	used int // non-nil slots in the published table; writer-only
}

// hashMinSlots is the size of a new or fully shrunk table.
const hashMinSlots = 8

func newHashIndex(cols []int) *hashIndex {
	h := &hashIndex{cols: cols, seed: maphash.MakeSeed()}
	h.tab.Store(&hashTable{slots: make([]atomic.Pointer[hashEntry], hashMinSlots)})
	return h
}

func (h *hashIndex) hashOf(k hashKey) uint64 {
	if !k.isInt() {
		return maphash.String(h.seed, Value(k).str())
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k.w)
	return maphash.Bytes(h.seed, b[:])
}

// find returns key k's slot in tab and its entry, or the first free
// (nil or tombstoned) slot on k's probe sequence and a nil entry.
// Lock-free.
func (h *hashIndex) find(tab *hashTable, k hashKey, hv uint64) (int, *hashEntry) {
	mask := uint64(len(tab.slots) - 1)
	free := -1
	for i := hv & mask; ; i = (i + 1) & mask {
		switch e := tab.slots[i].Load(); {
		case e == nil:
			if free < 0 {
				free = int(i)
			}
			return free, nil
		case e == hashTomb:
			if free < 0 {
				free = int(i)
			}
		case e.hash == hv && e.key.equal(k):
			return int(i), e
		}
	}
}

// lookup returns the bucket for key; the slice is immutable. Lock-free.
func (h *hashIndex) lookup(key []Value) []*Row {
	k := hashKeyOf(key)
	if _, e := h.find(h.tab.Load(), k, h.hashOf(k)); e != nil {
		return e.rows.load()
	}
	return nil
}

// insert adds r to key's bucket (see rowBucket.add for fresh), filing a
// new entry when the key has none. Caller holds the latch.
func (h *hashIndex) insert(key []Value, r *Row, fresh bool) {
	k := hashKeyOf(key)
	hv := h.hashOf(k)
	tab := h.tab.Load()
	i, e := h.find(tab, k, hv)
	if e != nil {
		e.rows.add(r, fresh)
		return
	}
	e = &hashEntry{hash: hv, key: k}
	e.rows.row[0] = r // before the slot store publishes e
	if tab.slots[i].Load() == nil {
		h.used++
	}
	tab.slots[i].Store(e)
	h.live++
	if h.used > len(tab.slots)/4*3 {
		h.rehash()
	}
}

// remove drops r from the bucket of vals' tuple, and the entry with its
// last row (a NULL tuple was never filed: nothing to drop). Caller
// holds the latch.
func (h *hashIndex) remove(vals []Value, r *Row) {
	var buf [4]Value
	key, ok := tupleOf(buf[:0], h.cols, vals)
	if !ok {
		return
	}
	k := hashKeyOf(key)
	tab := h.tab.Load()
	i, e := h.find(tab, k, h.hashOf(k))
	if e == nil || !e.rows.remove(r) {
		return
	}
	tab.slots[i].Store(hashTomb)
	h.live--
	if len(tab.slots) > hashMinSlots && h.live < len(tab.slots)/8 {
		h.rehash()
	}
}

// rehash publishes a fresh table of the smallest power of two at least
// twice the live count, holding the live entries and no tombstones.
// Caller holds the latch.
func (h *hashIndex) rehash() {
	n := hashMinSlots
	for n < 2*h.live {
		n *= 2
	}
	t := &hashTable{slots: make([]atomic.Pointer[hashEntry], n)}
	mask := uint64(n - 1)
	old := h.tab.Load()
	for i := range old.slots {
		e := old.slots[i].Load()
		if e == nil || e == hashTomb {
			continue
		}
		j := e.hash & mask
		for t.slots[j].Load() != nil {
			j = (j + 1) & mask
		}
		t.slots[j].Store(e)
	}
	h.used = h.live
	h.tab.Store(t)
}

// each visits every (tupleKey, bucket) pair; writer-side helper for
// consistency checks.
func (h *hashIndex) each(fn func(key string, rows []*Row)) {
	tab := h.tab.Load()
	for i := range tab.slots {
		if e := tab.slots[i].Load(); e != nil && e != hashTomb {
			fn(e.key.String(), e.rows.load())
		}
	}
}

// secondaryIndex is one non-unique index, hash (single-column) or
// ordered (single- or multi-column skiplist).
type secondaryIndex struct {
	name string
	cols []int
	kind IndexKind

	hash *hashIndex // kind == IndexHash
	skip *skipList  // kind == IndexOrdered
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
// marks a row this statement allocated (INSERT), which no bucket can
// hold yet; rollback passes false to re-register values whose entries
// GC may or may not have dropped. Caller holds the latch and has
// checked uniqueness.
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
