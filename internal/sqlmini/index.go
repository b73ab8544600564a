package sqlmini

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Indexes. Every table with a PRIMARY KEY column keeps a hash index
// over the key, so uniqueness checks and equality point-lookups are
// O(1) instead of a full scan. Tables may additionally carry secondary
// indexes (declared with CREATE INDEX) in one of two kinds:
//
//   - hash (the default, single-column): a lock-free-readable
//     open-addressing table whose slots each hold one row and the hash
//     of a key it carried. Serves equality point-lookups.
//   - ordered (single- or multi-column): a skiplist of key groups over
//     the column tuple, each group holding its rows in insertion order
//     in a rowBucket. Serves equality seeks in O(log n) and, through
//     the planner, range scans — including composite plans that pin a
//     prefix of the columns by equality and range over the next one.
//
// MVCC index contract: entries are inserted eagerly (INSERT, UPDATE
// key moves, rollback re-registration) but removed lazily — a key
// change keeps the old entry because readers at older snapshots still
// reach the row through it. A hash probe matches a row by the key of
// the version its caller sees, so it returns exactly the rows holding
// the key in that view; an ordered index's lookups return a superset of
// the matching rows. Execution always filters candidates by version
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
		t.pkIx = newHashIndex(t.pk)
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
// component) and whether the row has to be filed anew. The columns are
// compared where they sit, so a key that stayed put costs no
// allocation. Stored values are uniformly typed per column, where
// Compare equality and canonical-string equality (hash keys) agree.
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

// rowBucket holds the rows filed under one ordered-index group, in
// insertion order. A bucket of one row holds it inline, in row, which
// the writer fills before the group that embeds the bucket is published
// and never writes again: the store that publishes the group orders it
// for every reader. A second row moves the rows to more, an append-only
// array published by length, which from then on holds them all. The
// single writer (table latch held) writes the slot just past the
// published length and then publishes a header one longer, so readers,
// who Load a header lock-free, hold an immutable prefix. No reader can
// hold a header covering the slot being written, because a header never
// shrinks in place: removal copies the survivors to a fresh array.
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

// hashKey is a hash index key: the key's canonical string (Value.Str)
// held as the BIGINT it spells when it spells one canonically
// (strconv.FormatInt's form), and as a VARCHAR otherwise. The split is
// a function of the string, so two keys are equal exactly when their
// strings are — an integer probe still meets the "3" of a VARCHAR
// column — and the integer keys every lease statement probes with
// never format.
type hashKey Value

func hashKeyOf(v Value) hashKey {
	if intType(v.typ()) {
		return hashKey(NewInt(int64(v.w)))
	}
	s := v.Str()
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

// hashSlot is one slot of a hash table: a row and the hash of the key
// it is filed under. The writer fills a nil slot, hash first, and
// publishes it by the row store; hash is never written again, and the
// slot goes nil → row → hashTomb and no further, so a reader that loads
// a row reads the hash filed with it, never another row's.
type hashSlot struct {
	hash uint64
	row  atomic.Pointer[Row]
}

// hashTomb marks a slot whose row was removed, so probe sequences that
// ran through it still reach the slots beyond.
var hashTomb = new(Row)

// hashTable is one published slot array: a power of two long, never
// more than three quarters non-nil, so every probe meets a nil slot.
type hashTable struct {
	slots []hashSlot
}

// hashIndex is a concurrent non-unique hash index over one column: an
// open-addressing table, probed linearly, with one slot per (key, row)
// pair filed — the key's hash and the row, not the key. A probe
// compares its key with the key in the version of the row its caller
// sees (tableView), so a row whose key an UPDATE changed is found under
// its old key by a snapshot that sees the old version and under its new
// key by one that sees the new, through two slots; GC drops the old one
// once no reader can see that version. A row is filed once per hash:
// one slot serves every version whose key hashes alike. Keys hash with
// a per-index maphash seed, so keys a client chooses cannot be aimed at
// one probe sequence.
//
// Readers load the published table and probe it lock-free. The single
// writer (table latch held) files a row into the first nil slot of its
// probe sequence — after every row filed there before it, so a key's
// rows come back in insertion order — and tombstones removed slots;
// tombstones are reused only by a rehash. So a probe that found a row
// once finds it while its slot stays. Growth, tombstone clean-up and
// shrinking all rehash into a fresh table sized from the live count and
// publish it; the old table is never written again, so a reader still
// on it sees every slot the table held.
type hashIndex struct {
	col  int
	seed maphash.Seed
	tab  atomic.Pointer[hashTable]
	live int // slots holding a row; writer-only
	used int // non-nil slots in the published table; writer-only
}

// hashMinSlots is the size of a new or fully shrunk table.
const hashMinSlots = 8

func newHashIndex(col int) *hashIndex {
	h := &hashIndex{col: col, seed: maphash.MakeSeed()}
	h.tab.Store(&hashTable{slots: make([]hashSlot, hashMinSlots)})
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

// slotHash returns the hash a row with values vals is filed under, and
// false when its key is NULL, which is not filed.
func (h *hashIndex) slotHash(vals []Value) (uint64, bool) {
	if vals[h.col].IsNull() {
		return 0, false
	}
	return h.hashOf(hashKeyOf(vals[h.col])), true
}

// lookup appends to out the rows whose version in vw holds key, each
// once, and returns it. Lock-free.
func (h *hashIndex) lookup(key Value, vw tableView, out []*Row) []*Row {
	k := hashKeyOf(key)
	hv := h.hashOf(k)
	tab := h.tab.Load()
	mask := uint64(len(tab.slots) - 1)
	for i := hv & mask; ; i = (i + 1) & mask {
		s := &tab.slots[i]
		r := s.row.Load()
		switch {
		case r == nil:
			return out
		case r == hashTomb || s.hash != hv:
			continue
		}
		if vals := vw.valsOf(r); vals != nil && !vals[h.col].IsNull() && hashKeyOf(vals[h.col]).equal(k) {
			out = append(out, r)
		}
	}
}

// insert files r under the key in vals (no-op on a NULL key). fresh
// says r was allocated by this statement and so cannot be filed yet;
// otherwise (update, rollback re-registration, A→B→A key cycles,
// backfill) insert is a no-op when r is already filed under the key's
// hash. Caller holds the latch.
func (h *hashIndex) insert(vals []Value, r *Row, fresh bool) {
	hv, ok := h.slotHash(vals)
	if !ok {
		return
	}
	tab := h.tab.Load()
	mask := uint64(len(tab.slots) - 1)
	i := hv & mask
	for ; ; i = (i + 1) & mask {
		s := &tab.slots[i]
		x := s.row.Load()
		if x == nil {
			break
		}
		if !fresh && x == r && s.hash == hv {
			return
		}
	}
	tab.slots[i].hash = hv // before the row store publishes it
	tab.slots[i].row.Store(r)
	h.used++
	h.live++
	if h.used > len(tab.slots)/4*3 {
		h.rehash()
	}
}

// remove drops r's slot under the key in vals (a NULL key was never
// filed: nothing to drop). Caller holds the latch.
func (h *hashIndex) remove(vals []Value, r *Row) {
	hv, ok := h.slotHash(vals)
	if !ok {
		return
	}
	tab := h.tab.Load()
	mask := uint64(len(tab.slots) - 1)
	for i := hv & mask; ; i = (i + 1) & mask {
		s := &tab.slots[i]
		switch x := s.row.Load(); {
		case x == nil:
			return
		case x != r || s.hash != hv:
			continue
		}
		s.row.Store(hashTomb)
		h.live--
		if len(tab.slots) > hashMinSlots && h.live < len(tab.slots)/8 {
			h.rehash()
		}
		return
	}
}

// rehash publishes a fresh table of the smallest power of two at least
// twice the live count, holding the live slots and no tombstones. It
// copies from a nil slot onwards, so no probe run is split across the
// array's end, and every run's rows keep their order. Caller holds the
// latch.
func (h *hashIndex) rehash() {
	n := hashMinSlots
	for n < 2*h.live {
		n *= 2
	}
	t := &hashTable{slots: make([]hashSlot, n)}
	mask := uint64(n - 1)
	old := h.tab.Load().slots
	start := 0
	for old[start].row.Load() != nil {
		start++
	}
	for k := range old {
		s := &old[(start+k)%len(old)]
		r := s.row.Load()
		if r == nil || r == hashTomb {
			continue
		}
		j := s.hash & mask
		for t.slots[j].row.Load() != nil {
			j = (j + 1) & mask
		}
		t.slots[j].hash = s.hash
		t.slots[j].row.Store(r)
	}
	h.used = h.live
	h.tab.Store(t)
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
		ix.hash = newHashIndex(ix.cols[0])
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

// insertFor files r under the key of v, one of r's live versions
// (no-op on a NULL component; see hashIndex.insert and rowBucket.add for
// fresh) and returns the skiplist node that now holds r — nil for a hash
// index or a NULL tuple. Caller holds the latch.
func (ix *secondaryIndex) insertFor(r *Row, v *rowVersion, fresh bool) *skipNode {
	vals := r.valsOf(v)
	if ix.kind == IndexHash {
		ix.hash.insert(vals, r, fresh)
		return nil
	}
	var buf [4]Value
	key, ok := tupleOf(buf[:0], ix.cols, vals)
	if !ok {
		return nil
	}
	return ix.skip.insert(key, v, r, fresh)
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
// moved. An ordered index widens the table's versions by a handle
// slot; the newest live version records its handle, moving into a
// wider copy first when it predates the index (Table.widen), which the
// group then reads its key from. An older
// version whose tuple its successor does not share gets the
// deferred-removal hint indexUpdate would have left, handle included,
// stamped with the table's watermark (no earlier than the commit that
// superseded it, and no earlier than anything queued), so GC drops it
// once no reader can need it. Caller holds ddlMu and the table latch;
// name/columns are validated.
func (t *Table) addIndex(name string, cols []int, kind IndexKind) {
	ix := newSecondaryIndex(name, cols, kind)
	ixs := append(slices.Clone(t.loadIndexes()), ix)
	pos := len(ixs) - 1
	if kind == IndexOrdered {
		t.nh = len(ixs)
	}
	c := t.watermark.Load()
	for _, r := range t.rows.Load().snapshot() {
		var newer []Value
		for v := r.v.Load(); v != nil; v = v.prev.Load() {
			vals := r.valsOf(v)
			if vals == nil {
				continue
			}
			n := ix.insertFor(r, v, false)
			switch {
			case newer == nil:
				if n != nil {
					if int(r.nh) <= pos {
						v = t.widen(r, v)
						n.ver.Store(v)
					}
					r.handles(v)[pos].node = n
				}
			case !tupleEqualAt(vals, newer, ix.cols):
				t.gc.enqueue(gcItem{c: c, row: r, hash: ix.hash, skip: ix.skip, node: n, ver: v})
			}
			newer = vals
		}
	}
	t.storeIndexes(ixs)
}

// indexInsert registers a row's newest version under its keys in the PK
// and all secondary indexes, recording the version's handles. fresh
// marks a row this statement allocated (INSERT), which no index can
// hold yet; rollback passes false to re-register values whose entries
// GC may or may not have dropped, and a group still in place is
// re-pointed at the newest version, which holds its key, so it stops
// reading (and keeping) the one the rolled-back DELETE superseded.
// Caller holds the latch and has checked uniqueness.
func (t *Table) indexInsert(r *Row, fresh bool) {
	v := r.cur()
	vals := r.valsOf(v)
	if t.pkIx != nil {
		t.pkIx.insert(vals, r, fresh)
	}
	for i, ix := range t.loadIndexes() {
		if n := ix.insertFor(r, v, fresh); n != nil {
			r.handles(v)[i].node = n
			if !fresh {
				n.ver.Store(v)
			}
		}
	}
}

// indexUpdate registers a row's new keys after an update pushed nv over
// old, taking over old's handles. Old entries stay for older
// snapshots; each changed key enqueues a deferred removal hint for GC,
// which names the (immutable) old version instead of copying the key
// out and carries the old entry's handle. A group whose key did not
// move is re-pointed at nv, so it does not keep old alive once the
// chain lets go of it; a moved key's group keeps reading old, the
// version that holds its key. Caller holds the latch; c is the
// statement's commit number.
func (t *Table) indexUpdate(r *Row, nv, old *rowVersion, c uint64) {
	newVals, oldVals := r.valsOf(nv), r.valsOf(old)
	if t.pkIx != nil {
		pk := [1]int{t.pk}
		if oldOK, newOK, moved := keyMoved(pk[:], oldVals, newVals); moved {
			if newOK {
				t.pkIx.insert(newVals, r, false)
			}
			if oldOK {
				t.gc.enqueue(gcItem{c: c, row: r, hash: t.pkIx, ver: old})
			}
		}
	}
	for i, ix := range t.loadIndexes() {
		oldOK, newOK, moved := keyMoved(ix.cols, oldVals, newVals)
		if !moved {
			if n := r.node(nv, i); n != nil {
				n.ver.Store(nv)
			}
			continue
		}
		var n, prev *skipNode
		if newOK {
			n = ix.insertFor(r, nv, false)
		}
		if ix.kind == IndexOrdered {
			hs := r.handles(nv)
			prev, hs[i].node = hs[i].node, n
		}
		if oldOK {
			t.gc.enqueue(gcItem{c: c, row: r, hash: ix.hash, skip: ix.skip, node: prev, ver: old})
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
	var buf [1]*Row
	for _, r := range t.pkIx.lookup(v, tableView{t: t, writer: true}, buf[:0]) {
		if vals := r.curVals(); vals != nil && Equal(vals[t.pk], v) {
			return r, true
		}
	}
	return nil, false
}
