package sqlmini

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hashKeyPool holds keys of every Value type, chosen so that distinct
// values share a tupleKey across types: the integer 3, the DOUBLE 3.0,
// the VARCHAR "3" and the BLOB "3" are one key, as are 0, 0.0 and
// -0.0; "03", "-0" and the out-of-range "9223372036854775808" are not
// integers and stay strings.
var hashKeyPool = []Value{
	NewInt(0), NewInt(3), NewInt(-3), scalar(TypeInteger, 3),
	NewInt(math.MaxInt64), NewInt(math.MinInt64), NewInt(1 << 53),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(3), NewFloat(-3),
	NewFloat(2.5), NewFloat(1e21), NewFloat(math.NaN()),
	NewString("3"), NewString(""), NewString("-0"), NewString("03"),
	NewString("abc"), NewString("9223372036854775807"),
	NewString("9223372036854775808"), NewString("-9223372036854775808"),
	NewString("1:a"), NewString("TRUE"),
	NewBytes([]byte("3")), NewBytes([]byte("abc")),
	NewBool(true), NewBool(false),
	NewTime(time.Unix(0, 0)), NewTime(time.Unix(5, 0)),
}

// hashRef is the map FuzzHashIndex holds a hashIndex to: each key's
// rows in insertion order, keyed by tupleKey, with the tuple that first
// filed the key.
type hashRef map[string]*hashRefKey

type hashRefKey struct {
	key  []Value
	rows []*Row
}

func (ref hashRef) rows(key []Value) []*Row {
	if e := ref[tupleKey(key)]; e != nil {
		return e.rows
	}
	return nil
}

func (ref hashRef) add(key []Value, r *Row) {
	ks := tupleKey(key)
	if ref[ks] == nil {
		ref[ks] = &hashRefKey{key: key}
	}
	if e := ref[ks]; !slices.Contains(e.rows, r) {
		e.rows = append(e.rows, r)
	}
}

func (ref hashRef) remove(key []Value, r *Row) {
	ks := tupleKey(key)
	if e := ref[ks]; e != nil {
		e.rows = slices.DeleteFunc(slices.Clone(e.rows), func(x *Row) bool { return x == r })
		if len(e.rows) == 0 {
			delete(ref, ks)
		}
	}
}

// hashConsistent checks h against ref exactly — the same keys, each
// with the same rows in the same order, through both each and lookup —
// and the table's bookkeeping: the live and used counts, the load
// ceiling every probe relies on, and the shrink floor.
func hashConsistent(t *testing.T, h *hashIndex, ref hashRef, probes [][]Value) {
	t.Helper()
	seen := map[string]bool{}
	h.each(func(key string, rows []*Row) {
		if seen[key] {
			t.Fatalf("key %q filed twice", key)
		}
		seen[key] = true
		if e := ref[key]; e == nil || !slices.Equal(rows, e.rows) {
			t.Fatalf("key %q is not filed in the reference as it is in the index", key)
		}
	})
	if len(seen) != len(ref) || h.live != len(ref) {
		t.Fatalf("%d keys filed, live count %d, reference %d", len(seen), h.live, len(ref))
	}
	tab := h.tab.Load()
	used := 0
	for i := range tab.slots {
		if tab.slots[i].Load() != nil {
			used++
		}
	}
	n := len(tab.slots)
	switch {
	case used != h.used:
		t.Fatalf("%d slots in use, counted %d", used, h.used)
	case used > n/4*3:
		t.Fatalf("%d of %d slots in use, over the load ceiling", used, n)
	case n > hashMinSlots && h.live < n/8:
		t.Fatalf("%d live keys in %d slots, under the shrink floor", h.live, n)
	}
	for _, key := range probes {
		if got, want := h.lookup(key), ref.rows(key); !slices.Equal(got, want) {
			t.Fatalf("lookup(%v) = %d rows, reference %d", key, len(got), len(want))
		}
	}
}

// FuzzHashIndex runs fresh and non-fresh inserts, removals, lookups,
// FIFO churn (the reaper's pattern: integer keys filed in order, the
// oldest removed, leaving tombstones) and remove-everything shrinks on
// a one-column and a two-column hash index against hashRef, and checks
// both indexes after every step. Keys come from hashKeyPool, so every
// probe also runs across types (an integer against a DOUBLE or VARCHAR
// key that prints the same). The seed corpus runs as part of plain `go
// test`.
func FuzzHashIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 3, 0, 0, 0, 14, 0, 1, 3, 9, 0, 0, 2, 1, 0, 0, 3, 24, 0, 0})
	f.Add([]byte{4, 63, 8, 0, 4, 63, 31, 0, 3, 7, 0, 0, 4, 40, 2, 0, 5, 0, 0, 0})
	f.Add([]byte{4, 63, 31, 0, 5, 0, 0, 0}) // grow, then shrink by removals alone
	f.Add([]byte{0x80, 1, 14, 0, 0x80, 14, 1, 1, 0x81, 24, 3, 2, 0x83, 3, 24, 0, 0x82, 1, 14, 0, 0x85, 0, 0, 0})
	f.Add([]byte{0, 7, 0, 0, 0, 8, 0, 0, 1, 0, 0, 1, 2, 7, 0, 0, 3, 8, 0, 0, 4, 60, 0, 0, 4, 60, 0, 0, 5, 0, 0, 0, 0, 15, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		one, two := newHashIndex([]int{0}), newHashIndex([]int{0, 1})
		refs := map[*hashIndex]hashRef{one: {}, two: {}}
		rows := make([]*Row, 8)
		for i := range rows {
			rows[i] = &Row{}
		}
		var fifo [][2]any // churned (key, row) pairs, oldest first
		next := int64(1 << 40)
		probes := [][]Value{}
		for _, a := range hashKeyPool {
			probes = append(probes, []Value{a})
			for _, b := range hashKeyPool[:4] {
				probes = append(probes, []Value{a, b})
			}
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			h, key := one, []Value{hashKeyPool[int(ops[1])%len(hashKeyPool)]}
			if ops[0]&0x80 != 0 {
				h, key = two, append(key, hashKeyPool[int(ops[2])%len(hashKeyPool)])
			}
			ref := refs[h]
			r := rows[int(ops[3])%len(rows)]
			switch ops[0] & 7 {
			case 0: // fresh insert
				r = &Row{}
				rows = append(rows, r)
				h.insert(key, r, true)
				ref.add(key, r)
			case 1: // re-registration: add if absent
				h.insert(key, r, false)
				ref.add(key, r)
			case 2:
				h.remove(key, r)
				ref.remove(key, r)
			case 3:
				if got, want := h.lookup(key), ref.rows(key); !slices.Equal(got, want) {
					t.Fatalf("lookup(%v) = %d rows, reference %d", key, len(got), len(want))
				}
			case 4: // FIFO churn on the one-column index
				for range int(ops[1]) % 64 {
					k, r := []Value{NewInt(next)}, &Row{}
					next++
					one.insert(k, r, true)
					refs[one].add(k, r)
					fifo = append(fifo, [2]any{k, r})
					for len(fifo) > int(ops[2])%32 {
						k, r := fifo[0][0].([]Value), fifo[0][1].(*Row)
						fifo = fifo[1:]
						one.remove(k, r)
						refs[one].remove(k, r)
					}
				}
			case 5: // remove everything: the table shrinks back
				for _, e := range ref {
					for _, r := range e.rows {
						h.remove(e.key, r)
					}
				}
				clear(ref)
				if h == one {
					fifo = nil
				}
			}
			hashConsistent(t, one, refs[one], probes)
			hashConsistent(t, two, refs[two], probes)
		}
	})
}

// TestHashIndexLockFreeReaders is the memory-model argument for the
// flat table, run under -race: one writer (standing in for the
// table-latch holder) grows the table through several rehashes, churns
// tombstones through it and shrinks it back, round after round, while
// readers probe lock-free. Keys filed before the readers start are
// never removed, so every probe of one, whatever table it loads and
// however far the writer has got, must find exactly its row; a churned
// key is either absent or holds its own row.
func TestHashIndexLockFreeReaders(t *testing.T) {
	const stable, churn, rounds = 64, 3000, 8
	h := newHashIndex([]int{0})
	rowOf := map[int64]*Row{}
	for k := range int64(stable + churn) {
		rowOf[k] = &Row{}
	}
	for k := range int64(stable) {
		h.insert([]Value{NewInt(k)}, rowOf[k], true)
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
				if got := h.lookup([]Value{NewInt(k)}); len(got) != 1 || got[0] != rowOf[k] {
					t.Errorf("stable key %d: %d rows", k, len(got))
					return
				}
				k = stable + i%churn
				if got := h.lookup([]Value{NewString(NewInt(k).Str())}); len(got) > 1 || len(got) == 1 && got[0] != rowOf[k] {
					t.Errorf("churned key %d: %d rows, or another key's", k, len(got))
					return
				}
			}
		}()
	}
	grown, shrunk := 0, 0
	for range rounds {
		for k := int64(stable); k < stable+churn; k++ { // grow
			h.insert([]Value{NewInt(k)}, rowOf[k], true)
			if k%3 == 0 { // tombstones amid the growth
				h.remove([]Value{NewInt(k)}, rowOf[k])
				h.insert([]Value{NewInt(k)}, rowOf[k], true)
			}
		}
		grown = max(grown, len(h.tab.Load().slots))
		for k := int64(stable); k < stable+churn; k++ { // shrink
			h.remove([]Value{NewInt(k)}, rowOf[k])
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
// key, not even on one probe sequence with one hash, and no two
// strings of one length are one key unless their bytes are.
func TestHashKeyArms(t *testing.T) {
	for _, s := range []string{"", "abc", "lease-0001"} {
		str := hashKeyOf([]Value{NewString(s)})
		word := int64(uint64(TypeVarchar)<<lenBits | uint64(len(s)))
		num := hashKeyOf([]Value{NewInt(word)})
		if str.isInt() || !num.isInt() || str.w != num.w {
			t.Fatalf("%q: keys %+v and %+v are not one word in two arms", s, str, num)
		}
		if str.equal(num) || num.equal(str) {
			t.Fatalf("%q: the integer %d is taken for the string", s, word)
		}
		if !str.equal(hashKeyOf([]Value{NewString(strings.Clone(s))})) {
			t.Fatalf("%q: a copy of the string is another key", s)
		}
		h := newHashIndex([]int{0})
		r := &Row{}
		h.insert([]Value{NewInt(word)}, r, true)
		if _, e := h.find(h.tab.Load(), str, h.hashOf(num)); e != nil {
			t.Fatalf("%q: found under the integer's hash", s)
		}
		if got := h.lookup([]Value{NewString(s)}); len(got) != 0 {
			t.Fatalf("%q: lookup returned the integer key's %d rows", s, len(got))
		}
		if got := h.lookup([]Value{NewInt(word)}); len(got) != 1 || got[0] != r {
			t.Fatalf("%q: the integer key lost its row", s)
		}
	}
	if hashKeyOf([]Value{NewString("abc")}).equal(hashKeyOf([]Value{NewString("abd")})) {
		t.Fatal(`"abc" and "abd" are one key`)
	}
}
