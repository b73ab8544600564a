package sqlmini

import (
	"slices"
	"sort"
	"testing"
)

// skipKey maps k in [0, 16) to a two-column tuple (k/4, k%4), so the
// tuples sort as k does and a one-column probe covers four groups.
func skipKey(k int) []Value { return []Value{NewInt(int64(k / 4)), NewInt(int64(k % 4))} }

// skipRef is the sorted-slice reference FuzzSkipList holds a skiplist
// to: the group keys in order, and each group's rows in insertion order.
type skipRef struct {
	keys []int
	rows map[int][]*Row
}

func (ref *skipRef) add(k int, r *Row) {
	if _, ok := ref.rows[k]; !ok {
		i := sort.SearchInts(ref.keys, k)
		ref.keys = slices.Insert(ref.keys, i, k)
	}
	ref.rows[k] = append(ref.rows[k], r)
}

func (ref *skipRef) remove(k int, r *Row) {
	rows := ref.rows[k]
	i := slices.Index(rows, r)
	if i < 0 {
		return
	}
	if len(rows) == 1 {
		delete(ref.rows, k)
		ref.keys = slices.DeleteFunc(ref.keys, func(x int) bool { return x == k })
		return
	}
	ref.rows[k] = slices.Delete(rows, i, i+1)
}

// bound decodes an optional range bound over one key column: b%5 == 4
// is unbounded (NULL), anything else the value b%5.
func bound(b byte) (Value, int, bool) {
	if b%5 == 4 {
		return Value{}, 0, false
	}
	return NewInt(int64(b % 5)), int(b % 5), true
}

// FuzzSkipList runs random insert / remove-by-handle / seekGE /
// rangeRows sequences against skipRef and checks, after every step, the
// order, size and back links of every level (skipLinksConsistent), each
// group's rows, and that a handle marked linked is the one group linked
// under its key. A row still filed under a key must hold a linked
// handle there, since remove skips any other. The seed corpus runs as
// part of plain `go test`.
func FuzzSkipList(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 2, 2, 2, 1, 0, 2, 1, 1, 4, 0, 0})
	f.Add([]byte{0, 5, 3, 1, 5, 4, 0, 5, 4, 2, 5, 3, 2, 5, 4, 3, 1, 6, 4, 6, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 2, 0, 0, 2, 1, 0, 0, 1, 0, 4, 1, 3})
	f.Add([]byte{1, 7, 1, 0, 7, 2, 0, 8, 3, 2, 7, 2, 0, 7, 2, 2, 7, 2, 3, 1, 9, 4, 9, 2})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 2, 1, 0}) // a second removal through an unlinked handle
	f.Fuzz(func(t *testing.T, ops []byte) {
		sl := newSkipList([]int{0, 1})
		var pool [6]*Row
		for i := range pool {
			pool[i] = &Row{}
		}
		ref := &skipRef{rows: map[int][]*Row{}}
		handles := map[[2]int]*skipNode{} // (key, row) → node insert returned
		for ; len(ops) >= 3; ops = ops[3:] {
			op, x, y := ops[0]%5, ops[1], ops[2]
			k, ri := int(x)%16, int(y)%len(pool)
			r := pool[ri]
			switch op {
			case 0, 1:
				present := slices.Contains(ref.rows[k], r)
				n := sl.insert(skipKey(k), r, !present)
				if n.owner != sl || cmpKey(n.key, skipKey(k)) != 0 || !slices.Contains(n.rows.load(), r) {
					t.Fatalf("insert(%d) returned a node that is not the linked group holding the row", k)
				}
				handles[[2]int{k, ri}] = n
				if !present {
					ref.add(k, r)
				}
			case 2:
				h := handles[[2]int{k, ri}]
				if (h == nil || h.owner != sl) && slices.Contains(ref.rows[k], r) {
					t.Fatalf("row still filed under %d, but its handle is not linked", k)
				}
				sl.remove(h, r)
				ref.remove(k, r)
			case 3:
				probe, want := skipKey(k), k
				if y&1 == 1 { // one-column probe: the first group of k's leading value
					probe, want = probe[:1], k/4*4
				}
				i := sort.SearchInts(ref.keys, want)
				got := sl.seekGE(probe)
				switch {
				case i == len(ref.keys) && got != nil:
					t.Fatalf("seekGE(%v) = %v, want none", probe, got.key)
				case i < len(ref.keys) && (got == nil || cmpKey(got.key, skipKey(ref.keys[i])) != 0):
					t.Fatalf("seekGE(%v) missed group %d", probe, ref.keys[i])
				}
			case 4:
				var prefix []Value
				lo, loN, loOK := bound(x >> 3)
				hi, hiN, hiOK := bound(y >> 3)
				loStrict, hiStrict := x&4 != 0, y&4 != 0
				if x&2 != 0 {
					prefix = []Value{NewInt(int64(x % 4))}
				}
				var want []*Row
				for _, key := range ref.keys {
					c := key / 4 // the column the bounds apply to
					if prefix != nil {
						if key/4 != int(x%4) {
							continue
						}
						c = key % 4
					}
					if loOK && (c < loN || loStrict && c == loN) || hiOK && (c > hiN || hiStrict && c == hiN) {
						continue
					}
					want = append(want, ref.rows[key]...)
				}
				if got := sl.rangeRows(prefix, lo, loStrict, hi, hiStrict, nil); !slices.Equal(got, want) {
					t.Fatalf("rangeRows(%v, %v/%v, %v/%v) = %d rows, reference %d", prefix, lo, loStrict, hi, hiStrict, len(got), len(want))
				}
			}

			skipLinksConsistent(t, sl)
			linked := map[int]*skipNode{}
			i := 0
			sl.each(func(key []Value, rows []*Row) {
				if i >= len(ref.keys) || cmpKey(key, skipKey(ref.keys[i])) != 0 {
					t.Fatalf("group %d is %v, reference %v", i, key, ref.keys)
				}
				if !slices.Equal(rows, ref.rows[ref.keys[i]]) {
					t.Fatalf("group %v holds %d rows, reference %d", key, len(rows), len(ref.rows[ref.keys[i]]))
				}
				i++
			})
			for n := sl.head.next(0); n != nil; n = n.next(0) {
				linked[int(n.key[0].Int()*4+n.key[1].Int())] = n
			}
			if i != len(ref.keys) || sl.size != len(ref.keys) {
				t.Fatalf("%d groups linked, size %d, reference %d", i, sl.size, len(ref.keys))
			}
			for hk, h := range handles {
				if h.owner == sl && linked[hk[0]] != h {
					t.Fatalf("a handle for key %d is marked linked but is not the group linked there", hk[0])
				}
			}
		}
	})
}
