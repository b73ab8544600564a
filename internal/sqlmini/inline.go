package sqlmini

import "math/bits"

// inlineBuf is an append-only list that holds its first few elements by
// value, so a plan or write context carrying one copies as a value and
// stays on the stack without allocating; a longer list spills to one
// slice. The zero value is empty.
type inlineBuf[T any] struct {
	n     int
	small [4]T
	more  []T
}

func (b *inlineBuf[T]) add(v T) {
	switch {
	case b.more != nil:
		b.more = append(b.more, v)
	case b.n < len(b.small):
		b.small[b.n] = v
		b.n++
	default:
		b.more = make([]T, b.n, 2*b.n)
		copy(b.more, b.small[:])
		b.more = append(b.more, v)
	}
}

// all returns the elements, aliasing b: valid until b changes.
func (b *inlineBuf[T]) all() []T {
	if b.more != nil {
		return b.more
	}
	return b.small[:b.n]
}

func (b *inlineBuf[T]) len() int {
	if b.more != nil {
		return len(b.more)
	}
	return b.n
}

// bitSet is a set of small non-negative integers — the planner's
// consumed conjuncts and used bounds: one word inline, a slice past 64.
type bitSet struct {
	small [1]uint64
	more  []uint64
}

func newBitSet(n int) bitSet {
	if n > 64 {
		return bitSet{more: make([]uint64, (n+63)/64)}
	}
	return bitSet{}
}

func (s *bitSet) words() []uint64 {
	if s.more != nil {
		return s.more
	}
	return s.small[:]
}

func (s *bitSet) add(i int) { s.words()[i/64] |= 1 << (i % 64) }

func (s *bitSet) has(i int) bool { return s.words()[i/64]&(1<<(i%64)) != 0 }

func (s *bitSet) clear() { clear(s.words()) }

func (s *bitSet) count() int {
	n := 0
	for _, w := range s.words() {
		n += bits.OnesCount64(w)
	}
	return n
}
