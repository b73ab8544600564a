package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Message is a fixed-layout payload that declares its layout once: its
// Fields method names every field, in wire order, to a Walker, which
// either appends the field to an Encoder or reads it from a Decoder
// into the field. Encoding and decoding are the same code, so the two
// cannot drift apart.
type Message interface {
	Fields(w Walker)
}

// Walker runs a Message's Fields one way: writing (it holds an
// Encoder) or reading (it holds a Decoder). Reading errors are the
// Decoder's sticky ones: a message is read in full and Err checked
// once. Every count a Walker reads goes through Decoder.Count.
type Walker struct {
	e *Encoder
	d *Decoder
}

// Writing returns a Walker that appends each field to e.
func Writing(e *Encoder) Walker { return Walker{e: e} }

// Reading returns a Walker that reads each field from d.
func Reading(d *Decoder) Walker { return Walker{d: d} }

// Marshal encodes m into a payload of its own, in a 64-byte buffer that
// a larger payload grows. Marshal is small enough to inline, so where
// m's type is known the call to Fields is static and m stays on the
// stack.
func Marshal(m Message) []byte {
	e := Encoder{buf: make([]byte, 0, 64)}
	m.Fields(Walker{e: &e})
	return e.buf
}

// Unmarshal decodes payload b into m. Bytes behind the last field m
// declares are left unread: a frame grows by trailing fields, which an
// older reader skips. Strings equal to m's current ones keep them (see
// Walker.String). Like Marshal it inlines, so where m's type is known
// m stays on the stack, and so does the Decoder unless Fields hands the
// Walker to a function value (Slice, Value and Nested do).
func Unmarshal(b []byte, m Message) error {
	d := Decoder{buf: b}
	m.Fields(Walker{d: &d})
	return d.err
}

// Uint8 walks one byte.
func (w Walker) Uint8(v *uint8) {
	if w.e != nil {
		w.e.Uint8(*v)
		return
	}
	*v = w.d.Uint8()
}

// Bool walks a flag byte. Reading refuses a byte other than 0 or 1, so
// a message has exactly one encoding.
func (w Walker) Bool(v *bool) {
	if w.e != nil {
		w.e.Bool(*v)
		return
	}
	b := w.d.Uint8()
	if b > 1 {
		w.d.fail(fmt.Errorf("wire: flag byte 0x%02x at offset %d is neither 0 nor 1", b, w.d.off-1))
	}
	*v = b == 1
}

// Uint16 walks a big-endian 16-bit integer.
func (w Walker) Uint16(v *uint16) {
	if w.e != nil {
		w.e.Uint16(*v)
		return
	}
	*v = w.d.Uint16()
}

// Uint32 walks a big-endian 32-bit integer.
func (w Walker) Uint32(v *uint32) {
	if w.e != nil {
		w.e.Uint32(*v)
		return
	}
	*v = w.d.Uint32()
}

// Uint64 walks a big-endian 64-bit integer.
func (w Walker) Uint64(v *uint64) {
	if w.e != nil {
		w.e.Uint64(*v)
		return
	}
	*v = w.d.Uint64()
}

// Duration walks a time.Duration as nanoseconds.
func (w Walker) Duration(v *time.Duration) {
	if w.e != nil {
		w.e.Duration(*v)
		return
	}
	*v = w.d.Duration()
}

// String walks a length-prefixed string. Reading keeps the field's
// current value when the bytes equal it (Decoder.StringLike), so a
// message decoded over the previous one reuses the strings a peer
// repeats.
func (w Walker) String(v *string) {
	if w.e != nil {
		w.e.String(*v)
		return
	}
	*v = w.d.StringLike(*v)
}

// StringSlice walks a count-prefixed slice of strings.
func (w Walker) StringSlice(v *[]string) {
	if w.e != nil {
		w.e.StringSlice(*v)
		return
	}
	*v = w.d.StringSlice()
}

// Tail walks the start of a trailing extension: the fields a frame
// gained after peers had shipped, which older writers leave off. It
// reports whether the extension is there — when writing, present (the
// extension is written only then); when reading, whether any payload
// remains.
func (w Walker) Tail(present bool) bool {
	if w.e != nil {
		return present
	}
	return w.d.Remaining() > 0
}

// Int32 walks an int field, or an enum over one, as a big-endian
// signed 32-bit integer.
func Int32[T ~int | ~int32](w Walker, v *T) {
	if w.e != nil {
		w.e.Int32(int32(*v))
		return
	}
	*v = T(w.d.Int32())
}

// Slice walks a count-prefixed slice, each element by elem. Reading
// takes the count through Decoder.Count, each element at least
// minElemBytes of the payload, and refuses a count above limit before
// the slice is sized. It reads into *s's own array when that has room
// for the count, so a message decoded over one still held starts its
// slices at nil; a zero count leaves *s empty, and nil if it was nil.
func Slice[T any](w Walker, s *[]T, minElemBytes, limit int, elem func(Walker, *T)) {
	if w.e != nil {
		w.e.Uint32(uint32(len(*s)))
		for i := range *s {
			elem(w, &(*s)[i])
		}
		return
	}
	n := w.d.Count(minElemBytes)
	if n > limit {
		w.d.fail(fmt.Errorf("wire: count %d exceeds its limit of %d", n, limit))
		n = 0
	}
	if n > cap(*s) {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
	}
	for i := 0; i < n && w.d.err == nil; i++ {
		elem(w, &(*s)[i])
	}
}

// Value walks one field of a type wire does not know (a SQL value) by
// that type's own codec: enc appends it, dec reads it, and an error
// dec returns becomes the Decoder's.
func Value[T any](w Walker, v *T, enc func(*Encoder, T), dec func(*Decoder) (T, error)) {
	if w.e != nil {
		enc(w.e, *v)
		return
	}
	x, err := dec(w.d)
	if err != nil {
		w.d.fail(err)
	}
	*v = x
}

// Nested walks a length-prefixed field: a payload of its own, which
// fields declares (a batch's result sets). Writing reserves the 4-byte
// length and fills it in behind the body. Reading runs fields over
// exactly the body's bytes and refuses a body they leave bytes of, so a
// nested payload, too, has one encoding.
func Nested[T any](w Walker, v *T, fields func(Walker, *T)) {
	if w.e != nil {
		at := len(w.e.buf)
		w.e.Uint32(0)
		fields(w, v)
		binary.BigEndian.PutUint32(w.e.buf[at:], uint32(len(w.e.buf)-at-4))
		return
	}
	d := w.d
	n := d.Count(1)
	if d.err != nil {
		return
	}
	end, whole := d.off+n, d.buf
	d.buf = d.buf[:end]
	fields(w, v)
	if d.err == nil && d.off != end {
		d.fail(fmt.Errorf("wire: %d bytes of a nested payload left unread", end-d.off))
	}
	d.buf = whole
}
