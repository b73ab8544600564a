package wire

import (
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

type walkEnum int32

// walkAll declares one field of every kind a Walker has, plus a
// trailing extension.
type walkAll struct {
	U8    uint8
	B     bool
	U16   uint16
	U32   uint32
	U64   uint64
	D     time.Duration
	S     string
	SS    []string
	I     int
	E     walkEnum
	Elems []uint32
	Ext   uint16 // trailing; written only when non-zero
}

func (m *walkAll) Fields(w Walker) {
	w.Uint8(&m.U8)
	w.Bool(&m.B)
	w.Uint16(&m.U16)
	w.Uint32(&m.U32)
	w.Uint64(&m.U64)
	w.Duration(&m.D)
	w.String(&m.S)
	w.StringSlice(&m.SS)
	Int32(w, &m.I)
	Int32(w, &m.E)
	Slice(w, &m.Elems, 4, 3, Walker.Uint32)
	if w.Tail(m.Ext != 0) {
		w.Uint16(&m.Ext)
	}
}

func TestWalkerRoundTrip(t *testing.T) {
	in := walkAll{U8: 1, B: true, U16: 2, U32: 3, U64: 4, D: -5 * time.Second, S: "six",
		SS: []string{"seven"}, I: -8, E: 9, Elems: []uint32{10, 11}, Ext: 12}
	b := Marshal(&in)
	var out walkAll
	if err := Unmarshal(b, &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v, %v; want %+v", out, err, in)
	}
	// The extension is left off when absent, and reads back as absent.
	in.Ext = 0
	short := Marshal(&in)
	if len(short) != len(b)-2 {
		t.Fatalf("an absent extension took %d bytes", len(short)-len(b)+2)
	}
	out = walkAll{}
	if err := Unmarshal(short, &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip without the extension: %+v, %v", out, err)
	}
	// Truncated anywhere before the extension, the message is refused.
	for n := 0; n < len(short); n++ {
		if err := Unmarshal(short[:n], &walkAll{}); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("a %d-byte truncation: err %v", n, err)
		}
	}
}

// TestWalkerKeepsRepeatedStrings: decoding over a message keeps each
// string whose bytes are unchanged.
func TestWalkerKeepsRepeatedStrings(t *testing.T) {
	b := Marshal(&walkAll{S: "same"})
	prev := walkAll{S: strings.Clone("same")}
	m := prev
	if err := Unmarshal(b, &m); err != nil || unsafe.StringData(m.S) != unsafe.StringData(prev.S) {
		t.Fatalf("a repeated string was copied (err %v)", err)
	}
}

// TestWalkerRefusesNonCanonicalFlag: a flag byte is 0 or 1, so every
// message has one encoding.
func TestWalkerRefusesNonCanonicalFlag(t *testing.T) {
	b := Marshal(&walkAll{})
	b[1] = 2 // the Bool
	if err := Unmarshal(b, &walkAll{}); err == nil || !strings.Contains(err.Error(), "flag byte") {
		t.Fatalf("flag byte 2 accepted: %v", err)
	}
}

// TestWalkerSliceCounts: a slice's count goes through Decoder.Count, so
// one the payload cannot back is refused, and one above the declared
// limit is refused before the slice is sized.
func TestWalkerSliceCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count uint32
		elems int
		want  string
	}{
		{"unbacked", 0xFFFFFFF0, 0, "exceeds the"},
		{"over the limit", 4, 4, "exceeds its limit"},
	} {
		e := NewEncoder(64)
		e.Uint32(tc.count)
		for i := 0; i < tc.elems; i++ {
			e.Uint32(uint32(i))
		}
		var elems []uint32
		d := NewDecoder(e.Bytes())
		Slice(Reading(d), &elems, 4, 3, Walker.Uint32)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), tc.want) || elems != nil {
			t.Fatalf("%s: %d elements, err %v; want a refusal naming %q", tc.name, len(elems), err, tc.want)
		}
	}
}

// walkNested holds a nested payload and a value walked by its own
// codec: an int16 carried in four bytes, which refuses a negative one.
type walkNested struct {
	Inner uint16
	V     int16
	After uint8
}

func encodeInt16(e *Encoder, v int16) { e.Uint32(uint32(v)) }

func decodeInt16(d *Decoder) (int16, error) {
	v := int32(d.Uint32())
	if v < 0 {
		return 0, errors.New("negative")
	}
	return int16(v), nil
}

func (m *walkNested) Fields(w Walker) {
	Nested(w, &m.Inner, Walker.Uint16)
	Value(w, &m.V, encodeInt16, decodeInt16)
	w.Uint8(&m.After)
}

// TestWalkerNestedAndValue: a nested payload goes behind its 4-byte
// length and must be read in full; a value's own codec runs both ways,
// and its decoding error becomes the Decoder's.
func TestWalkerNestedAndValue(t *testing.T) {
	in := walkNested{Inner: 0x0102, V: 7, After: 9}
	b := Marshal(&in)
	const want = "00000002" + "0102" + "00000007" + "09"
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("encoded %s, want %s", got, want)
	}
	var out walkNested
	if err := Unmarshal(b, &out); err != nil || out != in {
		t.Fatalf("round trip: %+v, %v; want %+v", out, err, in)
	}
	for n := 0; n < len(b); n++ {
		if err := Unmarshal(b[:n], &walkNested{}); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("a %d-byte truncation: err %v", n, err)
		}
	}
	// A body its fields do not read in full is refused.
	long, _ := hex.DecodeString("00000003" + "010203" + "00000007" + "09")
	if err := Unmarshal(long, &walkNested{}); err == nil || !strings.Contains(err.Error(), "left unread") {
		t.Fatalf("a nested payload with a byte left over: err %v", err)
	}
	b[6] = 0x80 // V's top byte: negative
	if err := Unmarshal(b, &walkNested{}); err == nil || err.Error() != "negative" {
		t.Fatalf("the value codec's refusal: err %v", err)
	}
}

// TestWalkerSliceReadsInPlace: a slice reads into its own array when
// that has room, and a zero count leaves it empty but not nil.
func TestWalkerSliceReadsInPlace(t *testing.T) {
	var buf [4]uint32
	m := walkAll{Elems: buf[:0]}
	if err := Unmarshal(Marshal(&walkAll{Elems: []uint32{1, 2}}), &m); err != nil ||
		len(m.Elems) != 2 || &m.Elems[0] != &buf[0] || buf[1] != 2 {
		t.Fatalf("decoded %v (err %v) beside its array %v", m.Elems, err, buf)
	}
	m.Elems = buf[:0]
	if err := Unmarshal(Marshal(&walkAll{}), &m); err != nil || m.Elems == nil || len(m.Elems) != 0 {
		t.Fatalf("a zero count read as %#v, %v", m.Elems, err)
	}
}
