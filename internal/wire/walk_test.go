package wire

import (
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
