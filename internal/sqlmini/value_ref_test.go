package sqlmini

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// refValue is the 96-byte Value this package used before the tagged
// form — every field inline — kept as the reference FuzzValueCompare
// holds the tagged form to, less the DOUBLE type and the numeric
// comparisons the dialect has since dropped.
type refValue struct {
	typ   Type
	i     int64
	s     string
	b     []byte
	t     time.Time
	isSet bool
}

func (v refValue) Type() Type {
	if !v.isSet {
		return TypeNull
	}
	return v.typ
}

func (v refValue) Int() int64 {
	switch v.Type() {
	case TypeInteger, TypeBigint, TypeBoolean:
		return v.i
	case TypeVarchar:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n
	case TypeTimestamp:
		return v.t.UnixNano()
	default:
		return 0
	}
}

func (v refValue) Str() string {
	switch v.Type() {
	case TypeVarchar:
		return v.s
	case TypeInteger, TypeBigint:
		return strconv.FormatInt(v.i, 10)
	case TypeBoolean:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case TypeBlob:
		return string(v.b)
	case TypeTimestamp:
		return v.t.UTC().Format(time.RFC3339Nano)
	default:
		return ""
	}
}

func (v refValue) Bytes() []byte {
	switch v.Type() {
	case TypeBlob:
		return v.b
	case TypeVarchar:
		return []byte(v.s)
	default:
		return nil
	}
}

func (v refValue) Time() time.Time {
	switch v.Type() {
	case TypeTimestamp:
		return v.t
	case TypeInteger, TypeBigint:
		return time.Unix(0, v.i).UTC()
	case TypeVarchar:
		if t, err := time.Parse(time.RFC3339Nano, v.s); err == nil {
			return t
		}
		return time.Time{}
	default:
		return time.Time{}
	}
}

func (v refValue) Bool() bool {
	switch v.Type() {
	case TypeBoolean, TypeInteger, TypeBigint:
		return v.i != 0
	case TypeVarchar:
		return strings.EqualFold(v.s, "true")
	default:
		return false
	}
}

func refCompare(a, b refValue) (int, bool) {
	if !a.isSet || !b.isSet {
		return 0, false
	}
	at, bt := a.Type(), b.Type()
	switch {
	case numericType(at) && numericType(bt):
		return cmpInt(a.Int(), b.Int()), true
	case at == TypeTimestamp || bt == TypeTimestamp:
		ta, tb := a.Time(), b.Time()
		switch {
		case ta.Before(tb):
			return -1, true
		case ta.After(tb):
			return 1, true
		default:
			return 0, true
		}
	case at == TypeBlob && bt == TypeBlob:
		return strings.Compare(string(a.b), string(b.b)), true
	default:
		return strings.Compare(a.Str(), b.Str()), true
	}
}

func refCoerce(v refValue, t Type) (refValue, error) {
	if !v.isSet {
		return refValue{}, nil
	}
	switch t {
	case TypeInteger, TypeBigint:
		return refValue{typ: t, i: v.Int(), isSet: true}, nil
	case TypeVarchar:
		return refValue{typ: TypeVarchar, s: v.Str(), isSet: true}, nil
	case TypeBlob:
		b := v.Bytes()
		if b == nil {
			return refValue{}, fmt.Errorf("cannot coerce %s to BLOB", v.Type())
		}
		return refValue{typ: TypeBlob, b: b, isSet: true}, nil
	case TypeTimestamp:
		ts := v.Time()
		if ts.IsZero() && v.Type() == TypeVarchar {
			return refValue{}, fmt.Errorf("cannot parse %q as TIMESTAMP", v.Str())
		}
		return refValue{typ: TypeTimestamp, t: ts, isSet: true}, nil
	case TypeBoolean:
		i := int64(0)
		if v.Bool() {
			i = 1
		}
		return refValue{typ: TypeBoolean, i: i, isSet: true}, nil
	default:
		return refValue{}, fmt.Errorf("unknown column type %v", t)
	}
}

// representable reports whether the tagged form can hold t as a
// TIMESTAMP: the zero time, or an instant whose Unix nanoseconds fit an
// int64 other than the zero time's own math.MinInt64.
func representable(t time.Time) bool {
	ns := t.UnixNano()
	return t.IsZero() || (ns != math.MinInt64 && time.Unix(0, ns).Equal(t))
}

var fuzzZones = []*time.Location{time.UTC, time.FixedZone("IST", 5*3600+1800), time.FixedZone("PDT", -7*3600)}

// fuzzPair builds the same SQL value in both forms. A timestamp is the
// instant at i Unix nanoseconds in one of three zones, or the zero time
// for i = math.MinInt64 (the one word the two share).
func fuzzPair(k uint8, i int64, s string) (Value, refValue) {
	switch k % 6 {
	case 1:
		return NewInt(i), refValue{typ: TypeBigint, i: i, isSet: true}
	case 2:
		return NewString(s), refValue{typ: TypeVarchar, s: s, isSet: true}
	case 3:
		return NewBytes([]byte(s)), refValue{typ: TypeBlob, b: []byte(s), isSet: true}
	case 4:
		ts := time.Unix(0, i).In(fuzzZones[int(k/6)%len(fuzzZones)])
		if i == math.MinInt64 {
			ts = time.Time{}
		}
		return NewTime(ts), refValue{typ: TypeTimestamp, t: ts, isSet: true}
	case 5:
		return NewBool(i&1 == 1), refValue{typ: TypeBoolean, i: i & 1, isSet: true}
	default:
		return Null, refValue{}
	}
}

// agree fails unless v and r are the same SQL value by every reader
// FuzzValueCompare covers.
func agree(t *testing.T, what string, v Value, r refValue) {
	t.Helper()
	if v.Type() != r.Type() || v.Str() != r.Str() {
		t.Fatalf("%s: type/Str %v %q, reference %v %q", what, v.Type(), v.Str(), r.Type(), r.Str())
	}
	if vb, rb := v.Bytes(), r.Bytes(); !bytes.Equal(vb, rb) || (vb == nil) != (rb == nil) {
		t.Fatalf("%s: Bytes %v, reference %v", what, vb, rb)
	}
}

// FuzzValueCompare holds the tagged Value to the 96-byte reference on
// random pairs of every kind: Compare, Equal, Str (the hash key), Bytes and
// Coerce to every column type agree — except that Coerce refuses a
// TIMESTAMP the tagged form cannot hold, where the reference kept it.
// The seed corpus runs as part of plain `go test`.
func FuzzValueCompare(f *testing.F) {
	f.Add(uint8(1), uint8(5), int64(0), int64(0), "", "")
	f.Add(uint8(1), uint8(2), int64(5), int64(0), "", "5")
	f.Add(uint8(1), uint8(1), int64(1)<<53+1, int64(1)<<53, "", "")
	f.Add(uint8(2), uint8(1), int64(0), int64(9), " 10", "")
	f.Add(uint8(2), uint8(3), int64(0), int64(0), "ab", "aa")
	f.Add(uint8(2), uint8(4), int64(0), int64(1), "1970-01-01T00:00:00.000000001Z", "")
	f.Add(uint8(2), uint8(4), int64(0), int64(0), "9999-12-31T23:59:59Z", "")
	f.Add(uint8(10), uint8(16), int64(math.MinInt64), int64(math.MaxInt64), "", "")
	f.Add(uint8(4), uint8(1), int64(-1), int64(-1), "", "")
	f.Add(uint8(5), uint8(0), int64(1), int64(0), "", "")
	f.Add(uint8(3), uint8(3), int64(0), int64(0), "", "x")
	f.Add(uint8(2), uint8(5), int64(0), int64(1), "TRUE", "")
	// The edges of the tag scheme: an empty VARCHAR and an empty BLOB
	// point at a sentinel, not nil, and must not read as NULL; the zero
	// TIMESTAMP's word is math.MinInt64; the integer extremes are words
	// like any other; and the VARCHAR "3" is not the INTEGER 3's word.
	f.Add(uint8(2), uint8(3), int64(0), int64(0), "", "")
	f.Add(uint8(3), uint8(0), int64(0), int64(0), "", "")
	f.Add(uint8(4), uint8(4), int64(math.MinInt64), int64(0), "", "")
	f.Add(uint8(4), uint8(2), int64(math.MinInt64), int64(0), "", "")
	f.Add(uint8(1), uint8(1), int64(math.MinInt64), int64(math.MaxInt64), "", "")
	f.Add(uint8(2), uint8(1), int64(0), int64(3), "3", "")

	types := []Type{TypeInteger, TypeBigint, TypeVarchar, TypeBlob, TypeTimestamp, TypeBoolean}
	f.Fuzz(func(t *testing.T, ka, kb uint8, ia, ib int64, sa, sb string) {
		a, ra := fuzzPair(ka, ia, sa)
		b, rb := fuzzPair(kb, ib, sb)
		agree(t, "a", a, ra)
		agree(t, "b", b, rb)
		c, ok := Compare(a, b)
		rc, rok := refCompare(ra, rb)
		if c != rc || ok != rok {
			t.Fatalf("Compare(%s, %s) = %d,%v; reference %d,%v", a, b, c, ok, rc, rok)
		}
		if pc, pok := comparePtr(&a, &b); pc != rc || pok != rok {
			t.Fatalf("comparePtr(%s, %s) = %d,%v; reference %d,%v", a, b, pc, pok, rc, rok)
		}
		if Equal(a, b) != (rok && rc == 0) {
			t.Fatalf("Equal(%s, %s) disagrees with the reference", a, b)
		}
		for _, typ := range types {
			cv, err := Coerce(a, typ)
			rv, rerr := refCoerce(ra, typ)
			switch {
			case err != nil && rerr == nil:
				if typ != TypeTimestamp || representable(rv.t) {
					t.Fatalf("Coerce(%s, %v): %v; the reference accepts it", a, typ, err)
				}
			case err == nil && rerr != nil:
				t.Fatalf("Coerce(%s, %v) accepted what the reference refuses: %v", a, typ, rerr)
			case err == nil:
				agree(t, fmt.Sprintf("Coerce(%s, %v)", a, typ), cv, rv)
			}
		}
	})
}

// TestValueSize pins the tagged form: a lease row holds nine Values
// per version, and every skiplist node a copy of its key. (It was 24
// bytes while the type took a word of its own.)
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 16 {
		t.Fatalf("sqlmini.Value is %d bytes, want at most 16", n)
	}
}

// TestTimestampRange: a TIMESTAMP either round-trips as an instant, read
// back in UTC, or is refused at Coerce — through Coerce, a table
// column and the snapshot/wire value encoding alike. Nothing wraps.
// What round-trips is exactly what wire.Encoder.Time/Decoder.Time carry.
func TestTimestampRange(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE ts (id INTEGER NOT NULL PRIMARY KEY, at TIMESTAMP)")
	cases := []struct {
		name string
		in   time.Time
		ok   bool
	}{
		{"zero time", time.Time{}, true},
		{"lowest int64 nanosecond", time.Unix(0, math.MinInt64), false}, // the zero time's word
		{"lowest representable", time.Unix(0, math.MinInt64+1), true},
		{"highest int64 nanosecond", time.Unix(0, math.MaxInt64), true},
		{"one past the highest", time.Unix(0, math.MaxInt64).Add(time.Nanosecond), false},
		{"year 9999", time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), false},
		{"non-UTC instant", time.Date(2026, 10, 15, 9, 30, 0, 123, time.FixedZone("CEST", 2*3600)), true},
	}
	for i, tc := range cases {
		in := NewTime(tc.in)
		cv, err := Coerce(in, TypeTimestamp)
		_, insErr := db.Exec("INSERT INTO ts (id, at) VALUES ($id, $at)", Args{"id": i, "at": tc.in})
		if !tc.ok {
			if err == nil || insErr == nil {
				t.Errorf("%s: Coerce %v, INSERT %v; want both refused", tc.name, err, insErr)
			}
			epoch := time.Unix(0, 0)
			if c, ok := Compare(in, NewTime(epoch)); !ok || c != tc.in.Compare(epoch) {
				t.Errorf("%s: does not compare with a TIMESTAMP as the instant it names", tc.name)
			}
			continue
		}
		if err != nil || insErr != nil {
			t.Fatalf("%s: Coerce %v, INSERT %v", tc.name, err, insErr)
		}
		res := db.MustExec("SELECT at FROM ts WHERE id = ?", i)
		e := wire.NewEncoder(16)
		EncodeValue(e, cv)
		dec, derr := DecodeValue(wire.NewDecoder(e.Bytes()))
		w := wire.NewEncoder(8)
		w.Time(tc.in)
		for via, got := range map[string]time.Time{
			"Coerce": cv.Time(), "table": res.Rows[0][0].Time(), "value codec": dec.Time(),
			"wire.Decoder.Time": wire.NewDecoder(w.Bytes()).Time(),
		} {
			if !got.Equal(tc.in) || got.Location() != time.UTC || derr != nil {
				t.Errorf("%s via %s: read back %v (%v), want the instant %v in UTC", tc.name, via, got, got.Location(), tc.in)
			}
		}
	}
}
