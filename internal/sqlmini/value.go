// Package sqlmini is a small embedded relational engine: typed tables, a
// SQL-subset parser and executor, expression evaluation, and undo-log
// transactions. It exists to give the reproduction a real SQL substrate —
// the Drivolution paper stores drivers in regular database tables and its
// server logic is literally SQL (Sample code 1 and 2), so the server in
// internal/core executes those statements against this engine.
//
// The dialect is what the programs of this tree issue, and no more:
// CREATE TABLE and CREATE INDEX; INSERT; SELECT with WHERE, ORDER BY,
// LIMIT and the two aggregates COUNT(*) and MAX(col); UPDATE; DELETE;
// BEGIN/COMMIT/ROLLBACK. Expressions compare with = <> < <= > >=,
// combine with AND/OR, add and subtract integers (+, -), and test with
// LIKE, IS [NOT] NULL and BETWEEN; values are INTEGER, BIGINT, VARCHAR,
// BLOB, TIMESTAMP and BOOLEAN literals or named ($name) and positional
// (?) parameters. The parser refuses by name what it does not have:
// scalar functions (now() among them: the engine has no clock, and a
// statement binds the time it means), other aggregates, DOUBLE values
// and decimal literals, * and /, IN, and unary NOT and minus. There is
// no DROP of any kind: a table, once created, keeps its name and its
// indexes for the database's life. Concurrency model: MVCC. Rows are immutable version
// chains; read-only statements run lock-free against a stable snapshot
// and never block writers, while writers serialize per table behind
// short latches (there is no engine-wide lock) and publish each
// statement's versions atomically. Multi-statement transactions use an
// undo log and are read-uncommitted at transaction granularity — each
// statement publishes when it completes, before COMMIT (sufficient for
// the substrate; documented trade-off). See the "Engine concurrency"
// section of docs/ARCHITECTURE.md for the full contract.
package sqlmini

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"repro/internal/wire"
)

// Type enumerates column/value types. The set mirrors the ANSI SQL types
// used by the paper's Table 1 and 2 definitions.
type Type int

// Supported SQL types. A type's number is also its value tag on the
// wire (EncodeValue).
const (
	TypeNull Type = iota + 1
	TypeInteger
	TypeBigint
	_ // 4 was DOUBLE: reserved, never reused; DecodeValue refuses it
	TypeVarchar
	TypeBlob
	TypeTimestamp
	TypeBoolean
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInteger:
		return "INTEGER"
	case TypeBigint:
		return "BIGINT"
	case TypeVarchar:
		return "VARCHAR"
	case TypeBlob:
		return "BLOB"
	case TypeTimestamp:
		return "TIMESTAMP"
	case TypeBoolean:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a dynamically typed SQL value in 16 bytes: a pointer that
// carries the type and one word. The zero Value is SQL NULL. A scalar
// (INTEGER, BIGINT, TIMESTAMP, BOOLEAN) keeps its word — an integer or
// boolean, or a timestamp's Unix nanoseconds
// (the zero time as math.MinInt64, as wire.Encoder.Time writes it) —
// and points p at its type's byte in tags. A VARCHAR or BLOB points p
// at its bytes, or at its type's byte in tags when it has none, and
// keeps its type in the word's top byte and its length below it. A
// pointer into tags is never a string's, so the type is tags' index
// when p is in tags and the word's top byte otherwise.
type Value struct {
	_ [0]func() // not comparable: == would compare p, not the bytes
	p unsafe.Pointer
	w uint64
}

// tags holds the byte each scalar type, each empty VARCHAR or BLOB and
// an unbound parameter slot point at; its index is the type.
var tags [typeUnbound + 1]byte

// lenBits is how many low bits of a VARCHAR's or BLOB's word hold its
// length; the type sits above them.
const lenBits = 56

// Null is the SQL NULL value.
var Null = Value{}

// zeroTime is the word of the zero TIMESTAMP.
const zeroTime = math.MinInt64

// scalar returns the value of type t whose word is w.
func scalar(t Type, w uint64) Value { return Value{p: unsafe.Pointer(&tags[t]), w: w} }

// sized returns the VARCHAR or BLOB (t) of n bytes at p.
func sized(t Type, p *byte, n int) Value {
	if n == 0 {
		p = &tags[t]
	}
	return Value{p: unsafe.Pointer(p), w: uint64(t)<<lenBits | uint64(n)}
}

// typ returns the value's type, 0 for NULL.
func (v Value) typ() Type {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&tags)); d < uintptr(len(tags)) {
		return Type(d)
	}
	if v.p == nil {
		return 0
	}
	return Type(v.w >> lenBits)
}

// NewInt returns an INTEGER/BIGINT value.
func NewInt(v int64) Value { return scalar(TypeBigint, uint64(v)) }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return sized(TypeVarchar, unsafe.StringData(v), len(v)) }

// NewBytes returns a BLOB value. The slice is retained, not copied;
// Bytes returns it capacity-clipped.
func NewBytes(v []byte) Value { return sized(TypeBlob, unsafe.SliceData(v), len(v)) }

// NewTime returns a TIMESTAMP value. It holds the instant, not the
// location, and reads back in UTC. An instant outside the int64
// nanosecond range (before 1678 or after 2262, bar the zero time) has
// no such form: it is kept as its RFC 3339 text, which still compares
// with a TIMESTAMP as the time it names and which Coerce refuses to
// store in a TIMESTAMP column — nothing wraps silently.
func NewTime(v time.Time) Value {
	ns := v.UnixNano()
	switch {
	case v.IsZero():
		ns = zeroTime
	case ns == zeroTime || !time.Unix(0, ns).Equal(v):
		return NewString(v.UTC().Format(time.RFC3339Nano))
	}
	return scalar(TypeTimestamp, uint64(ns))
}

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return scalar(TypeBoolean, 1)
	}
	return scalar(TypeBoolean, 0)
}

func (v Value) len() int     { return int(v.w & (1<<lenBits - 1)) }
func (v Value) str() string  { return unsafe.String((*byte)(v.p), v.len()) }
func (v Value) blob() []byte { return unsafe.Slice((*byte)(v.p), v.len()) }

// FromGo converts a native Go value into a Value. Supported kinds:
// nil, bool, integers, string, []byte, time.Time, time.Duration (as
// nanoseconds), and Value itself. A float64 is refused: the dialect
// has no DOUBLE.
func FromGo(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null, nil
	case Value:
		return x, nil
	case bool:
		return NewBool(x), nil
	case int:
		return NewInt(int64(x)), nil
	case int32:
		return NewInt(int64(x)), nil
	case int64:
		return NewInt(x), nil
	case uint32:
		return NewInt(int64(x)), nil
	case string:
		return NewString(x), nil
	case []byte:
		return NewBytes(x), nil
	case time.Time:
		return NewTime(x), nil
	case time.Duration:
		return NewInt(int64(x)), nil
	default:
		return Null, fmt.Errorf("sqlmini: unsupported Go type %T", v)
	}
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.p == nil }

// Type returns the value's type; NULL values report TypeNull.
func (v Value) Type() Type {
	if v.p == nil {
		return TypeNull
	}
	return v.typ()
}

// Int returns the value as int64 (0 for NULL). Strings parse
// best-effort.
func (v Value) Int() int64 {
	switch v.Type() {
	case TypeInteger, TypeBigint, TypeBoolean:
		return int64(v.w)
	case TypeVarchar:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.str()), 10, 64)
		return n
	case TypeTimestamp:
		return v.Time().UnixNano()
	default:
		return 0
	}
}

// Str returns the value as a string ("" for NULL).
func (v Value) Str() string {
	switch v.Type() {
	case TypeVarchar:
		return v.str()
	case TypeInteger, TypeBigint:
		return strconv.FormatInt(int64(v.w), 10)
	case TypeBoolean:
		if v.w != 0 {
			return "TRUE"
		}
		return "FALSE"
	case TypeBlob:
		return string(v.blob())
	case TypeTimestamp:
		return v.Time().Format(time.RFC3339Nano)
	default:
		return ""
	}
}

// Bytes returns the value as a byte slice (nil for NULL).
func (v Value) Bytes() []byte {
	switch v.Type() {
	case TypeBlob:
		return v.blob()
	case TypeVarchar:
		return []byte(v.str())
	default:
		return nil
	}
}

// Time returns the value as a time.Time (zero for NULL). Integer values
// are interpreted as Unix nanoseconds.
func (v Value) Time() time.Time {
	switch v.Type() {
	case TypeTimestamp:
		if int64(v.w) == zeroTime {
			return time.Time{}
		}
		fallthrough
	case TypeInteger, TypeBigint:
		return time.Unix(0, int64(v.w)).UTC()
	case TypeVarchar:
		if t, err := time.Parse(time.RFC3339Nano, v.str()); err == nil {
			return t
		}
		return time.Time{}
	default:
		return time.Time{}
	}
}

// Bool returns the value as a boolean. NULL is false.
func (v Value) Bool() bool {
	switch v.Type() {
	case TypeBoolean, TypeInteger, TypeBigint:
		return v.w != 0
	case TypeVarchar:
		return strings.EqualFold(v.str(), "true")
	default:
		return false
	}
}

// String implements fmt.Stringer for diagnostics.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.typ() {
	case TypeVarchar:
		return "'" + v.str() + "'"
	case TypeBlob:
		return fmt.Sprintf("x'%d bytes'", v.len())
	default:
		return v.Str()
	}
}

// numericType reports whether t participates in numeric comparison.
func numericType(t Type) bool {
	switch t {
	case TypeInteger, TypeBigint, TypeBoolean:
		return true
	default:
		return false
	}
}

// Compare orders two non-NULL values: -1, 0, +1. Comparing NULL with
// anything returns unknown=false via the (cmp, ok) second result.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
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
		return bytes.Compare(a.blob(), b.blob()), true
	default:
		return strings.Compare(a.Str(), b.Str()), true
	}
}

// comparePtr is Compare for values that live in a slice, where the
// index walks call it at every step: same-kind integers, timestamps
// (their words order as the instants do, the zero time first) and
// strings — what index columns hold — are compared where they sit, in
// one branch; anything else takes Compare's general path.
func comparePtr(a, b *Value) (int, bool) {
	at, bt := a.typ(), b.typ()
	switch {
	case at == 0 || bt == 0:
		return 0, false
	case intType(at) && intType(bt), at == TypeTimestamp && bt == TypeTimestamp:
		return cmpInt(int64(a.w), int64(b.w)), true
	case at == TypeVarchar && bt == TypeVarchar:
		return strings.Compare(a.str(), b.str()), true
	}
	return Compare(*a, *b)
}

func intType(t Type) bool { return t == TypeInteger || t == TypeBigint }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality; NULL = anything is false.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Like evaluates the SQL LIKE predicate with % (any run) and _ (any one
// rune) wildcards. Matching is case-insensitive, which matches how the
// paper uses LIKE for api/platform names ("JDBC" should match "jdbc").
// Case folds rune by rune with unicode.ToLower, as strings.ToLower
// does, and an invalid UTF-8 byte reads as one U+FFFD, as it does in a
// []rune conversion, so nothing is copied.
func Like(s, pattern string) bool {
	// Iterative two-pointer matcher with backtracking on the last '%';
	// indexes are byte offsets of rune starts.
	var si, pi int
	star, sBack := -1, 0
	for si < len(s) {
		sr, sw := lowerRune(s[si:])
		if pi < len(pattern) {
			pr, pw := lowerRune(pattern[pi:])
			switch {
			case pr == '_' || pr == sr:
				si += sw
				pi += pw
				continue
			case pr == '%':
				star = pi
				sBack = si
				pi += pw
				continue
			}
		}
		if star == -1 {
			return false
		}
		pi = star + 1 // past the one-byte '%'
		_, w := utf8.DecodeRuneInString(s[sBack:])
		sBack += w
		si = sBack
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// lowerRune decodes the first rune of s, folded to lower case, and its
// width in bytes.
func lowerRune(s string) (rune, int) {
	if c := s[0]; c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return rune(c), 1
	}
	r, w := utf8.DecodeRuneInString(s)
	return unicode.ToLower(r), w
}

// Coerce converts v to column type t, used on INSERT/UPDATE so stored
// rows are uniformly typed. NULL passes through.
func Coerce(v Value, t Type) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	switch t {
	case TypeInteger, TypeBigint:
		return scalar(t, uint64(v.Int())), nil
	case TypeVarchar:
		return NewString(v.Str()), nil
	case TypeBlob:
		b := v.Bytes()
		if b == nil {
			return Null, fmt.Errorf("sqlmini: cannot coerce %s to BLOB", v.Type())
		}
		return NewBytes(b), nil
	case TypeTimestamp:
		ts := v.Time()
		if ts.IsZero() && v.Type() == TypeVarchar {
			return Null, fmt.Errorf("sqlmini: cannot parse %q as TIMESTAMP", v.Str())
		}
		if tv := NewTime(ts); tv.typ() == TypeTimestamp {
			return tv, nil
		}
		return Null, fmt.Errorf("sqlmini: TIMESTAMP %s is outside the representable range", ts.Format(time.RFC3339Nano))
	case TypeBoolean:
		return NewBool(v.Bool()), nil
	default:
		return Null, fmt.Errorf("sqlmini: unknown column type %v", t)
	}
}

// EncodeValue appends v to e as a type byte and its payload: the value
// format the network protocols use for statement arguments and result
// rows.
func EncodeValue(e *wire.Encoder, v Value) { encodeValue(e, v) }

// DecodeValue reads one value in EncodeValue's format.
func DecodeValue(d *wire.Decoder) (Value, error) { return decodeValue(d) }

func encodeValue(e *wire.Encoder, v Value) {
	e.Uint8(uint8(v.Type()))
	switch v.Type() {
	case TypeNull:
	case TypeInteger, TypeBigint, TypeBoolean:
		e.Int64(v.Int())
	case TypeVarchar:
		e.String(v.Str())
	case TypeBlob:
		e.Bytes32(v.Bytes())
	case TypeTimestamp:
		e.Time(v.Time())
	}
}

func decodeValue(d *wire.Decoder) (Value, error) {
	t := Type(d.Uint8())
	if err := d.Err(); err != nil {
		return Null, err
	}
	switch t {
	case TypeNull:
		return Null, nil
	case TypeInteger, TypeBigint:
		return Coerce(NewInt(d.Int64()), t)
	case TypeBoolean:
		switch b := d.Int64(); b {
		case 0, 1:
			return NewBool(b == 1), nil
		default:
			return Null, fmt.Errorf("BOOLEAN payload %d is neither 0 nor 1", b)
		}
	case TypeVarchar:
		return NewString(d.String()), nil
	case TypeBlob:
		return NewBytes(d.Bytes32()), nil
	case TypeTimestamp:
		return NewTime(d.Time()), nil
	default:
		return Null, fmt.Errorf("unknown value type %d", t)
	}
}
