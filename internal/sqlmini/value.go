// Package sqlmini is a small embedded relational engine: typed tables, a
// SQL-subset parser and executor, expression evaluation, and undo-log
// transactions. It exists to give the reproduction a real SQL substrate —
// the Drivolution paper stores drivers in regular database tables and its
// server logic is literally SQL (Sample code 1 and 2), so the server in
// internal/core executes those statements against this engine.
//
// The dialect covers what the paper needs plus the usual administrative
// surface: CREATE/DROP TABLE, INSERT, SELECT (with WHERE, ORDER BY,
// LIMIT, aggregates), UPDATE, DELETE, BEGIN/COMMIT/ROLLBACK, LIKE,
// IS [NOT] NULL, BETWEEN, IN, now(), and named ($name) plus positional
// (?) parameters. Concurrency model: MVCC. Rows are immutable version
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
	"unsafe"
)

// Type enumerates column/value types. The set mirrors the ANSI SQL types
// used by the paper's Table 1 and 2 definitions.
type Type int

// Supported SQL types.
const (
	TypeNull Type = iota + 1
	TypeInteger
	TypeBigint
	TypeDouble
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
	case TypeDouble:
		return "DOUBLE"
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

// Value is a dynamically typed SQL value in 24 bytes: a type tag, one
// word and one reference. The word holds an integer or boolean, a
// float's bits, a timestamp's Unix nanoseconds (the zero time as
// math.MinInt64, as wire.Encoder.Time writes it), or the length of the
// string or BLOB whose bytes p points at. The zero Value is SQL NULL.
type Value struct {
	_   [0]func() // not comparable: == would compare p, not the bytes
	typ Type      // 0 for NULL
	n   uint64
	p   *byte
}

// Null is the SQL NULL value.
var Null = Value{}

// zeroTime is the word of the zero TIMESTAMP.
const zeroTime = math.MinInt64

// NewInt returns an INTEGER/BIGINT value.
func NewInt(v int64) Value { return Value{typ: TypeBigint, n: uint64(v)} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{typ: TypeDouble, n: math.Float64bits(v)} }

// NewString returns a VARCHAR value.
func NewString(v string) Value {
	return Value{typ: TypeVarchar, n: uint64(len(v)), p: unsafe.StringData(v)}
}

// NewBytes returns a BLOB value. The slice is retained, not copied;
// Bytes returns it capacity-clipped.
func NewBytes(v []byte) Value {
	return Value{typ: TypeBlob, n: uint64(len(v)), p: unsafe.SliceData(v)}
}

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
	return Value{typ: TypeTimestamp, n: uint64(ns)}
}

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{typ: TypeBoolean, n: 1}
	}
	return Value{typ: TypeBoolean}
}

func (v Value) str() string    { return unsafe.String(v.p, v.n) }
func (v Value) blob() []byte   { return unsafe.Slice(v.p, v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }

// FromGo converts a native Go value into a Value. Supported kinds:
// nil, bool, integers, float64, string, []byte, time.Time, time.Duration
// (as nanoseconds), and Value itself.
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
	case float64:
		return NewFloat(x), nil
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
func (v Value) IsNull() bool { return v.typ == 0 }

// Type returns the value's type; NULL values report TypeNull.
func (v Value) Type() Type {
	if v.typ == 0 {
		return TypeNull
	}
	return v.typ
}

// Int returns the value as int64 (0 for NULL). Floats truncate; strings
// parse best-effort.
func (v Value) Int() int64 {
	switch v.Type() {
	case TypeInteger, TypeBigint, TypeBoolean:
		return int64(v.n)
	case TypeDouble:
		return int64(v.float())
	case TypeVarchar:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.str()), 10, 64)
		return n
	case TypeTimestamp:
		return v.Time().UnixNano()
	default:
		return 0
	}
}

// Float returns the value as float64 (0 for NULL).
func (v Value) Float() float64 {
	switch v.Type() {
	case TypeInteger, TypeBigint, TypeBoolean:
		return float64(int64(v.n))
	case TypeDouble:
		return v.float()
	case TypeVarchar:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.str()), 64)
		return f
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
		return strconv.FormatInt(int64(v.n), 10)
	case TypeBoolean:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	case TypeDouble:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
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
		if int64(v.n) == zeroTime {
			return time.Time{}
		}
		fallthrough
	case TypeInteger, TypeBigint:
		return time.Unix(0, int64(v.n)).UTC()
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
		return v.n != 0
	case TypeDouble:
		return v.float() != 0
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
	switch v.typ {
	case TypeVarchar:
		return "'" + v.str() + "'"
	case TypeBlob:
		return fmt.Sprintf("x'%d bytes'", v.n)
	default:
		return v.Str()
	}
}

// numericType reports whether t participates in numeric comparison.
func numericType(t Type) bool {
	switch t {
	case TypeInteger, TypeBigint, TypeDouble, TypeBoolean:
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
		if at == TypeDouble || bt == TypeDouble {
			return cmpFloat(a.Float(), b.Float()), true
		}
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
		// String-ish comparison, with numeric coercion when one side is a
		// number literal stored as text.
		if numericType(at) || numericType(bt) {
			return cmpFloat(a.Float(), b.Float()), true
		}
		return strings.Compare(a.Str(), b.Str()), true
	}
}

// comparePtr is Compare for values that live in a slice, where the
// index walks call it at every step: same-kind integers, timestamps
// (their words order as the instants do, the zero time first) and
// strings — what index columns hold — are compared where they sit, in
// one branch; anything else takes Compare's general path.
func comparePtr(a, b *Value) (int, bool) {
	switch {
	case a.typ == 0 || b.typ == 0:
		return 0, false
	case intType(a.typ) && intType(b.typ), a.typ == TypeTimestamp && b.typ == TypeTimestamp:
		return cmpInt(int64(a.n), int64(b.n)), true
	case a.typ == TypeVarchar && b.typ == TypeVarchar:
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

func cmpFloat(a, b float64) int {
	switch {
	case a < b || (math.IsNaN(a) && !math.IsNaN(b)):
		return -1
	case a > b || (!math.IsNaN(a) && math.IsNaN(b)):
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
func Like(s, pattern string) bool {
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer matcher with backtracking on the last '%'.
	var si, pi int
	star, sBack := -1, 0
	rs, rp := []rune(s), []rune(p)
	for si < len(rs) {
		switch {
		case pi < len(rp) && (rp[pi] == '_' || rp[pi] == rs[si]):
			si++
			pi++
		case pi < len(rp) && rp[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star != -1:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(rp) && rp[pi] == '%' {
		pi++
	}
	return pi == len(rp)
}

// Coerce converts v to column type t, used on INSERT/UPDATE so stored
// rows are uniformly typed. NULL passes through.
func Coerce(v Value, t Type) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	switch t {
	case TypeInteger, TypeBigint:
		return Value{typ: t, n: uint64(v.Int())}, nil
	case TypeDouble:
		return NewFloat(v.Float()), nil
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
		if tv := NewTime(ts); tv.typ == TypeTimestamp {
			return tv, nil
		}
		return Null, fmt.Errorf("sqlmini: TIMESTAMP %s is outside the representable range", ts.Format(time.RFC3339Nano))
	case TypeBoolean:
		return NewBool(v.Bool()), nil
	default:
		return Null, fmt.Errorf("sqlmini: unknown column type %v", t)
	}
}
