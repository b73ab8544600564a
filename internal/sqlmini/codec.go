package sqlmini

import (
	"errors"
	"math"
	"slices"

	"repro/internal/wire"
)

// The statement and result payloads of the network protocols: what the
// dbms session and the Sequoia controller session both carry, each
// under its own frame types. A statement is its SQL, then its argument
// block: the named values in key order, then the positional ones, each
// list count-prefixed. A result is a Result's Fields.

// ErrMixedArgs refuses an argument block that carries both named and
// positional values: a statement binds one way or the other, and
// neither half may be silently dropped.
var ErrMixedArgs = errors.New("argument block mixes named and positional values")

// ArgBlock is an argument block already in its wire form, as a relay
// (the Sequoia controller) holds a decoded statement's: passed to a
// remote connection as the statement's one argument, it is encoded as
// it stands (EncodeArgs), so the statement carries its arguments in the
// bytes its sender wrote.
type ArgBlock []byte

// EncodeStatement appends a statement payload: sql, then its argument
// block (EncodeArgs).
func EncodeStatement(e *wire.Encoder, sql string, args []any) error {
	e.String(sql)
	return EncodeArgs(e, args)
}

// EncodeArgs appends an argument block straight from a caller's
// arguments: a single Args map encodes as named values, an ArgBlock as
// it stands, anything else as positional values. Named keys are sorted
// so every statement has exactly one wire form (golden-frame fixtures
// rely on this); up to eight of them sort on the stack.
func EncodeArgs(e *wire.Encoder, args []any) error {
	if len(args) == 1 {
		switch a := args[0].(type) {
		case Args:
			var buf [8]string
			keys := buf[:0]
			for k := range a {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			e.Uint32(uint32(len(keys)))
			for _, k := range keys {
				v, err := FromGo(a[k])
				if err != nil {
					return err
				}
				e.String(k)
				encodeValue(e, v)
			}
			e.Uint32(0)
			return nil
		case ArgBlock:
			for _, b := range a {
				e.Uint8(b)
			}
			return nil
		}
	}
	e.Uint32(0)
	e.Uint32(uint32(len(args)))
	for _, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return err
		}
		encodeValue(e, v)
	}
	return nil
}

// DecodeArgs reads an argument block straight into the parameter slots
// of statement st. A named key is read as a view of the payload and
// looked up in st's slot table: a key naming no parameter is dropped,
// and a repeated key's last value wins. Values decode as Values, never
// boxed. With the zero Parsed (a statement that did not resolve, or a
// relay that only checks the block) every value is still read, so a
// malformed block is reported as malformed first. A named entry takes
// at least its 4-byte key length and a value type byte, a positional
// value its type byte. A block with both named and positional values
// is refused (ErrMixedArgs).
func DecodeArgs(d *wire.Decoder, st Parsed, ps *Params) error {
	nNamed := d.Count(5)
	if nNamed > 0 {
		slots := ps.Named(st.NumSlots())
		for i := 0; i < nNamed; i++ {
			key := d.Bytes32View()
			v, err := decodeValue(d)
			if err != nil {
				return err
			}
			if j, ok := st.Slot(key); ok {
				slots[j] = v
			}
		}
	}
	nPos := d.Count(1)
	if err := d.Err(); err != nil {
		return err
	}
	if nNamed > 0 {
		if nPos > 0 {
			return ErrMixedArgs
		}
		return nil
	}
	vals := ps.Positional(nPos)
	for i := range vals {
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	return d.Err()
}

// Fields declares a result payload: the column names, the rows (a row
// takes at least its 4-byte value count, a value its type byte), the
// affected-row count as 8 bytes, and — a trailing extension — the
// Versions a watched session's reply carries.
func (r *Result) Fields(w wire.Walker) {
	w.StringSlice(&r.Cols)
	wire.Slice(w, &r.Rows, 4, math.MaxInt32, walkRow)
	affected := uint64(r.Affected)
	w.Uint64(&affected)
	r.Affected = int(affected)
	WalkVersions(w, &r.Versions)
}

func walkRow(w wire.Walker, row *[]Value) { wire.Slice(w, row, 1, math.MaxInt32, walkValue) }

func walkValue(w wire.Walker, v *Value) { wire.Value(w, v, encodeValue, decodeValue) }

// WalkVersions walks a trailing list of table versions (Result.Versions
// and a batch result's): written when *vs is not nil, read when payload
// remains — into *vs's own array when it has room — and nil when
// absent.
func WalkVersions(w wire.Walker, vs *[]uint64) {
	if !w.Tail(*vs != nil) {
		*vs = nil
		return
	}
	if *vs == nil {
		*vs = []uint64{} // present, even when empty, so it writes back
	}
	wire.Slice(w, vs, 8, math.MaxInt32, wire.Walker.Uint64)
}

// DecodeResult reads a result payload from d into the one Result its
// reader keeps (see WalkResult). d escapes, since Fields walks rows
// through function values: a caller on a hot path passes a Decoder it
// keeps, not a new one.
func DecodeResult(d *wire.Decoder) (*Result, error) {
	var r *Result
	WalkResult(wire.Reading(d), &r)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// WalkResult walks the result *r points at, reading into a new one when
// *r is nil. A read Result shares its allocation with room for two
// trailing versions, the pair a watched ConnStore session carries on
// every reply.
func WalkResult(w wire.Walker, r **Result) {
	if *r == nil {
		room := new(struct {
			r  Result
			vs [2]uint64
		})
		room.r.Versions = room.vs[:0]
		*r = &room.r
	}
	(*r).Fields(w)
}
