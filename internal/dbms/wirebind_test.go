package dbms

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// The argument path the server ran before arguments bound straight into
// statement slots, kept verbatim as the reference FuzzWireBinding holds
// decodeArgs to: the block decoded into a map and a list
// (refDecodeArgs), turned back into the engine's caller-facing
// arguments (refWireArgs), and bound by sqlmini's binder inside
// Session.Exec or Session.ExecPrepared.

func refDecodeArgs(d *wire.Decoder) (named map[string]sqlmini.Value, positional []sqlmini.Value, err error) {
	nNamed := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if uint64(nNamed)*5 > uint64(d.Remaining()) {
		return nil, nil, fmt.Errorf("%w: named-arg count %d exceeds payload", wire.ErrShortBuffer, nNamed)
	}
	if nNamed > 0 {
		named = make(map[string]sqlmini.Value, nNamed)
		for i := uint32(0); i < nNamed; i++ {
			k := d.String()
			v, err := sqlmini.DecodeValue(d)
			if err != nil {
				return nil, nil, err
			}
			named[k] = v
		}
	}
	nPos := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if uint64(nPos) > uint64(d.Remaining()) {
		return nil, nil, fmt.Errorf("%w: positional-arg count %d exceeds payload", wire.ErrShortBuffer, nPos)
	}
	for i := uint32(0); i < nPos; i++ {
		v, err := sqlmini.DecodeValue(d)
		if err != nil {
			return nil, nil, err
		}
		positional = append(positional, v)
	}
	return named, positional, d.Err()
}

func refWireArgs(named map[string]sqlmini.Value, positional []sqlmini.Value) []any {
	if len(named) > 0 {
		args := sqlmini.Args{}
		for k, v := range named {
			args[k] = v
		}
		return []any{args}
	}
	args := make([]any, len(positional))
	for i, v := range positional {
		args[i] = v
	}
	return args
}

// wirePool is the value pool FuzzWireBinding's blocks draw from: every
// value type the wire carries, with two that equal the row's key.
var wirePool = []sqlmini.Value{sqlmini.Null, sqlmini.NewInt(1), sqlmini.NewInt(2), sqlmini.NewString("1"),
	sqlmini.NewString("Ab"), sqlmini.NewBool(true), sqlmini.NewTime(time.Unix(1, 0)),
	sqlmini.NewBytes([]byte("k"))}

// FuzzWireBinding holds the server's slot binding (decodeArgs into
// Session.ExecParams / ExecPreparedParams) to the path it replaced
// (refDecodeArgs → refWireArgs → the engine's binder), on the ad-hoc
// and the prepared path alike: the same rows and the same errors for
// `SELECT p1, p2, p3 FROM fz WHERE id = p4` over a one-row table, with
// each p a $name in either case or a ?, and $k reachable from the
// Kelvin sign only Unicode lowering maps to k. The argument block is built
// from the input — named entries naming the statement's parameters, an
// unknown one, upper-case spellings and repeated keys (the last one
// wins), or positional values, too few of them leaving slots unbound —
// or, with bit 2 of the first byte, is the input's tail verbatim. A
// block carrying both named and positional values is refused by the new
// path, where the reference silently dropped the positional half. The
// seed corpus runs as part of plain `go test`.
func FuzzWireBinding(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 0, 0x00, 4, 0, 1, 0x11, 2, 0x12, 0, 1})          // named, all bound
	f.Add([]byte{1, 0x10, 0x11, 0x12, 0x10, 0x07, 4, 0, 1, 1, 2, 2, 3, 0, 1}) // upper-case names and keys
	f.Add([]byte{1, 0, 1, 2, 0, 0x00, 5, 0, 1, 0, 2, 1, 4, 3, 5, 0, 1})       // duplicate keys, last wins, unknown key
	f.Add([]byte{1, 0, 1, 2, 0, 0x00, 2, 0, 1, 2, 3})                         // $b, $c unbound
	f.Add([]byte{0, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 1, 2, 3, 1})
	f.Add([]byte{0, 3, 0, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 1}) // too few, a named one
	f.Add([]byte{3, 0, 1, 2, 0, 0x00, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1}) // mixed: refused
	f.Add(append([]byte{4, 0, 1, 2, 0}, encoded(f, func(e *wire.Encoder) error {
		return sqlmini.EncodeArgs(e, []any{sqlmini.Args{"A": 1, "\u212a": 2}})
	})...)) // a verbatim block: an upper-case key, and one only Unicode lowering maps to ASCII
	db := sqlmini.NewDB()
	db.MustExec("CREATE TABLE fz (id INTEGER PRIMARY KEY)")
	db.MustExec("INSERT INTO fz VALUES (1)")
	f.Fuzz(func(t *testing.T, b []byte) {
		at := func(i int) byte {
			if i < len(b) {
				return b[i]
			}
			return 0
		}
		names := []string{"a", "b", "k", "x"} // x names no parameter
		spell := func(i int, upper bool) string {
			if upper {
				return strings.ToUpper(names[i])
			}
			return names[i]
		}
		var refs [4]string // p1, p2, p3 and the WHERE's p4
		for i := range refs {
			if spec := at(1 + i); spec%4 == 3 {
				refs[i] = "?"
			} else {
				refs[i] = "$" + spell(int(spec%4), spec&0x10 != 0)
			}
		}
		src := fmt.Sprintf("SELECT %s, %s, %s FROM fz WHERE id = %s", refs[0], refs[1], refs[2], refs[3])

		var block []byte
		if at(0)&4 != 0 {
			block = b[min(len(b), 5):]
		} else {
			e := wire.NewEncoder(64)
			var n int
			if at(0)&1 != 0 {
				n = int(at(6) % 7)
			}
			e.Uint32(uint32(n))
			for i := 0; i < n; i++ { // entry i: a key, spelled one way per input, and a value
				k := int(at(7+2*i) % 4)
				e.String(spell(k, at(5)>>k&1 != 0))
				sqlmini.EncodeValue(e, wirePool[int(at(8+2*i))%len(wirePool)])
			}
			var m int
			if at(0)&1 == 0 || at(0)&2 != 0 {
				m = int(at(20) % 6)
			}
			e.Uint32(uint32(m))
			for i := 0; i < m; i++ {
				sqlmini.EncodeValue(e, wirePool[int(at(21+i))%len(wirePool)])
			}
			block = e.Bytes()
		}

		named, positional, refErr := refDecodeArgs(wire.NewDecoder(block))
		st, err := db.ParseCached(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		var params sqlmini.Params
		err = sqlmini.DecodeArgs(wire.NewDecoder(block), st, &params)
		mixed := errors.Is(err, sqlmini.ErrMixedArgs)
		switch {
		case refErr != nil && err == nil, refErr == nil && err != nil && !mixed:
			t.Fatalf("block %x: decoded with error %v, reference %v", block, err, refErr)
		case refErr == nil && mixed && (len(named) == 0 || len(positional) == 0):
			t.Fatalf("block %x refused as mixed: reference read %d named and %d positional values",
				block, len(named), len(positional))
		case err != nil:
			return
		}
		// Two spellings of one name in a verbatim block bind in the
		// reference's map order: there is no single answer to hold to.
		lower := map[string]bool{}
		for k := range named {
			lower[strings.ToLower(k)] = true
		}
		if len(lower) != len(named) {
			return
		}

		sess := db.NewSession()
		defer sess.Close()
		var prepParams sqlmini.Params
		if err := sqlmini.DecodeArgs(wire.NewDecoder(block), p.Parsed, &prepParams); err != nil {
			t.Fatal(err)
		}
		args := refWireArgs(named, positional)
		for _, path := range []struct {
			name     string
			got, ref func() (*sqlmini.Result, error)
		}{
			{"ad-hoc",
				func() (*sqlmini.Result, error) { return sess.ExecParams(st, &params) },
				func() (*sqlmini.Result, error) { return sess.Exec(src, args...) }},
			{"prepared",
				func() (*sqlmini.Result, error) { return sess.ExecPreparedParams(p, &prepParams) },
				func() (*sqlmini.Result, error) { return sess.ExecPrepared(p, args...) }},
		} {
			got, err := path.got()
			want, wantErr := path.ref()
			switch {
			case (err != nil) != (wantErr != nil):
				t.Fatalf("%s %q block %x: error %v, reference %v", path.name, src, block, err, wantErr)
			case err != nil && err.Error() != wantErr.Error():
				t.Fatalf("%s %q block %x: error %q, reference %q", path.name, src, block, err, wantErr)
			case err != nil:
			case len(got.Rows) != len(want.Rows):
				t.Fatalf("%s %q block %x: %d rows, reference %d", path.name, src, block, len(got.Rows), len(want.Rows))
			case len(got.Rows) == 1:
				for i, v := range got.Rows[0] {
					w := want.Rows[0][i]
					if v.Type() != w.Type() || !v.IsNull() && !sqlmini.Equal(v, w) {
						t.Fatalf("%s %q block %x: column %d is %v, reference %v", path.name, src, block, i, v, w)
					}
				}
			}
		}
	})
}
