package sqlmini

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// refBindArgs is the map binder the engine used before parameter slots,
// kept verbatim as the reference FuzzParamBinding holds the slot binder
// (Params.Bind) to.
func refBindArgs(args []any) (named map[string]Value, positional []Value, err error) {
	if len(args) == 1 {
		if m, ok := args[0].(Args); ok {
			named = make(map[string]Value, len(m))
			for k, v := range m {
				val, err := FromGo(v)
				if err != nil {
					return nil, nil, fmt.Errorf("parameter $%s: %w", k, err)
				}
				named[strings.ToLower(k)] = val
			}
			return named, nil, nil
		}
	}
	positional = make([]Value, 0, len(args))
	for i, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return nil, nil, fmt.Errorf("parameter %d: %w", i+1, err)
		}
		positional = append(positional, v)
	}
	return nil, positional, nil
}

// refParam is how the engine evaluated a parameter against refBindArgs'
// output.
func refParam(named map[string]Value, positional []Value, p *ParamExpr) (Value, error) {
	if p.Name != "" {
		v, ok := named[p.Name]
		if !ok {
			return Null, fmt.Errorf("%w: $%s", ErrMissingParam, p.Name)
		}
		return v, nil
	}
	if p.Index >= len(positional) {
		return Null, fmt.Errorf("%w: positional #%d", ErrMissingParam, p.Index+1)
	}
	return positional[p.Index], nil
}

// paramPool is what FuzzParamBinding binds: every kind FromGo accepts,
// and one it refuses.
var paramPool = []any{nil, int64(1), 2, "1", "Ab", uint32(1), true, time.Unix(1, 0), []byte("k"), NewInt(1), struct{}{}}

// FuzzParamBinding holds slot binding to the map binder it replaced, on
// the ad-hoc and the prepared path alike: the same rows and the same
// errors for `SELECT p1, p2, p3 FROM fz WHERE id = p4` over a one-row
// table, with each p a $name in either case or a ?, bound by an Args
// map (keys in either case, some missing, an extra one) or by position.
// The reference answer is computed from refBindArgs and refParam: a
// conversion error first, then the WHERE's parameter, then — if the row
// matches — the select list's in order. The seed corpus runs as part
// of plain `go test`.
func FuzzParamBinding(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 0, 0x81, 0x82, 0x83, 0, 0, 0})             // named, all bound, key 1
	f.Add([]byte{1, 0x10, 0x11, 0x12, 0x10, 0xc1, 0xc2, 0x83, 0, 0})    // mixed-case names and keys
	f.Add([]byte{1, 0x10, 0x11, 0x12, 0x10, 0xc1, 0xc2, 0x83, 0x8a, 0}) // an unconvertible value under an extra key
	f.Add([]byte{1, 0, 1, 2, 0, 0x81, 0, 0x83, 0, 0, 0})                // $b missing
	f.Add([]byte{0, 3, 3, 3, 3, 0, 0, 0, 0, 4, 1, 2, 3, 1})             // positional, four bound
	f.Add([]byte{0, 3, 0, 3, 3, 0, 0, 0, 0, 2, 1, 9})                   // positional, too few, a named one
	f.Add([]byte{1, 3, 0, 1, 0, 0x81, 0x82, 0, 0x85, 0, 0})             // a ? under an Args map
	f.Add([]byte{0, 3, 3, 3, 3, 0, 0, 0, 0, 4, 10, 1, 1, 1})            // positional, unconvertible
	f.Add([]byte{1, 0, 1, 2, 0, 0x86, 0x82, 0x83, 0, 0, 0})             // key TRUE: no index, same row
	db := NewDB()
	db.MustExec("CREATE TABLE fz (id INTEGER PRIMARY KEY)")
	db.MustExec("INSERT INTO fz VALUES (1)")
	f.Fuzz(func(t *testing.T, b []byte) {
		at := func(i int) byte {
			if i < len(b) {
				return b[i]
			}
			return 0
		}
		names := []string{"a", "b", "c"}
		spell := func(s string, upper bool) string {
			if upper {
				return strings.ToUpper(s)
			}
			return s
		}
		var refs [4]string // p1, p2, p3 and the WHERE's p4
		for i := range refs {
			if spec := at(1 + i); spec%4 == 3 {
				refs[i] = "?"
			} else {
				refs[i] = "$" + spell(names[spec%4], spec&0x10 != 0)
			}
		}
		src := fmt.Sprintf("SELECT %s, %s, %s FROM fz WHERE id = %s", refs[0], refs[1], refs[2], refs[3])

		var args []any
		bad := 0 // unconvertible arguments: with two in a map, which one errors is unordered
		if at(0)&1 == 1 {
			m := Args{}
			for i, name := range []string{"a", "b", "c", "x"} { // x names no parameter
				if spec := at(5 + i); spec&0x80 != 0 {
					v := paramPool[int(spec&0x0f)%len(paramPool)]
					if _, err := FromGo(v); err != nil {
						bad++
					}
					m[spell(name, spec&0x40 != 0)] = v
				}
			}
			args = []any{m}
		} else {
			for i := 0; i < int(at(9)%6); i++ {
				args = append(args, paramPool[int(at(10+i))%len(paramPool)])
			}
		}

		st, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*SelectStmt)
		want, wantErr := func() ([]Value, error) {
			named, positional, err := refBindArgs(args)
			if err != nil {
				return nil, err
			}
			key, err := refParam(named, positional, sel.Where.(*BinaryExpr).R.(*ParamExpr))
			if err != nil || !Equal(key, NewInt(1)) {
				return nil, err
			}
			row := make([]Value, len(sel.Items))
			for i, it := range sel.Items {
				if row[i], err = refParam(named, positional, it.Expr.(*ParamExpr)); err != nil {
					return nil, err
				}
			}
			return row, nil
		}()

		p, err := db.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []struct {
			name string
			exec func() (*Result, error)
		}{
			{"ad-hoc", func() (*Result, error) { return db.Exec(src, args...) }},
			{"prepared", func() (*Result, error) { return p.Exec(args...) }},
		} {
			res, err := path.exec()
			switch {
			case (err != nil) != (wantErr != nil):
				t.Fatalf("%s %q %v: error %v, reference %v", path.name, src, args, err, wantErr)
			case err != nil && bad < 2 && err.Error() != wantErr.Error():
				t.Fatalf("%s %q %v: error %q, reference %q", path.name, src, args, err, wantErr)
			case err != nil:
			case want == nil && len(res.Rows) != 0, want != nil && len(res.Rows) != 1:
				t.Fatalf("%s %q %v: %d rows, reference %v", path.name, src, args, len(res.Rows), want)
			case want != nil:
				for i, v := range res.Rows[0] {
					if v.Type() != want[i].Type() || !v.IsNull() && !Equal(v, want[i]) {
						t.Fatalf("%s %q %v: column %d is %v, reference %v", path.name, src, args, i, v, want[i])
					}
				}
			}
		}
	})
}
