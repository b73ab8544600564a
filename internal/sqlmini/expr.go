package sqlmini

import (
	"fmt"
	"strings"
)

// evalEnv carries per-statement evaluation context: parameter bindings
// and the planner's scratch. Statements keep it on the stack, so
// nothing in it allocates for the usual statement.
type evalEnv struct {
	// Params holds the statement's bound parameters.
	Params

	// prep, when non-nil, is a prepared statement's cached plan skeleton
	// (prepared.go): planRows binds it instead of re-running planIndex,
	// provided it still matches the live table and schemaSeq.
	prep *stmtPlan

	// plan is the statement's index plan, filled by planRows.
	plan indexPlan
}

// Params is one execution's parameters as typed values, in the order
// the statement numbers them: a slot per distinct $name (a by-name
// binding) or a position per ? (a by-position binding). It is the one
// form every execution binds into. Exec's Args map and ...any
// arguments are converted into it (Bind); a caller that already holds
// typed values — the dbms server decoding a frame — fills it directly
// (Named, Positional) and runs it with Session.ExecParams or
// Session.ExecPreparedParams. Up to len(inline) values live in the
// Params itself, more in one slice that a reused Params keeps.
type Params struct {
	named  bool
	nargs  int
	inline [8]Value
	more   []Value
}

// typeUnbound tags the value of a parameter slot no argument filled,
// with a byte of tags past every SQL type's. It never leaves the slot
// array: param reports the slot unbound instead.
const typeUnbound = TypeBoolean + 1

// Named readies a by-name binding of n slots (Parsed.NumSlots), every one
// unbound, and returns them: the caller stores each value at the slot
// Parsed.Slot reports for its key, and a slot it leaves alone stays
// unbound.
func (ps *Params) Named(n int) []Value {
	ps.named = true
	vals := ps.size(n)
	for i := range vals {
		vals[i] = scalar(typeUnbound, 0)
	}
	return vals
}

// Positional readies a by-position binding of n values and returns
// them for the caller to fill.
func (ps *Params) Positional(n int) []Value {
	ps.named = false
	return ps.size(n)
}

// Bind fills ps from args for statement st, the one binder of every
// execution path. A single Args map binds by name: each key, lower-cased,
// fills the slot Parse gave that name, and a key naming no parameter is
// dropped. Anything else binds positionally. Every argument is
// converted, used or not, so an unconvertible value is an error
// wherever it sits.
func (ps *Params) Bind(st Parsed, args []any) error {
	if len(args) == 1 {
		if m, ok := args[0].(Args); ok {
			vals := ps.Named(len(st.slots))
			for k, v := range m {
				val, err := FromGo(v)
				if err != nil {
					return fmt.Errorf("parameter $%s: %w", k, err)
				}
				if i, ok := st.slots[strings.ToLower(k)]; ok {
					vals[i] = val
				}
			}
			return nil
		}
	}
	vals := ps.Positional(len(args))
	for i, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return fmt.Errorf("parameter %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return nil
}

// Value returns the value bound at slot or position i; ok is false for
// a slot no argument filled and for an i past the binding.
func (ps *Params) Value(i int) (v Value, ok bool) {
	args := ps.args()
	if i < 0 || i >= len(args) || args[i].typ() == typeUnbound {
		return Null, false
	}
	return args[i], true
}

// size makes room for n parameters and returns them.
func (ps *Params) size(n int) []Value {
	ps.nargs = n
	switch {
	case n <= len(ps.inline):
		ps.more = ps.more[:0]
	case n <= cap(ps.more):
		ps.more = ps.more[:n]
	default:
		ps.more = make([]Value, n)
	}
	return ps.args()
}

func (ps *Params) args() []Value {
	if len(ps.more) > 0 {
		return ps.more
	}
	return ps.inline[:ps.nargs]
}

// param returns p's bound value; ok is false when the binding left p
// unset (a name the Args map lacks, a position past the arguments, or
// a parameter of the other kind).
func (env *evalEnv) param(p *ParamExpr) (v Value, ok bool) {
	args := env.args()
	if (p.Name != "") != env.named || p.Index >= len(args) || args[p.Index].typ() == typeUnbound {
		return Null, false
	}
	return args[p.Index], true
}

// eval evaluates e against one row's values vals of table t (both may
// be nil for row-free contexts such as INSERT values). vals is the
// statement's view of the row — current values on the write path, a
// snapshot version's values on the read path — which is what keeps
// expression evaluation oblivious to MVCC.
func (env *evalEnv) eval(e Expr, t *Table, vals []Value) (Value, error) {
	switch e := e.(type) {
	case *LiteralExpr:
		return e.Val, nil
	case *ColumnExpr:
		if t == nil || vals == nil {
			return Null, fmt.Errorf("%w: %q (no row context)", ErrNoSuchColumn, e.Name)
		}
		i, ok := t.columnIndex(e.Name)
		if !ok {
			return Null, fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, e.Name, t.Name)
		}
		return vals[i], nil
	case *ParamExpr:
		if v, ok := env.param(e); ok {
			return v, nil
		}
		if e.Name != "" {
			return Null, fmt.Errorf("%w: $%s", ErrMissingParam, e.Name)
		}
		return Null, fmt.Errorf("%w: positional #%d", ErrMissingParam, e.Index+1)
	case *IsNullExpr:
		v, err := env.eval(e.E, t, vals)
		if err != nil {
			return Null, err
		}
		return NewBool(v.IsNull() != e.Not), nil
	case *BetweenExpr:
		v, err := env.eval(e.E, t, vals)
		if err != nil {
			return Null, err
		}
		lo, err := env.eval(e.Lo, t, vals)
		if err != nil {
			return Null, err
		}
		hi, err := env.eval(e.Hi, t, vals)
		if err != nil {
			return Null, err
		}
		cLo, ok1 := Compare(v, lo)
		cHi, ok2 := Compare(v, hi)
		if !ok1 || !ok2 {
			return Null, nil
		}
		in := cLo >= 0 && cHi <= 0
		return NewBool(in != e.Not), nil
	case *BinaryExpr:
		return env.evalBinary(e, t, vals)
	default:
		return Null, fmt.Errorf("sqlmini: unsupported expression %T", e)
	}
}

func (env *evalEnv) evalBinary(e *BinaryExpr, t *Table, vals []Value) (Value, error) {
	// Short-circuit Kleene logic for AND/OR.
	switch e.Op {
	case "AND":
		l, err := env.eval(e.L, t, vals)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && !l.Bool() {
			return NewBool(false), nil
		}
		rv, err := env.eval(e.R, t, vals)
		if err != nil {
			return Null, err
		}
		if !rv.IsNull() && !rv.Bool() {
			return NewBool(false), nil
		}
		if l.IsNull() || rv.IsNull() {
			return Null, nil
		}
		return NewBool(true), nil
	case "OR":
		l, err := env.eval(e.L, t, vals)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && l.Bool() {
			return NewBool(true), nil
		}
		rv, err := env.eval(e.R, t, vals)
		if err != nil {
			return Null, err
		}
		if !rv.IsNull() && rv.Bool() {
			return NewBool(true), nil
		}
		if l.IsNull() || rv.IsNull() {
			return Null, nil
		}
		return NewBool(false), nil
	}

	l, err := env.eval(e.L, t, vals)
	if err != nil {
		return Null, err
	}
	rv, err := env.eval(e.R, t, vals)
	if err != nil {
		return Null, err
	}

	switch e.Op {
	case "LIKE":
		if l.IsNull() || rv.IsNull() {
			return Null, nil
		}
		m := Like(l.Str(), rv.Str())
		return NewBool(m != e.NotOp), nil
	case "=", "<>", "<", "<=", ">", ">=":
		c, ok := Compare(l, rv)
		if !ok {
			return Null, nil
		}
		var b bool
		switch e.Op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return NewBool(b), nil
	case "+", "-":
		if l.IsNull() || rv.IsNull() {
			return Null, nil
		}
		if e.Op == "+" {
			return NewInt(l.Int() + rv.Int()), nil
		}
		return NewInt(l.Int() - rv.Int()), nil
	}
	return Null, fmt.Errorf("sqlmini: unknown operator %q", e.Op)
}

// evalAggregate computes one aggregate, COUNT(*) or MAX(col), over
// the matched rows' values.
func (env *evalEnv) evalAggregate(e *CallExpr, t *Table, rows [][]Value) (Value, error) {
	if e.Col == nil {
		return NewInt(int64(len(rows))), nil
	}
	var best Value
	for _, vals := range rows {
		v, err := env.eval(e.Col, t, vals)
		if err != nil {
			return Null, err
		}
		if c, ok := Compare(v, best); best.IsNull() || ok && c > 0 {
			best = v
		}
	}
	return best, nil
}
