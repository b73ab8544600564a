package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Parse parses a single SQL statement. Each positional ? parameter gets
// its position and each distinct $name a slot, both in ParamExpr.Index.
func Parse(src string) (Statement, error) {
	ps, err := parse(src)
	return ps.st, err
}

// Parsed is one statement with its named-parameter slot table, as the
// DB's parse cache (DB.ParseCached) holds it: the binder (Params.Bind)
// files each argument of an Args map under the slot of its lower-cased
// key, and a caller holding typed values fills the slots itself (Slot).
type Parsed struct {
	st    Statement
	slots map[string]int // $name → ParamExpr.Index
}

// Statement returns the parsed statement.
func (ps Parsed) Statement() Statement { return ps.st }

// NumSlots reports how many distinct $name parameters the statement
// has: the length of a by-name binding (Params.Named).
func (ps Parsed) NumSlots() int { return len(ps.slots) }

// Slot reports the slot of the parameter a key of an Args map names,
// matched case-insensitively as Bind matches it; ok is false when the
// statement has no such parameter. An ASCII key is lowered in a stack
// buffer, so the lookup does not allocate.
func (ps Parsed) Slot(key []byte) (slot int, ok bool) {
	var buf [32]byte
	lower := buf[:0]
	for _, c := range key {
		if c >= utf8.RuneSelf || len(lower) == len(buf) {
			slot, ok = ps.slots[strings.ToLower(string(key))]
			return slot, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower = append(lower, c)
	}
	slot, ok = ps.slots[string(lower)]
	return slot, ok
}

func parse(src string) (Parsed, error) {
	toks, err := lex(src)
	if err != nil {
		return Parsed{}, err
	}
	p := &parser{src: src, toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return Parsed{}, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return Parsed{}, p.errorf("unexpected trailing input %q", p.peek().raw)
	}
	return Parsed{st: st, slots: p.slots}, nil
}

type parser struct {
	src     string
	toks    []token
	pos     int
	nParams int            // running count of positional ? parameters
	slots   map[string]int // named parameters by slot, numbered in order of first appearance
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlmini: parse error at position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// acceptKW consumes the next token if it is the given keyword.
func (p *parser) acceptKW(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKW(kw string) error {
	if !p.acceptKW(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().raw)
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errorf("expected %q, got %q", s, p.peek().raw)
	}
	return nil
}

// ident consumes an identifier (returns its raw spelling, case preserved
// except keywords are matched upper-cased elsewhere).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", t.raw)
	}
	p.next()
	return t.raw, nil
}

// qualifiedName parses name or schema.name into a single dotted string
// (lower-cased: table identifiers are case-insensitive in this engine).
func (p *parser) qualifiedName() (string, error) {
	first, err := p.ident()
	if err != nil {
		return "", err
	}
	name := first
	for p.acceptSym(".") {
		part, err := p.ident()
		if err != nil {
			return "", err
		}
		name += "." + part
	}
	return strings.ToLower(name), nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errorf("expected statement keyword, got %q", t.raw)
	}
	switch t.text {
	case "CREATE":
		return p.parseCreateTable()
	case "INSERT":
		return p.parseInsert()
	case "SELECT":
		return p.parseSelect()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "BEGIN":
		p.next()
		return &BeginStmt{}, nil
	case "START":
		p.next()
		if err := p.expectKW("TRANSACTION"); err != nil {
			return nil, err
		}
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.next()
		return &RollbackStmt{}, nil
	default:
		return nil, p.errorf("unsupported statement %q", t.raw)
	}
}

func typeFromName(name string) (Type, bool) {
	switch name {
	case "INTEGER", "INT", "SMALLINT":
		return TypeInteger, true
	case "BIGINT":
		return TypeBigint, true
	case "DOUBLE", "FLOAT", "REAL":
		return TypeDouble, true
	case "VARCHAR", "TEXT", "CHAR":
		return TypeVarchar, true
	case "BLOB", "BYTEA":
		return TypeBlob, true
	case "TIMESTAMP", "DATETIME":
		return TypeTimestamp, true
	case "BOOLEAN", "BOOL":
		return TypeBoolean, true
	default:
		return 0, false
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	p.next() // CREATE
	if t := p.peek(); t.kind == tokIdent && t.text == "INDEX" {
		return p.parseCreateIndex()
	}
	if err := p.expectKW("TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{}
	if p.acceptKW("IF") {
		if err := p.expectKW("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKW("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.ident()
	if err != nil {
		return col, err
	}
	col.Name = strings.ToLower(name)
	tname, err := p.ident()
	if err != nil {
		return col, err
	}
	typ, ok := typeFromName(strings.ToUpper(tname))
	if !ok {
		return col, p.errorf("unknown column type %q", tname)
	}
	col.Type = typ
	// Optional length, e.g. VARCHAR(255): parsed and ignored.
	if p.acceptSym("(") {
		if t := p.peek(); t.kind != tokNumber {
			return col, p.errorf("expected length, got %q", t.raw)
		}
		p.next()
		if err := p.expectSym(")"); err != nil {
			return col, err
		}
	}
	for {
		switch {
		case p.acceptKW("NOT"):
			if err := p.expectKW("NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.acceptKW("PRIMARY"):
			if err := p.expectKW("KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.acceptKW("REFERENCES"):
			ref, err := p.qualifiedName()
			if err != nil {
				return col, err
			}
			col.RefTable = ref
			if err := p.expectSym("("); err != nil {
				return col, err
			}
			rc, err := p.ident()
			if err != nil {
				return col, err
			}
			col.RefColumn = strings.ToLower(rc)
			if err := p.expectSym(")"); err != nil {
				return col, err
			}
		default:
			return col, nil
		}
	}
}

// parseCreateIndex parses CREATE INDEX [IF NOT EXISTS] name ON t
// (col[, col...]) [USING HASH|ORDERED|BTREE]; CREATE has already been
// consumed.
func (p *parser) parseCreateIndex() (Statement, error) {
	p.next() // INDEX
	st := &CreateIndexStmt{}
	if p.acceptKW("IF") {
		if err := p.expectKW("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKW("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKW("ON"); err != nil {
		return nil, err
	}
	table, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, strings.ToLower(col))
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if p.acceptKW("USING") {
		method, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch strings.ToUpper(method) {
		case "HASH":
			st.Kind = IndexHash
		case "ORDERED", "BTREE":
			st.Kind = IndexOrdered
		default:
			return nil, p.errorf("unknown index method %q (want HASH, ORDERED, or BTREE)", method)
		}
	}
	return st, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKW("INTO"); err != nil {
		return nil, err
	}
	st := &InsertStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptSym("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, strings.ToLower(c))
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKW("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	st := &SelectStmt{Limit: -1}
	if p.acceptSym("*") {
		st.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKW("AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = strings.ToLower(a)
			}
			st.Items = append(st.Items, item)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKW("FROM") {
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		st.Table = name
	}
	if p.acceptKW("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.acceptKW("ORDER") {
		if err := p.expectKW("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.acceptKW("DESC") {
				key.Desc = true
			} else {
				p.acceptKW("ASC")
			}
			st.Order = append(st.Order, key)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKW("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected LIMIT count, got %q", t.raw)
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	st := &UpdateStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKW("SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, Assignment{Col: strings.ToLower(c), Expr: e})
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if p.acceptKW("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKW("FROM"); err != nil {
		return nil, err
	}
	st := &DeleteStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptKW("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// Expression grammar (lowest to highest precedence):
//
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | pred
//	pred   := add (cmpOp add | IS [NOT] NULL | [NOT] LIKE add |
//	          [NOT] BETWEEN add AND add | [NOT] IN (list))?
//	add    := mul ((+|-) mul)*
//	mul    := unary ((*|/) unary)*
//	unary  := - unary | primary
//	primary:= literal | param | call | column | ( or )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKW("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKW("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKW("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKW("IS") {
		not := p.acceptKW("NOT")
		if err := p.expectKW("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	}
	neg := false
	if t := p.peek(); t.kind == tokIdent && t.text == "NOT" {
		// lookahead: NOT LIKE / NOT BETWEEN / NOT IN
		if p.pos+1 < len(p.toks) {
			nt := p.toks[p.pos+1]
			if nt.kind == tokIdent && (nt.text == "LIKE" || nt.text == "BETWEEN" || nt.text == "IN") {
				p.next()
				neg = true
			}
		}
	}
	switch {
	case p.acceptKW("LIKE"):
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "LIKE", L: l, R: r, NotOp: neg}, nil
	case p.acceptKW("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKW("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: neg}, nil
	case p.acceptKW("IN"):
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: neg}, nil
	}
	if neg {
		return nil, p.errorf("dangling NOT")
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.acceptSym(op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "+", L: l, R: r}
		case p.acceptSym("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "*", L: l, R: r}
		case p.acceptSym("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSym("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &LiteralExpr{Val: NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &LiteralExpr{Val: NewInt(n)}, nil
	case tokString:
		p.next()
		return &LiteralExpr{Val: NewString(t.text)}, nil
	case tokParam:
		p.next()
		name := strings.ToLower(t.text)
		slot, ok := p.slots[name]
		if !ok {
			if p.slots == nil {
				p.slots = make(map[string]int)
			}
			slot = len(p.slots)
			p.slots[name] = slot
		}
		return &ParamExpr{Name: name, Index: slot}, nil
	case tokQMark:
		p.next()
		e := &ParamExpr{Index: p.nParams}
		p.nParams++
		return e, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected symbol %q", t.raw)
	case tokIdent:
		switch t.text {
		case "NULL":
			p.next()
			return &LiteralExpr{Val: Null}, nil
		case "TRUE":
			p.next()
			return &LiteralExpr{Val: NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &LiteralExpr{Val: NewBool(false)}, nil
		}
		p.next()
		// Function call?
		if p.acceptSym("(") {
			call := &CallExpr{Fn: t.text}
			if p.acceptSym("*") {
				call.Star = true
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.acceptSym(")") {
				return call, nil
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, e)
				if p.acceptSym(",") {
					continue
				}
				break
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		// Column reference, possibly qualified (t.c): keep last segment.
		name := t.raw
		for p.acceptSym(".") {
			part, err := p.ident()
			if err != nil {
				return nil, err
			}
			name = part
		}
		return &ColumnExpr{Name: strings.ToLower(name)}, nil
	default:
		return nil, p.errorf("unexpected token %q", t.raw)
	}
}
