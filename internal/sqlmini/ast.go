package sqlmini

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Cols        []ColumnDef
}

// ColumnDef describes one column in a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       Type
	NotNull    bool
	PrimaryKey bool
	// References names "table(column)" for documentation-grade foreign
	// keys; enforced on INSERT when set.
	RefTable  string
	RefColumn string
}

// IndexKind selects a secondary index's backing structure: a hash map
// (equality point-lookups only) or an ordered key list (equality seeks
// plus range scans).
type IndexKind uint8

// Index kinds. Hash is the default for CREATE INDEX without a USING
// clause; ORDERED (alias BTREE) selects the ordered structure.
const (
	IndexHash IndexKind = iota
	IndexOrdered
)

// String returns the USING-clause spelling of the kind.
func (k IndexKind) String() string {
	if k == IndexOrdered {
		return "ORDERED"
	}
	return "HASH"
}

// CreateIndexStmt is CREATE INDEX [IF NOT EXISTS] name ON table
// (col[, col...]) [USING HASH|ORDERED|BTREE]. Indexes are non-unique;
// composite (multi-column) indexes must be ORDERED. The planner
// (plan.go) uses hash indexes for equality point-lookups and ordered
// indexes additionally for range scans and prefix probes.
type CreateIndexStmt struct {
	Name        string
	Table       string
	Cols        []string
	IfNotExists bool
	Kind        IndexKind
}

// InsertStmt is INSERT INTO t (cols) VALUES (...),(...).
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr
}

// SelectStmt is SELECT exprs FROM t [WHERE] [ORDER BY] [LIMIT].
type SelectStmt struct {
	// Items is the select list; Star means SELECT *. Either every item
	// is an aggregate (a *CallExpr), and the result is one row, or none
	// is: the dialect has no GROUP BY.
	Items []SelectItem
	Star  bool
	agg   bool // the items are aggregates
	Table string
	Where Expr // nil means no WHERE
	Order []OrderKey
	Limit int // -1 means no LIMIT
}

// SelectItem is one select-list expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// UpdateStmt is UPDATE t SET c=e,... [WHERE].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Col  string
	Expr Expr
}

// DeleteStmt is DELETE FROM t [WHERE].
type DeleteStmt struct {
	Table string
	Where Expr
}

// BeginStmt, CommitStmt, RollbackStmt are transaction control.
type (
	// BeginStmt is BEGIN.
	BeginStmt struct{}
	// CommitStmt is COMMIT.
	CommitStmt struct{}
	// RollbackStmt is ROLLBACK.
	RollbackStmt struct{}
)

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

// Expr is any expression node.
type Expr interface{ expr() }

// LiteralExpr is a constant value.
type LiteralExpr struct{ Val Value }

// ColumnExpr references a column, optionally qualified.
type ColumnExpr struct{ Name string }

// ParamExpr is a named ($name) or positional (?) parameter. For
// positional parameters Name is empty and Index is the 0-based position;
// for named ones Index is the name's slot, distinct names numbered from
// 0 in order of first appearance.
type ParamExpr struct {
	Name  string
	Index int
}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op    string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "LIKE", "+", "-"
	L, R  Expr
	NotOp bool // NOT LIKE
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
	Not    bool
}

// CallExpr is one of the two aggregates, COUNT(*) or MAX(col). It is
// only ever a whole select item.
type CallExpr struct {
	Fn  string      // "COUNT" or "MAX"
	Col *ColumnExpr // MAX's column; nil for COUNT(*)
}

func (*LiteralExpr) expr() {}
func (*ColumnExpr) expr()  {}
func (*ParamExpr) expr()   {}
func (*BinaryExpr) expr()  {}
func (*IsNullExpr) expr()  {}
func (*BetweenExpr) expr() {}
func (*CallExpr) expr()    {}
