package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sqlmini"
)

// Sqlcheck statically validates every constant SQL string that reaches
// an execution sink — Store.Exec / DB.Exec / Query / MustExec /
// Prepare / Explain / Server.exec call sites and sqlmini.BatchStmt
// literals — with the real sqlmini parser and planner:
//
//  1. the string must parse;
//  2. statements against the core schema tables
//     (information_schema.*) must reference only existing columns;
//  3. SELECT/UPDATE/DELETE against the core schema tables must plan
//     to an index — a plan that degrades to a full scan of the lease
//     log or driver catalog is a finding, because every such
//     statement sits on a path that TestHotStatementsPlanIndexed
//     could only pin one runtime example of.
//
// The planner runs against the embedded core schema (the exact DDL
// EnsureSchema applies), with parameters synthesized from the
// compared column's declared type, so deleting an index declaration
// from core.schemaDDL immediately fails the build at every call site
// whose plan regresses. Deliberate scans — cold catalog reloads,
// admin listings — are annotated //lint:scan-ok <reason>.
//
// Non-constant SQL (built at runtime) and statements against
// non-schema tables (scenario scratch tables) are parse-checked only
// when constant, never plan-checked.
var Sqlcheck = &Analyzer{
	Name: "sqlcheck",
	Doc:  "constant SQL must parse, resolve, and plan to indexes on the core schema",
	Run:  runSqlcheck,
}

// sinkMethodNames are callee names whose first string argument is SQL.
var sinkMethodNames = map[string]bool{
	"Exec":     true,
	"MustExec": true,
	"Query":    true,
	"Prepare":  true,
	"Explain":  true,
	"exec":     true, // core.Server.exec, the server's statement router
}

// sinkPkgs are packages whose Exec-family methods take our SQL
// dialect. Restricting by package keeps database/sql users (none
// today) and unrelated Exec methods out of scope.
var sinkPkgs = map[string]bool{
	"repro/internal/sqlmini": true,
	"repro/internal/core":    true,
	"repro/internal/dbms":    true,
	"repro/internal/client":  true,
}

// schemaPrefix marks tables owned by the core schema.
const schemaPrefix = "information_schema."

var (
	schemaOnce sync.Once
	schemaDB   *sqlmini.DB
	schemaErr  error
)

// coreSchemaDB lazily builds one scratch database holding the real
// core schema for plan checks.
func coreSchemaDB() (*sqlmini.DB, error) {
	schemaOnce.Do(func() {
		schemaDB = sqlmini.NewDB()
		for _, ddl := range core.SchemaStatements() {
			if _, err := schemaDB.Exec(ddl); err != nil {
				schemaErr = fmt.Errorf("lint: applying core schema: %w", err)
				return
			}
		}
	})
	return schemaDB, schemaErr
}

func runSqlcheck(pass *Pass) error {
	db, err := coreSchemaDB()
	if err != nil {
		return err
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := callee(pass.TypesInfo, n)
				if fn == nil || !sinkMethodNames[fn.Name()] || !sinkPkgs[funcPkgPath(fn)] || len(n.Args) == 0 {
					return true
				}
				if sql, ok := constString(pass, n.Args[0]); ok {
					reportSQLProblems(pass, n.Args[0].Pos(), db, sql)
				}
			case *ast.CompositeLit:
				// sqlmini.BatchStmt{SQL: ...} — the batch sink's
				// statements are assembled as literals, often far from
				// the ExecBatchAtomic call.
				if !isBatchStmtLit(pass, n) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "SQL" {
						continue
					}
					if sql, ok := constString(pass, kv.Value); ok {
						reportSQLProblems(pass, kv.Value.Pos(), db, sql)
					}
				}
			}
			return true
		})
	}
	return nil
}

// constString resolves expr to a compile-time constant string via the
// type checker (literals, consts, and const concatenations like
// `"UPDATE " + LeasesTable + " ..."`).
func constString(pass *Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isBatchStmtLit reports whether lit is a sqlmini.BatchStmt (or a
// core/store BatchStmt-shaped Statement) composite literal.
func isBatchStmtLit(pass *Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return false
	}
	s := tv.Type.String()
	return strings.HasSuffix(s, "sqlmini.BatchStmt") || strings.HasSuffix(s, "core.Statement")
}

func reportSQLProblems(pass *Pass, pos token.Pos, db *sqlmini.DB, sql string) {
	for _, problem := range CheckSQL(db, sql) {
		pass.Reportf(pos, "%s", problem)
	}
}

// CheckSQL statically validates one SQL string against the schema held
// by db, returning human-readable problems: parse failures, unknown
// schema tables/columns, and core-schema statements that plan to full
// scans. Exposed so tests can prove that removing an index declaration
// turns a hot statement into a finding.
func CheckSQL(db *sqlmini.DB, sql string) []string {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return []string{fmt.Sprintf("SQL does not parse: %v", err)}
	}
	table, planCheck := stmtTable(st)
	if table == "" {
		return nil
	}
	cols, knownTable := db.TableColumns(table)
	if !strings.HasPrefix(table, schemaPrefix) {
		// Scratch tables (scenario fixtures, examples) are outside the
		// schema; parse-checking is all that is possible.
		return nil
	}
	if !knownTable {
		return []string{fmt.Sprintf("unknown schema table %q", table)}
	}
	var problems []string
	colTypes := map[string]sqlmini.Type{}
	for _, c := range cols {
		colTypes[c.Name] = c.Type
	}
	for _, ref := range columnRefs(st) {
		if _, ok := colTypes[ref]; !ok {
			problems = append(problems, fmt.Sprintf("unknown column %q in table %s", ref, table))
		}
	}
	if len(problems) > 0 || !planCheck {
		return problems
	}
	args := synthesizeArgs(st, colTypes)
	plan, err := db.Explain(sql, args...)
	if err != nil {
		return append(problems, fmt.Sprintf("statement does not plan: %v", err))
	}
	if strings.HasPrefix(plan, "full scan") {
		problems = append(problems, fmt.Sprintf(
			"hot-path statement plans as %q against the core schema: add or use an index, or annotate a deliberate scan with //lint:scan-ok <reason>", plan))
	}
	return problems
}

// stmtTable extracts the statement's target table and whether the
// statement kind is plannable (SELECT/UPDATE/DELETE).
func stmtTable(st sqlmini.Statement) (string, bool) {
	switch st := st.(type) {
	case *sqlmini.SelectStmt:
		return st.Table, true
	case *sqlmini.UpdateStmt:
		return st.Table, true
	case *sqlmini.DeleteStmt:
		return st.Table, true
	case *sqlmini.InsertStmt:
		return st.Table, false
	case *sqlmini.CreateIndexStmt:
		return st.Table, false
	}
	return "", false
}

// columnRefs collects every column name the statement references.
func columnRefs(st sqlmini.Statement) []string {
	var refs []string
	aliases := map[string]bool{}
	var walkExpr func(e sqlmini.Expr)
	walkExpr = func(e sqlmini.Expr) {
		switch e := e.(type) {
		case *sqlmini.ColumnExpr:
			if !aliases[e.Name] {
				refs = append(refs, e.Name)
			}
		case *sqlmini.BinaryExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *sqlmini.IsNullExpr:
			walkExpr(e.E)
		case *sqlmini.BetweenExpr:
			walkExpr(e.E)
			walkExpr(e.Lo)
			walkExpr(e.Hi)
		case *sqlmini.CallExpr:
			if e.Col != nil {
				walkExpr(e.Col)
			}
		}
	}
	switch st := st.(type) {
	case *sqlmini.SelectStmt:
		for _, it := range st.Items {
			if it.Alias != "" {
				aliases[it.Alias] = true
			}
		}
		for _, it := range st.Items {
			walkExpr(it.Expr)
		}
		if st.Where != nil {
			walkExpr(st.Where)
		}
		for _, o := range st.Order {
			walkExpr(o.Expr)
		}
	case *sqlmini.UpdateStmt:
		for _, a := range st.Set {
			refs = append(refs, a.Col)
			walkExpr(a.Expr)
		}
		if st.Where != nil {
			walkExpr(st.Where)
		}
	case *sqlmini.DeleteStmt:
		if st.Where != nil {
			walkExpr(st.Where)
		}
	case *sqlmini.InsertStmt:
		refs = append(refs, st.Cols...)
	case *sqlmini.CreateIndexStmt:
		refs = append(refs, st.Cols...)
	}
	return refs
}

// synthesizeArgs builds a plausible binding for every parameter the
// statement mentions, typed after the column each parameter is
// compared with (or assigned to), so the planner sees index-eligible
// keys exactly as the runtime would. Named parameters bind through a
// single sqlmini.Args map; positional ones through the variadic slice.
func synthesizeArgs(st sqlmini.Statement, colTypes map[string]sqlmini.Type) []any {
	named := sqlmini.Args{}
	positional := map[int]any{}
	maxIndex := -1
	bind := func(p *sqlmini.ParamExpr, t sqlmini.Type) {
		if p.Name == "" {
			if _, done := positional[p.Index]; !done {
				positional[p.Index] = synthValue(t)
			}
			if p.Index > maxIndex {
				maxIndex = p.Index
			}
			return
		}
		if _, done := named[p.Name]; !done {
			named[p.Name] = synthValue(t)
		}
	}
	var pair func(a, b sqlmini.Expr)
	var walk func(e sqlmini.Expr)
	pair = func(a, b sqlmini.Expr) {
		col, okc := a.(*sqlmini.ColumnExpr)
		p, okp := b.(*sqlmini.ParamExpr)
		if okc && okp {
			bind(p, colTypes[col.Name])
		}
	}
	walk = func(e sqlmini.Expr) {
		switch e := e.(type) {
		case *sqlmini.ParamExpr:
			bind(e, sqlmini.TypeInteger)
		case *sqlmini.BinaryExpr:
			pair(e.L, e.R)
			pair(e.R, e.L)
			walk(e.L)
			walk(e.R)
		case *sqlmini.IsNullExpr:
			walk(e.E)
		case *sqlmini.BetweenExpr:
			walk(e.E)
			walk(e.Lo)
			walk(e.Hi)
		}
	}
	switch st := st.(type) {
	case *sqlmini.SelectStmt:
		if st.Where != nil {
			walk(st.Where)
		}
	case *sqlmini.UpdateStmt:
		for _, a := range st.Set {
			if p, ok := a.Expr.(*sqlmini.ParamExpr); ok {
				bind(p, colTypes[a.Col])
			}
			walk(a.Expr)
		}
		if st.Where != nil {
			walk(st.Where)
		}
	case *sqlmini.DeleteStmt:
		if st.Where != nil {
			walk(st.Where)
		}
	}
	if maxIndex >= 0 {
		// Positional statement: sqlmini cannot mix binding styles, and
		// the repo's own SQL is all named, so positional wins outright.
		out := make([]any, maxIndex+1)
		for i := range out {
			if v, ok := positional[i]; ok {
				out[i] = v
			} else {
				out[i] = int64(1)
			}
		}
		return out
	}
	if len(named) == 0 {
		return nil
	}
	return []any{named}
}

// synthValue picks a representative Go value for a column type.
func synthValue(t sqlmini.Type) any {
	switch t {
	case sqlmini.TypeVarchar:
		return "x"
	case sqlmini.TypeBoolean:
		return false
	case sqlmini.TypeTimestamp:
		return time.Unix(1, 0)
	case sqlmini.TypeBlob:
		return []byte{1}
	default:
		return int64(1)
	}
}
