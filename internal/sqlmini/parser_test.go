package sqlmini

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseCreateTable(t *testing.T) {
	st, err := Parse(`CREATE TABLE information_schema.drivers (
		driver_id INTEGER NOT NULL PRIMARY KEY,
		api_name VARCHAR NOT NULL,
		api_version_major INTEGER,
		binary_code BLOB NOT NULL,
		binary_format VARCHAR NOT NULL
	)`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := st.(*CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Table != "information_schema.drivers" {
		t.Errorf("table = %q", ct.Table)
	}
	if len(ct.Cols) != 5 {
		t.Fatalf("cols = %d", len(ct.Cols))
	}
	if !ct.Cols[0].PrimaryKey || !ct.Cols[0].NotNull {
		t.Error("driver_id should be PRIMARY KEY NOT NULL")
	}
	if ct.Cols[3].Type != TypeBlob || !ct.Cols[3].NotNull {
		t.Error("binary_code should be BLOB NOT NULL")
	}
}

func TestParseCreateTableReferences(t *testing.T) {
	st, err := Parse(`CREATE TABLE perm (driver_id INTEGER NOT NULL REFERENCES driver(driver_id))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if ct.Cols[0].RefTable != "driver" || ct.Cols[0].RefColumn != "driver_id" {
		t.Errorf("references = %q(%q)", ct.Cols[0].RefTable, ct.Cols[0].RefColumn)
	}
}

func TestParseSelectPaperSampleCode1(t *testing.T) {
	// Sample code 1 from the paper, verbatim shape.
	src := `SELECT binary_format, binary_code
	FROM information_schema.drivers
	WHERE api_name LIKE $client_api_name
	AND (platform IS NULL OR platform LIKE $client_platform)
	AND ($client_api_version IS NULL OR api_version IS NULL
	     OR $client_api_version LIKE api_version)`
	st, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if sel.Table != "information_schema.drivers" {
		t.Errorf("table = %q", sel.Table)
	}
	if len(sel.Items) != 2 || sel.Where == nil {
		t.Errorf("items=%d where=%v", len(sel.Items), sel.Where)
	}
}

func TestParseSelectPaperSampleCode2(t *testing.T) {
	src := `SELECT driver_id
	FROM information_schema.distribution
	WHERE (database IS NULL OR database LIKE $user_database)
	AND (user IS NULL OR user LIKE $client_user)
	AND (client_ip IS NULL OR client_ip LIKE $client_client_ip)
	AND (start_date IS NULL OR end_date IS NULL
	     OR $now BETWEEN start_date AND end_date)`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseSelectFull(t *testing.T) {
	st, err := Parse(`SELECT a, b AS bee, c FROM t WHERE a > 3 AND b NOT LIKE 'x%' ORDER BY a DESC, b LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "bee" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	if len(sel.Order) != 2 || !sel.Order[0].Desc || sel.Order[1].Desc {
		t.Errorf("order = %+v", sel.Order)
	}
	if sel.Limit != 10 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	st, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (?, $p)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if len(ins.Rows) != 3 || len(ins.Cols) != 2 {
		t.Fatalf("rows=%d cols=%d", len(ins.Rows), len(ins.Cols))
	}
	if _, ok := ins.Rows[2][0].(*ParamExpr); !ok {
		t.Error("expected positional param")
	}
	if p, ok := ins.Rows[2][1].(*ParamExpr); !ok || p.Name != "p" {
		t.Error("expected named param $p")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st, err := Parse(`UPDATE leases SET end_date = ?, renewed = renewed + 1 WHERE lease_id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("set=%d", len(up.Set))
	}
	st, err = Parse(`DELETE FROM leases WHERE end_date < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*DeleteStmt); !ok {
		t.Fatalf("got %T", st)
	}
}

func TestParseTransactions(t *testing.T) {
	for src, want := range map[string]string{
		"BEGIN":             "*sqlmini.BeginStmt",
		"START TRANSACTION": "*sqlmini.BeginStmt",
		"COMMIT":            "*sqlmini.CommitStmt",
		"ROLLBACK":          "*sqlmini.RollbackStmt",
	} {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := fmt.Sprintf("%T", st); got != want {
			t.Errorf("%s: got %s, want %s", src, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC x FROM t",
		"SELECT FROM t",
		"CREATE TABLE t (a FOO)",
		"INSERT INTO t VALUES",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"UPDATE t SET",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a NOT 5 FROM t",
		"SELECT a, count(*) FROM t", // no GROUP BY
		"SELECT count(*)",           // an aggregate needs a table
		"SELECT a FROM t WHERE max(a) > 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestDropIsAParseError: the dialect has no DROP of any kind, so a
// DROP fails to parse and leaves the table it names in place.
func TestDropIsAParseError(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY)")
	db.MustExec("CREATE INDEX t_id_idx ON t (id)")
	for _, src := range []string{"DROP TABLE t", "DROP TABLE IF EXISTS t", "DROP INDEX t_id_idx"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
		if _, err := db.Exec(src); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", src)
		}
	}
	if _, err := db.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("table gone after a refused DROP: %v", err)
	}
}

func TestParseStringEscapes(t *testing.T) {
	st, err := Parse(`SELECT 'it''s a test'`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	lit := sel.Items[0].Expr.(*LiteralExpr)
	if lit.Val.Str() != "it's a test" {
		t.Errorf("got %q", lit.Val.Str())
	}
}

func TestParseComments(t *testing.T) {
	st, err := Parse("SELECT a -- trailing comment\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*SelectStmt).Table != "t" {
		t.Error("comment handling broke FROM")
	}
}

func TestParsePrecedence(t *testing.T) {
	// a = 1 OR b = 2 AND c = 3 must parse as a=1 OR (b=2 AND c=3).
	st, err := Parse("SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or := st.(*SelectStmt).Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top op = %s, want OR", or.Op)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right side should be AND, got %+v", or.R)
	}
}

// TestParseArithmeticPrecedence: + and - associate to the left and
// bind tighter than a comparison.
func TestParseArithmeticPrecedence(t *testing.T) {
	db := NewDB()
	res, err := db.Exec("SELECT 10 - 2 - 3, 10 - 2 - 3 = 5")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 5 {
		t.Errorf("10-2-3 = %d, want 5", got)
	}
	if !res.Rows[0][1].Bool() {
		t.Errorf("10-2-3 = 5 is %v, want TRUE", res.Rows[0][1])
	}
}

// TestRemovedSQLRefused: each construct the dialect dropped fails to
// parse with an error that names it.
func TestRemovedSQLRefused(t *testing.T) {
	for _, tc := range []struct{ name, sql, names string }{
		{"lower", "SELECT lower(x) FROM t", "lower()"},
		{"now", "SELECT x FROM t WHERE x < now()", "now()"},
		{"sum", "SELECT sum(x) FROM t", "sum()"},
		{"avg", "SELECT avg(x) FROM t", "avg()"},
		{"min", "SELECT min(x) FROM t", "min()"},
		{"count of a column", "SELECT count(x) FROM t", "count(column)"},
		{"decimal", "SELECT x FROM t WHERE x = 1.5", "1.5"},
		{"multiply", "SELECT a * b FROM t", "*"},
		{"divide", "SELECT a / b FROM t", "/"},
		{"in", "SELECT x FROM t WHERE x IN (1)", "IN"},
		{"not in", "SELECT x FROM t WHERE x NOT IN (1)", "IN"},
		{"unary not", "SELECT x FROM t WHERE NOT x", "NOT"},
		{"unary minus", "SELECT -x FROM t", "minus"},
		{"double column", "CREATE TABLE t (x DOUBLE)", "DOUBLE"},
		{"float column", "CREATE TABLE t (x FLOAT)", "FLOAT"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.sql)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want it refused", tc.sql)
			}
			if !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("Parse(%q): %v, want an error naming %q", tc.sql, err, tc.names)
			}
		})
	}
}
