package sqlmini

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Prepared statements: a handle that carries its parsed AST and the
// arg-independent half of the planner's decision (the stmtPlan skeleton,
// plan.go), so hot statements skip the parse-cache lookup AND the
// per-call plan analysis. A skeleton is valid exactly while DB.schemaSeq
// is unchanged; row churn never invalidates it. Binding mirrors the
// ad-hoc path decision-for-decision, so a prepared execution is
// bit-identical to the ad-hoc one — the equivalence suite in
// prepared_test.go pins this.

// Prepared is a reusable statement handle: the AST is parsed once and
// the plan skeleton is cached across executions (re-analyzed only when
// the schema changes). Prepared handles are safe for concurrent use —
// the skeleton swap is an atomic pointer store, and concurrent
// executions at worst analyze twice.
type Prepared struct {
	db  *DB
	src string
	Parsed

	// plan caches the skeleton for plannable statements; nil until the
	// first execution and replaced wholesale when schemaSeq moves.
	plan atomic.Pointer[stmtPlan]
}

// Prepare parses src once and returns a reusable handle. Transaction
// control (BEGIN/COMMIT/ROLLBACK) is session state and cannot be
// prepared; everything else can.
func (db *DB) Prepare(src string) (*Prepared, error) {
	ps, err := db.ParseCached(src)
	if err != nil {
		return nil, err
	}
	switch ps.st.(type) {
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return nil, fmt.Errorf("sqlmini: cannot prepare transaction control %q", src)
	}
	return &Prepared{db: db, src: src, Parsed: ps}, nil
}

// SQL returns the statement text the handle was prepared from.
func (p *Prepared) SQL() string { return p.src }

// planTarget reports the table and WHERE clause the planner would
// consider for this statement, ok=false when the statement kind never
// plans (INSERT, DDL, constant SELECT, SELECT with LIMIT).
func (p *Prepared) planTarget() (table string, where Expr, ok bool) {
	switch st := p.st.(type) {
	case *SelectStmt:
		if st.Table == "" || !selectPlannable(st) {
			return "", nil, false
		}
		return st.Table, st.Where, true
	case *UpdateStmt:
		return st.Table, st.Where, true
	case *DeleteStmt:
		return st.Table, st.Where, true
	}
	return "", nil, false
}

// Exec runs the prepared statement in autocommit mode. Parameters bind
// exactly as in DB.Exec: a single Args map binds by name, anything
// else binds positionally.
func (p *Prepared) Exec(args ...any) (*Result, error) {
	return p.exec(nil, args...)
}

// ExecPrepared runs a prepared handle inside this session: when the
// session holds an open transaction the statement joins its undo log,
// exactly as the same SQL through Session.Exec would (transaction
// control itself is unpreparable, so a handle can never manipulate
// session state). The handle must belong to the session's database.
func (s *Session) ExecPrepared(p *Prepared, args ...any) (*Result, error) {
	if p.db != s.db {
		return nil, errForeignPrepared
	}
	return p.exec(s.tx, args...)
}

// ExecPreparedParams is ExecPrepared with parameters already bound
// (Params), in the slots of p.Parsed.
func (s *Session) ExecPreparedParams(p *Prepared, params *Params) (*Result, error) {
	if p.db != s.db {
		return nil, errForeignPrepared
	}
	return p.run(s.tx, &evalEnv{Params: *params})
}

var errForeignPrepared = errors.New("sqlmini: prepared statement belongs to a different database")

func (p *Prepared) exec(tx *undoLog, args ...any) (*Result, error) {
	env := &evalEnv{}
	if err := env.Bind(p.Parsed, args); err != nil {
		return nil, err
	}
	return p.run(tx, env)
}

// run executes the handle with env's bound parameters, binding the
// cached plan skeleton (re-analyzed when the schema moved).
func (p *Prepared) run(tx *undoLog, env *evalEnv) (*Result, error) {
	db := p.db
	if table, where, ok := p.planTarget(); ok {
		if t, err := db.lookupTable(table); err == nil {
			sp := p.plan.Load()
			if sp == nil || sp.seq != db.schemaSeq.Load() || sp.t != t {
				sp = planAnalyze(db, t, where)
				p.plan.Store(sp)
			}
			env.prep = sp
		}
		// A missing table falls through: execStmt reports the same
		// ErrNoSuchTable the ad-hoc path would.
	}
	return db.execStmt(p.st, env, tx)
}
