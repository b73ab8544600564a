package sqlmini

import (
	"fmt"
	"sort"
)

// BatchStmt is one statement of an atomic batch: SQL text plus its
// arguments, bound exactly as in DB.Exec (a single Args map binds by
// name, anything else positionally) — or, when Params is set, already
// bound as for Session.ExecParams, and Args is ignored.
type BatchStmt struct {
	SQL    string
	Args   []any
	Params *Params
}

// ExecBatchAtomic runs stmts in order as one implicit transaction:
// either every statement applies or — when any statement fails — the
// shared undo log reverts them all and the error (annotated with the
// failing statement's 1-based position) is returned. Results are
// returned only on full success.
//
// The batch latches every table it references up front, in sorted name
// order (the canonical multi-latch order, see docs/ARCHITECTURE.md), and
// holds the latches across the whole batch, so no other writer can
// interleave: a batch is both atomic AND isolated, which explicit
// BEGIN/COMMIT sessions (which release latches between statements) are
// not. Snapshot readers are never blocked; they see either none or all
// of the batch's effects, because every row version the batch stamps
// stays above each table's published watermark until the single publish
// at the end.
//
// Transaction control is implicit and therefore rejected inside a
// batch; DDL is rejected because CREATE cannot roll back.
func (db *DB) ExecBatchAtomic(stmts []BatchStmt) ([]*Result, error) {
	type boundStmt struct {
		st  Statement
		env evalEnv
	}
	bound := make([]boundStmt, len(stmts))
	tableSet := make(map[string]bool)
	for i, bs := range stmts {
		ps, err := db.ParseCached(bs.SQL)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: batch statement %d: %w", i+1, err)
		}
		switch st := ps.st.(type) {
		case *BeginStmt, *CommitStmt, *RollbackStmt:
			return nil, fmt.Errorf("sqlmini: batch statement %d: transaction control is implicit in an atomic batch", i+1)
		case *CreateTableStmt, *CreateIndexStmt:
			return nil, fmt.Errorf("sqlmini: batch statement %d: DDL cannot roll back and is not batchable", i+1)
		case *SelectStmt:
			if st.Table != "" {
				tableSet[st.Table] = true
			}
		case *InsertStmt:
			tableSet[st.Table] = true
		case *UpdateStmt:
			tableSet[st.Table] = true
		case *DeleteStmt:
			tableSet[st.Table] = true
		}
		bound[i].st = ps.st
		if bs.Params != nil {
			bound[i].env.Params = *bs.Params
		} else if err := bound[i].env.Bind(ps, bs.Args); err != nil {
			return nil, fmt.Errorf("sqlmini: batch statement %d: %w", i+1, err)
		}
	}

	locked, order := db.lockTablesByName(tableSet)
	w := &writeCtx{db: db}
	tx := &undoLog{}
	release := func() {
		w.publish()
		for _, t := range order {
			t.maybeGCLocked(db)
			t.latch.Unlock()
		}
	}

	out := make([]*Result, 0, len(stmts))
	for i := range bound {
		w.nextStmt()
		res, err := db.execBatchStmt(bound[i].st, &bound[i].env, tx, w, locked)
		if err != nil {
			// Revert under the latches we already hold: one fresh commit
			// number stamps the whole rollback, and marking the reverted
			// tables in the writeCtx folds their watermark/version
			// publication into the shared publish below.
			if len(tx.entries) > 0 {
				w.c = db.commits.Add(1)
				tx.applyEntries(w.c)
				for _, t := range tx.entryTables() {
					w.commit(t)
				}
			}
			release()
			return nil, fmt.Errorf("sqlmini: batch statement %d: %w", i+1, err)
		}
		out = append(out, res)
	}
	release()
	return out, nil
}

// lockTablesByName latches the named tables in sorted name order and
// returns them keyed by name plus the ordered unlock list. Names that
// don't resolve are skipped — the referencing statement fails at
// execution with the canonical ErrNoSuchTable. A name, once created,
// names the same table for the database's life, so what was latched
// stays the published table.
func (db *DB) lockTablesByName(nameSet map[string]bool) (map[string]*Table, []*Table) {
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	byName := make(map[string]*Table, len(names))
	order := make([]*Table, 0, len(names))
	for _, n := range names {
		if t, err := db.lookupTable(n); err == nil {
			//lint:latch-ok canonical sorted-name multi-latch: names sorted just above
			t.latch.Lock()
			byName[n] = t
			order = append(order, t)
		}
	}
	return byName, order
}

// execBatchStmt dispatches one batch statement against the pre-latched
// table set. SELECTs run in the writer view — the batch holds the
// latch, so current chain heads ARE its consistent view, including its
// own uncommitted-to-readers writes (read-your-writes within the
// batch).
func (db *DB) execBatchStmt(st Statement, env *evalEnv, tx *undoLog, w *writeCtx, locked map[string]*Table) (*Result, error) {
	get := func(name string) (*Table, error) {
		if t, ok := locked[name]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	switch st := st.(type) {
	case *SelectStmt:
		if st.Table == "" {
			return execConstSelect(st, env)
		}
		t, err := get(st.Table)
		if err != nil {
			return nil, err
		}
		return db.execSelect(t, tableView{t: t, writer: true}, st, env)
	case *InsertStmt:
		t, err := get(st.Table)
		if err != nil {
			return nil, err
		}
		return db.execInsert(t, st, env, tx, w)
	case *UpdateStmt:
		t, err := get(st.Table)
		if err != nil {
			return nil, err
		}
		return db.execUpdate(t, st, env, tx, w)
	case *DeleteStmt:
		t, err := get(st.Table)
		if err != nil {
			return nil, err
		}
		return db.execDelete(t, st, env, tx, w)
	default:
		return nil, fmt.Errorf("sqlmini: unsupported statement %T", st)
	}
}
