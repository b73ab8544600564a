package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sqlmini"
)

// stmtKind classifies a statement by its first keyword.
type stmtKind uint8

const (
	kindNone stmtKind = iota // not a statement (reaper, AddDriver spans)
	kindSelect
	kindInsert
	kindUpdate
	kindDelete
	kindOther // DDL, transaction control, batches of mixed kinds
	numKinds
)

var kindNames = [numKinds]string{"", "select", "insert", "update", "delete", "other"}

func kindOf(sql string) stmtKind {
	word := strings.TrimSpace(sql)
	if len(word) < 6 {
		return kindOther
	}
	for k := kindSelect; k <= kindDelete; k++ {
		if strings.EqualFold(word[:6], kindNames[k]) {
			return k
		}
	}
	return kindOther
}

// mentionsCatalog reports whether a statement reads or writes the
// driver catalog tables.
func mentionsCatalog(sql string) bool {
	return strings.Contains(sql, core.DriversTable) || strings.Contains(sql, core.PermissionTable)
}

// storeProbe times every call that crosses the Store boundary and
// remembers the statements it saw, so the hot ones can be replayed on
// a bare engine. It exists in traced runs only; an untraced server
// gets the plain store.
type storeProbe struct {
	spans *storeSpans

	mu    sync.Mutex
	texts map[string]capturedStmt // SQL text -> first execution seen
}

// capturedStmt is one SQL text with the arguments of its first
// execution, enough to replay it.
type capturedStmt struct {
	sql  string
	args []any
	kind stmtKind
}

func newStoreProbe(spans *storeSpans) *storeProbe {
	return &storeProbe{spans: spans, texts: make(map[string]capturedStmt)}
}

func (p *storeProbe) capture(sql string, args []any) {
	p.mu.Lock()
	if _, ok := p.texts[sql]; !ok {
		p.texts[sql] = capturedStmt{sql: sql, args: args, kind: kindOf(sql)}
	}
	p.mu.Unlock()
}

// captured returns the statements seen so far.
func (p *storeProbe) captured() []capturedStmt {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]capturedStmt, 0, len(p.texts))
	for _, c := range p.texts {
		out = append(out, c)
	}
	return out
}

func (p *storeProbe) exec(sql string, args []any, run func() (*sqlmini.Result, error)) (*sqlmini.Result, error) {
	p.capture(sql, args)
	start := time.Now()
	res, err := run()
	p.spans.record(spanStore, kindOf(sql), mentionsCatalog(sql), start)
	return res, err
}

func (p *storeProbe) prepare(sql string, h core.Stmt, err error) (core.Stmt, error) {
	if err != nil {
		return nil, err
	}
	return &timedStmt{Stmt: h, p: p, sql: sql, kind: kindOf(sql), catalog: mentionsCatalog(sql)}, nil
}

func (p *storeProbe) batch(stmts []core.Statement, run func() ([]*sqlmini.Result, error)) ([]*sqlmini.Result, error) {
	kind, catalog := kindOther, false
	for i, st := range stmts {
		p.capture(st.SQL, st.Args)
		catalog = catalog || mentionsCatalog(st.SQL)
		if k := kindOf(st.SQL); i == 0 {
			kind = k
		} else if k != kind {
			kind = kindOther
		}
	}
	start := time.Now()
	res, err := run()
	p.spans.record(spanStore, kind, catalog, start)
	return res, err
}

func (p *storeProbe) begin(tx core.Tx, err error) (core.Tx, error) {
	if err != nil {
		return nil, err
	}
	return &timedTx{Tx: tx, p: p}, nil
}

// timedStmt times executions of one prepared handle.
type timedStmt struct {
	core.Stmt
	p       *storeProbe
	sql     string
	kind    stmtKind
	catalog bool
	seen    atomic.Bool // first execution's arguments captured
}

func (s *timedStmt) Exec(args ...any) (*sqlmini.Result, error) {
	if !s.seen.Load() {
		s.p.capture(s.sql, args)
		s.seen.Store(true)
	}
	start := time.Now()
	res, err := s.Stmt.Exec(args...)
	s.p.spans.record(spanStore, s.kind, s.catalog, start)
	return res, err
}

// timedTx times each statement of a transaction and its commit.
type timedTx struct {
	core.Tx
	p *storeProbe
}

func (t *timedTx) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	return t.p.exec(sql, args, func() (*sqlmini.Result, error) { return t.Tx.Exec(sql, args...) })
}

func (t *timedTx) Query(sql string, args ...any) (*sqlmini.Result, error) {
	return t.p.exec(sql, args, func() (*sqlmini.Result, error) { return t.Tx.Query(sql, args...) })
}

func (t *timedTx) Commit() error {
	start := time.Now()
	err := t.Tx.Commit()
	t.p.spans.record(spanStore, kindOther, false, start)
	return err
}

// timedLocal is the in-database timing store. Embedding keeps every
// capability the server looks for by type assertion (generation,
// table versions, statements, batches, transactions), so the server
// stays on the fast paths it takes over a bare LocalStore; only the
// calls that execute SQL are intercepted.
type timedLocal struct {
	*core.LocalStore
	p *storeProbe
}

func (s *timedLocal) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	return s.p.exec(sql, args, func() (*sqlmini.Result, error) { return s.LocalStore.Exec(sql, args...) })
}

func (s *timedLocal) Prepare(sql string) (core.Stmt, error) {
	h, err := s.LocalStore.Prepare(sql)
	return s.p.prepare(sql, h, err)
}

func (s *timedLocal) ExecBatch(stmts []core.Statement) ([]*sqlmini.Result, error) {
	return s.p.batch(stmts, func() ([]*sqlmini.Result, error) { return s.LocalStore.ExecBatch(stmts) })
}

func (s *timedLocal) Begin() (core.Tx, error) { return s.p.begin(s.LocalStore.Begin()) }

// timedConn is the same over the external store; it additionally
// keeps GenerationSupported, Stats and Close visible.
type timedConn struct {
	*core.ConnStore
	p *storeProbe
}

func (s *timedConn) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	return s.p.exec(sql, args, func() (*sqlmini.Result, error) { return s.ConnStore.Exec(sql, args...) })
}

func (s *timedConn) Query(sql string, args ...any) (*sqlmini.Result, error) {
	return s.p.exec(sql, args, func() (*sqlmini.Result, error) { return s.ConnStore.Query(sql, args...) })
}

func (s *timedConn) Prepare(sql string) (core.Stmt, error) {
	h, err := s.ConnStore.Prepare(sql)
	return s.p.prepare(sql, h, err)
}

func (s *timedConn) ExecBatch(stmts []core.Statement) ([]*sqlmini.Result, error) {
	return s.p.batch(stmts, func() ([]*sqlmini.Result, error) { return s.ConnStore.ExecBatch(stmts) })
}

func (s *timedConn) Begin() (core.Tx, error) { return s.p.begin(s.ConnStore.Begin()) }
