package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/sqlmini"
)

// Store is the whole boundary between the Drivolution server and the
// database holding its schema. The paper's deployment shapes map onto
// three implementations:
//
//   - LocalStore: the schema sits in an embedded/in-process database —
//     the in-database server (§4.1.2, sharing the DBMS's own sqlmini
//     instance) and the standalone server (§4.1.4, "use an embedded
//     database that does not require driver upgrades").
//   - ConnStore: the schema sits in a remote legacy DBMS reached through
//     a conventional driver connection — the external server (§4.1.3,
//     Figure 2).
//   - the cluster's replicated store (internal/cluster): a member-local
//     database whose mutations replicate to every peer.
type Store interface {
	// Exec runs one SQL statement against the schema's database.
	Exec(sql string, args ...any) (*sqlmini.Result, error)
	// Prepare parses sql once into a reusable handle.
	Prepare(sql string) (Stmt, error)
	// ExecBatch runs stmts in order as one atomic unit: all of them
	// apply or none does. Results are returned only on full success.
	ExecBatch(stmts []Statement) ([]*sqlmini.Result, error)
	// Versions reports the mutation counters of the drivers and
	// driver_permission tables — lease churn must not move them — and
	// whether the store can observe them at all. The server's in-memory
	// catalog is valid exactly while both are unchanged, which makes
	// steady-state grants zero-SQL. ok == false (a legacy database that
	// cannot report table versions, Figure 2, or a probe that failed)
	// keeps the server on per-request SQL matchmaking.
	Versions() (drivers, perms uint64, ok bool)
}

// The capability names Store absorbed. They survive only because the
// drivobench module (bench/) still compiles against them, and go once
// its TestTimingStoreKeepsFastPaths stops naming them (ROADMAP item
// 1(a)).
type (
	TxStore                 = Store
	StmtStore               = Store
	BatchStore              = Store
	GenerationStore         = Store
	TableVersionStore       = Store
	OptionalGenerationStore = Store
)

// Statement is one SQL statement plus its arguments — the unit of
// batch execution. It is the same type the client layer ships over
// the wire.
type Statement = client.Statement

// Stmt is a reusable prepared-statement handle. On LocalStore it
// carries the parsed AST plus the planner's cached analysis; executing
// it skips parse-and-plan. Handles are safe for concurrent use.
type Stmt interface {
	// Exec runs the prepared statement with the given arguments.
	Exec(args ...any) (*sqlmini.Result, error)
	// Close releases the handle.
	Close() error
}

// Tx is one open transaction (LocalStore.Begin, ConnStore.Begin):
// Commit publishes every statement, Rollback (or a store-side failure)
// reverts every statement. A Tx is not safe for concurrent use.
type Tx interface {
	// Exec runs one statement inside the transaction.
	Exec(sql string, args ...any) (*sqlmini.Result, error)
	// Query is Exec for row-returning statements.
	Query(sql string, args ...any) (*sqlmini.Result, error)
	// Commit makes the transaction's effects durable.
	Commit() error
	// Rollback reverts every statement of the transaction.
	Rollback() error
}

// ErrExecOutcomeUnknown reports a connection that died after a
// statement may have reached the server: the statement cannot be
// safely retried because it may already have been applied. Callers
// that can tolerate double-application (idempotent writes) may retry;
// everyone else must surface the ambiguity.
var ErrExecOutcomeUnknown = errors.New("core: statement outcome unknown (connection lost mid-statement)")

// ErrTxDone reports use of a transaction after Commit or Rollback.
var ErrTxDone = errors.New("core: transaction already finished")

// LocalStore serves the schema from an in-process sqlmini database:
// prepared handles carry a cached AST + plan skeleton, batches run
// under one engine-lock acquisition, and Begin opens a real transaction
// (engine undo log).
type LocalStore struct {
	DB *sqlmini.DB
}

// NewLocalStore wraps db.
func NewLocalStore(db *sqlmini.DB) *LocalStore { return &LocalStore{DB: db} }

// Exec implements Store.
func (s *LocalStore) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	return s.DB.Exec(sql, args...)
}

// Versions implements Store over the embedded database's per-table
// mutation counters. They live on the DB, not this wrapper, so several
// LocalStores over one shared DB (replicated embedded servers, Figure
// 6; a TLS frontend sharing a plaintext server's schema) observe each
// other's admin mutations.
func (s *LocalStore) Versions() (drivers, perms uint64, ok bool) {
	return s.DB.TableVersion(DriversTable), s.DB.TableVersion(PermissionTable), true
}

// Begin opens a transaction on the embedded engine: a session with an
// undo log, so Rollback reverts every statement of the unit.
func (s *LocalStore) Begin() (Tx, error) {
	sess := s.DB.NewSession()
	if _, err := sess.Exec("BEGIN"); err != nil {
		sess.Close()
		return nil, err
	}
	return &localTx{sess: sess}, nil
}

type localTx struct {
	sess *sqlmini.Session
	done bool
}

func (tx *localTx) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	return tx.sess.Exec(sql, args...)
}

func (tx *localTx) Query(sql string, args ...any) (*sqlmini.Result, error) {
	return tx.Exec(sql, args...)
}

func (tx *localTx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	_, err := tx.sess.Exec("COMMIT")
	tx.sess.Close()
	return err
}

func (tx *localTx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	_, err := tx.sess.Exec("ROLLBACK")
	tx.sess.Close()
	return err
}

// Prepare implements Store: the handle carries the parsed AST and
// the planner's cached analysis (sqlmini.Prepared), so per-call work
// is binding arguments and evaluating the index keys.
func (s *LocalStore) Prepare(sql string) (Stmt, error) {
	p, err := s.DB.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return localStmt{p: p}, nil
}

type localStmt struct{ p *sqlmini.Prepared }

func (st localStmt) Exec(args ...any) (*sqlmini.Result, error) { return st.p.Exec(args...) }
func (st localStmt) Close() error                              { return nil }

// ExecBatch implements Store: the whole list executes under a
// single engine-lock acquisition, atomically and isolated — no other
// session's statement can interleave between batch statements.
func (s *LocalStore) ExecBatch(stmts []Statement) ([]*sqlmini.Result, error) {
	bs := make([]sqlmini.BatchStmt, len(stmts))
	for i, st := range stmts {
		bs[i] = sqlmini.BatchStmt{SQL: st.SQL, Args: st.Args}
	}
	return s.DB.ExecBatchAtomic(bs)
}

// ConnStore serves the schema through legacy driver connections to a
// remote database (Figure 2: "the server then connects to the database
// using a legacy database driver"). It keeps a small pool of
// connections: plain statements borrow one for a single round trip, a
// transaction pins one for its whole lifetime (per-tx connection
// affinity), so a long transaction never head-of-line blocks
// unrelated statements the way the old single-connection store did.
//
// Failure semantics (the redial contract): a connection-level failure
// is retried on a fresh dial ONLY when the statement provably never
// executed — the driver marked it client.ErrStatementNotSent (it never
// left the client), or the statement is a SELECT and therefore safe to
// replay. Any other mid-statement connection loss surfaces as
// ErrExecOutcomeUnknown instead of being replayed verbatim: the old
// behavior could double-apply a non-idempotent statement that reached
// the server just before the connection died.
//
// When the dialed connections negotiate the v2 session capabilities,
// Prepare returns handles backed by SERVER-side prepared statements
// (client.StmtConn) — each pooled connection caches one remote handle
// per SQL text, re-prepared transparently on a replacement connection
// but replayed only under the redial contract above — and Versions
// probes the remote engine's per-table mutation counters over
// client.TableVersionConn (one wire round trip, zero SQL), which
// extends the server's zero-SQL catalog to external deployments.
//
// A v1 peer is the paper's legacy database, and it stays supported:
// Prepare handles execute as plain per-call SQL, and Versions reports
// ok == false so the server keeps the SQL matchmaking path.
type ConnStore struct {
	dial func() (client.Conn, error)
	size int
	// sem bounds BORROWED connections at size: every acquire takes a
	// token, every release/discard returns it, so a burst of demand
	// queues here instead of dialing a connection storm against the
	// legacy database.
	sem chan struct{}

	mu     sync.Mutex
	idle   []*poolConn
	closed bool

	// noVersions is set once a table-versions probe is refused with
	// client.ErrNotSupported (a v1 session, or a remote downgraded
	// mid-life). It never flips back — an upgrade is picked up on the
	// next store, and flapping would thrash the catalog.
	noVersions atomic.Bool

	// Pool/session health counters (Stats).
	dials       atomic.Int64
	redials     atomic.Int64
	prepares    atomic.Int64
	handlesLive atomic.Int64
}

// poolConn is one pooled driver connection plus its session-scoped
// remote prepared-handle cache. The cache is only touched by the
// borrower (a connection has exactly one at a time), dies with the
// connection, and is bounded at maxConnStmts.
type poolConn struct {
	conn  client.Conn
	stmts map[string]client.ConnStmt
}

// maxConnStmts bounds one connection's remote-handle cache, below the
// server's own per-session handle limit so a well-behaved store can
// never trip it. Overflowing statements simply execute ad hoc.
const maxConnStmts = 128

// ConnStoreOption configures a ConnStore.
type ConnStoreOption func(*ConnStore)

// WithPoolSize bounds the pool (default 4): at most n statements or
// transactions hold a connection concurrently (excess callers wait for
// a slot), and at most n idle connections are retained.
func WithPoolSize(n int) ConnStoreOption {
	return func(s *ConnStore) {
		if n >= 1 {
			s.size = n
		}
	}
}

// NewConnStore creates a store that obtains connections from dial.
func NewConnStore(dial func() (client.Conn, error), opts ...ConnStoreOption) *ConnStore {
	s := &ConnStore{dial: dial, size: 4}
	for _, o := range opts {
		o(s)
	}
	s.sem = make(chan struct{}, s.size)
	return s
}

var errConnStoreClosed = errors.New("core: external store is closed")

// acquire takes a pool slot, then returns an idle connection or dials
// a new one. Idle connections are NOT pinged — a dead one is detected
// (and classified) by the statement that trips over it.
func (s *ConnStore) acquire() (*poolConn, error) {
	s.sem <- struct{}{}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.sem
		return nil, errConnStoreClosed
	}
	if n := len(s.idle); n > 0 {
		pc := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return pc, nil
	}
	s.mu.Unlock()
	c, err := s.dial()
	if err != nil {
		<-s.sem
		return nil, fmt.Errorf("core: external store dial: %w", err)
	}
	s.dials.Add(1)
	return &poolConn{conn: c}, nil
}

// closeConn closes a connection and writes off its cached remote
// handles (they die with the session).
func (s *ConnStore) closeConn(pc *poolConn) {
	s.handlesLive.Add(-int64(len(pc.stmts)))
	pc.stmts = nil
	_ = pc.conn.Close()
}

// release returns a healthy connection to the pool (or closes it when
// the pool is full or the store closed) and frees the slot.
func (s *ConnStore) release(pc *poolConn) {
	s.mu.Lock()
	if !s.closed && len(s.idle) < s.size {
		s.idle = append(s.idle, pc)
		s.mu.Unlock()
		<-s.sem
		return
	}
	s.mu.Unlock()
	s.closeConn(pc)
	<-s.sem
}

// discard drops a broken connection and frees its slot.
func (s *ConnStore) discard(pc *poolConn) {
	s.closeConn(pc)
	<-s.sem
}

// flushIdle closes every pooled idle connection (none hold sem slots).
func (s *ConnStore) flushIdle() {
	s.mu.Lock()
	stale := s.idle
	s.idle = nil
	s.mu.Unlock()
	for _, pc := range stale {
		s.closeConn(pc)
	}
}

// redial replaces a just-discarded connection: peers pooled alongside
// a dead connection usually died with it (a server bounce), so the
// idle set is flushed before acquiring a (then freshly dialed) one.
func (s *ConnStore) redial() (*poolConn, error) {
	s.flushIdle()
	s.redials.Add(1)
	pc, err := s.acquire()
	if err != nil {
		return nil, fmt.Errorf("core: external store redial: %w", err)
	}
	return pc, nil
}

// settle routes a used connection back by health: live connections
// return to the pool, dead ones are dropped.
func (s *ConnStore) settle(pc *poolConn) {
	if pc.conn.Ping() == nil {
		s.release(pc)
		return
	}
	s.discard(pc)
}

// safeToReplay reports whether sql may be re-executed even though an
// earlier attempt might have reached the server: only statements the
// parser proves read-only (SELECT) qualify.
func safeToReplay(sql string) bool {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return false
	}
	_, isSelect := st.(*sqlmini.SelectStmt)
	return isSelect
}

// txControl matches statements that manipulate session transaction
// state — meaningless through a pooled autocommit Exec, where each
// statement may land on a different connection and a BEGIN would park
// an open transaction in the pool for an unrelated borrower.
func txControl(sql string) bool {
	i := 0
	for i < len(sql) && (sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' || sql[i] == '\r') {
		i++
	}
	rest := sql[i:]
	for _, kw := range [...]string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if len(rest) < len(kw) || !strings.EqualFold(rest[:len(kw)], kw) {
			continue
		}
		if len(rest) == len(kw) {
			return true
		}
		// Word boundary: don't trip on identifiers sharing the prefix.
		c := rest[len(kw)]
		if !(c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return true
		}
	}
	return false
}

// runRedial executes one attempt on a borrowed connection under the
// redial contract shared by every ConnStore round trip. attempt
// reports notSent=true when the operation provably never executed a
// statement (e.g. a prepare-phase failure); readOnly marks operations
// safe to replay even after an ambiguous failure.
//
// Classification: a live connection answering a ping means the error
// was the operation's own (constraint violation, bad SQL, ...) — pass
// it through and keep the connection. A dead connection is discarded;
// the operation retries once on a fresh dial ONLY when it provably
// never executed or is read-only, because a replay could double-apply
// a statement that reached the server just before the connection died
// — every other loss surfaces ErrExecOutcomeUnknown, and the idle
// peers are flushed (they usually died with the connection in a server
// bounce). A retry's failure is classified exactly like the first
// attempt's; there is no third try.
func (s *ConnStore) runRedial(readOnly bool, attempt func(pc *poolConn) (any, error, bool)) (any, error) {
	pc, err := s.acquire()
	if err != nil {
		return nil, err
	}
	v, err, notSent := attempt(pc)
	if err == nil {
		s.release(pc)
		return v, nil
	}
	if pc.conn.Ping() == nil {
		s.release(pc)
		return nil, err
	}
	s.discard(pc)
	if !notSent && !errors.Is(err, client.ErrStatementNotSent) && !readOnly {
		s.flushIdle()
		return nil, fmt.Errorf("%w: %v", ErrExecOutcomeUnknown, err)
	}
	pc2, dialErr := s.redial()
	if dialErr != nil {
		return nil, dialErr
	}
	v, err, notSent = attempt(pc2)
	if err != nil {
		if pc2.conn.Ping() == nil {
			s.release(pc2)
			return nil, err
		}
		s.discard(pc2)
		if !notSent && !errors.Is(err, client.ErrStatementNotSent) && !readOnly {
			return nil, fmt.Errorf("%w: %v", ErrExecOutcomeUnknown, err)
		}
		return nil, err // provably unexecuted (or harmless); no third try
	}
	s.release(pc2)
	return v, nil
}

// Exec implements Store. Transaction control is rejected: the pool
// gives each statement its own connection, so session transactions
// must go through Begin, which pins one.
func (s *ConnStore) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	if txControl(sql) {
		return nil, fmt.Errorf("core: external store: transaction control via Exec is not supported on a pooled store; use Begin()")
	}
	v, err := s.runRedial(safeToReplay(sql), func(pc *poolConn) (any, error, bool) {
		res, err := pc.conn.Exec(sql, args...)
		return res, err, false
	})
	if err != nil {
		return nil, err
	}
	return toStoreResult(v.(*client.Result)), nil
}

// Query implements row-returning statements (same path as Exec).
func (s *ConnStore) Query(sql string, args ...any) (*sqlmini.Result, error) {
	return s.Exec(sql, args...)
}

// Begin opens a transaction that owns one pooled connection
// until Commit/Rollback (per-tx affinity), so concurrent plain
// statements and other transactions proceed on their own connections.
func (s *ConnStore) Begin() (Tx, error) {
	pc, err := s.acquire()
	if err != nil {
		return nil, err
	}
	if err := pc.conn.Begin(); err != nil {
		if !errors.Is(err, client.ErrStatementNotSent) && pc.conn.Ping() == nil {
			s.release(pc)
			return nil, err
		}
		s.discard(pc)
		// BEGIN has no effect worth preserving; retry once on a fresh
		// connection.
		pc, err = s.redial()
		if err != nil {
			return nil, err
		}
		if err := pc.conn.Begin(); err != nil {
			s.settle(pc)
			return nil, err
		}
	}
	return &connTx{s: s, c: pc}, nil
}

type connTx struct {
	s      *ConnStore
	c      *poolConn
	done   bool
	broken bool
}

func (tx *connTx) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if tx.broken {
		return nil, fmt.Errorf("%w: transaction connection already lost", ErrExecOutcomeUnknown)
	}
	res, err := tx.c.conn.Exec(sql, args...)
	if err != nil {
		if tx.c.conn.Ping() != nil {
			tx.broken = true
			tx.s.flushIdle() // idle peers likely died with it
			return nil, fmt.Errorf("%w: %v", ErrExecOutcomeUnknown, err)
		}
		return nil, err
	}
	return toStoreResult(res), nil
}

func (tx *connTx) Query(sql string, args ...any) (*sqlmini.Result, error) {
	return tx.Exec(sql, args...)
}

func (tx *connTx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	if tx.broken {
		tx.s.discard(tx.c)
		// The remote rolls the open transaction back when the dead
		// session unwinds, but we cannot observe that: ambiguous.
		return fmt.Errorf("%w: commit on a lost transaction connection", ErrExecOutcomeUnknown)
	}
	if err := tx.c.conn.Commit(); err != nil {
		if tx.c.conn.Ping() != nil {
			tx.s.discard(tx.c)
			return fmt.Errorf("%w: %v", ErrExecOutcomeUnknown, err)
		}
		// A failed COMMIT on a live connection must not park a session
		// that is still inside (or aborted within) a transaction: later
		// borrowers would silently execute inside it. Only a connection
		// that provably left the transaction goes back to the pool.
		if tx.c.conn.InTx() {
			tx.s.discard(tx.c)
		} else {
			tx.s.release(tx.c)
		}
		return err
	}
	tx.s.release(tx.c)
	return nil
}

func (tx *connTx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	if tx.broken {
		// A lost connection aborts the remote transaction anyway.
		tx.s.discard(tx.c)
		return nil
	}
	err := tx.c.conn.Rollback()
	if err != nil {
		if tx.c.conn.Ping() != nil {
			tx.s.discard(tx.c)
			return nil // connection death == rollback
		}
		if tx.c.conn.InTx() {
			tx.s.discard(tx.c) // see Commit: never pool an open tx
			return err
		}
	}
	tx.s.release(tx.c)
	return err
}

// ExecBatch implements Store. When the driver connection supports
// batch frames (client.BatchConn — the dbms native driver does), the
// whole list travels in ONE wire round trip and executes atomically on
// the server. Otherwise the list runs statement-by-statement on one
// pinned connection inside BEGIN/COMMIT — still atomic, at N+2 round
// trips. Mid-batch connection loss is never replayed (batches carry
// mutations); it surfaces as ErrExecOutcomeUnknown.
func (s *ConnStore) ExecBatch(stmts []Statement) ([]*sqlmini.Result, error) {
	pc, err := s.acquire()
	if err != nil {
		return nil, err
	}
	if bc, ok := pc.conn.(client.BatchConn); ok {
		rs, err := bc.ExecBatch(true, stmts)
		if err == nil {
			s.release(pc)
			out := make([]*sqlmini.Result, len(rs))
			for i, r := range rs {
				out[i] = toStoreResult(r)
			}
			return out, nil
		}
		if pc.conn.Ping() == nil {
			s.release(pc)
			return nil, err
		}
		s.discard(pc)
		s.flushIdle() // idle peers likely died with it (server bounce)
		if errors.Is(err, client.ErrStatementNotSent) {
			// The frame never left: nothing executed; the caller may
			// retry, but we do not auto-replay mutating batches.
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrExecOutcomeUnknown, err)
	}
	// Non-batch connection: emulate atomicity with an explicit
	// transaction pinned to this connection. The release/Begin pair is
	// not a wasted dial: release pushes onto the idle stack and Begin's
	// acquire pops from it, so absent contention Begin reuses this very
	// connection.
	s.release(pc)
	tx, err := s.Begin()
	if err != nil {
		return nil, err
	}
	out := make([]*sqlmini.Result, len(stmts))
	for i, st := range stmts {
		if out[i], err = tx.Exec(st.SQL, st.Args...); err != nil {
			_ = tx.Rollback()
			return nil, fmt.Errorf("core: batch statement %d: %w", i+1, err)
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return out, nil
}

func toStoreResult(res *client.Result) *sqlmini.Result {
	return &sqlmini.Result{Cols: res.Cols, Rows: res.Rows, Affected: res.Affected}
}

// Prepare implements Store over remote prepared handles. The
// returned handle is store-level: each execution borrows a pooled
// connection and runs through THAT connection's server-side handle for
// the SQL text (prepared on first use, cached per connection, died and
// transparently re-prepared when the connection is replaced). Against
// sessions without the prepared-statements capability the handle
// executes as plain per-call SQL — one code path for the caller either
// way.
func (s *ConnStore) Prepare(sql string) (Stmt, error) {
	if txControl(sql) {
		return nil, fmt.Errorf("core: external store: transaction control cannot be prepared on a pooled store; use Begin()")
	}
	return &remoteStmt{s: s, sql: sql, readOnly: safeToReplay(sql)}, nil
}

// remoteStmt is ConnStore's store-level prepared handle.
type remoteStmt struct {
	s        *ConnStore
	sql      string
	readOnly bool // SELECT: provably safe to replay after an ambiguous failure
}

// errStmtFallback marks a per-connection condition (capability absent,
// handle cache full) under which the statement executes ad hoc on the
// same borrowed connection.
var errStmtFallback = errors.New("core: remote handle unavailable on this connection")

// stmtFor returns pc's remote handle for sql, preparing and caching it
// on first use. errStmtFallback means "run it ad hoc"; any other error
// is a prepare failure (the statement itself provably never executed).
func (s *ConnStore) stmtFor(pc *poolConn, sql string) (client.ConnStmt, error) {
	if h, ok := pc.stmts[sql]; ok {
		return h, nil
	}
	sc, ok := pc.conn.(client.StmtConn)
	if !ok {
		return nil, errStmtFallback
	}
	if fc, ok := pc.conn.(client.FeatureConn); ok && !fc.Supports(client.FeaturePreparedStatements) {
		return nil, errStmtFallback // negotiated session lacks the capability: no I/O wasted
	}
	if len(pc.stmts) >= maxConnStmts {
		return nil, errStmtFallback
	}
	h, err := sc.Prepare(sql)
	if err != nil {
		if errors.Is(err, client.ErrNotSupported) {
			return nil, errStmtFallback
		}
		return nil, err
	}
	if pc.stmts == nil {
		pc.stmts = make(map[string]client.ConnStmt)
	}
	pc.stmts[sql] = h
	s.prepares.Add(1)
	s.handlesLive.Add(1)
	return h, nil
}

// execPrepared runs one prepared execution on pc. notSent reports that
// the statement provably never executed (the failure happened in the
// prepare phase, which runs no statement), so the caller may replay on
// a fresh connection regardless of the statement's mutation class.
func (s *ConnStore) execPrepared(pc *poolConn, sql string, args []any) (res *client.Result, err error, notSent bool) {
	h, err := s.stmtFor(pc, sql)
	if err != nil {
		if errors.Is(err, errStmtFallback) {
			res, err = pc.conn.Exec(sql, args...)
			return res, err, false
		}
		return nil, err, true // prepare-phase failure: statement never ran
	}
	res, err = h.Exec(args...)
	return res, err, false
}

// Exec implements Stmt under the shared redial contract (runRedial): a
// connection death invalidates the connection's handles and retries
// once on a fresh dial — which re-prepares transparently — ONLY when
// the statement provably never executed or is read-only.
func (st *remoteStmt) Exec(args ...any) (*sqlmini.Result, error) {
	v, err := st.s.runRedial(st.readOnly, func(pc *poolConn) (any, error, bool) {
		res, err, notSent := st.s.execPrepared(pc, st.sql, args)
		return res, err, notSent
	})
	if err != nil {
		return nil, err
	}
	return toStoreResult(v.(*client.Result)), nil
}

// Close implements Stmt. The store-level handle owns no connection
// state of its own — per-connection server handles are released when
// their connections retire — so Close is a no-op.
func (st *remoteStmt) Close() error { return nil }

// Versions implements Store with one table-versions probe for both
// tables, under the shared redial contract: a probe executes no
// statement, so an ambiguous connection death always permits one retry
// on a fresh dial. Table versions only grow, so the pair is as
// monotonic as LocalStore's. A probe refused with client.ErrNotSupported
// marks the store version-blind for good; any other failure reports
// ok == false for this call only, and the SQL path the server then
// takes surfaces the outage.
func (s *ConnStore) Versions() (drivers, perms uint64, ok bool) {
	if s.noVersions.Load() {
		return 0, 0, false
	}
	v, err := s.runRedial(true, func(pc *poolConn) (any, error, bool) {
		tvc, ok := pc.conn.(client.TableVersionConn)
		if !ok {
			return nil, client.ErrNotSupported, true
		}
		vs, err := tvc.TableVersions(DriversTable, PermissionTable)
		return vs, err, false
	})
	if err != nil {
		if errors.Is(err, client.ErrNotSupported) {
			s.noVersions.Store(true)
		}
		return 0, 0, false
	}
	vs := v.([]uint64)
	return vs[0], vs[1], true
}

// ConnStoreStats is a point-in-time view of pool and remote-session
// health, for operators watching an external deployment.
type ConnStoreStats struct {
	// InUse counts connections currently borrowed (statements,
	// transactions, batches, and version probes in flight).
	InUse int
	// Idle counts healthy connections parked in the pool.
	Idle int
	// Dials counts fresh connections established since creation.
	Dials int64
	// Redials counts replacement dials after a connection death — a
	// rising rate means the legacy database (or the path to it) is
	// flapping.
	Redials int64
	// RemotePrepares counts server-side prepared handles created
	// (msgPrepare round trips). Steady state should show this plateau
	// at roughly (statement vocabulary × pool size).
	RemotePrepares int64
	// RemoteHandlesLive counts handles currently cached on live pooled
	// connections.
	RemoteHandlesLive int64
}

// Stats reports current pool and session health.
func (s *ConnStore) Stats() ConnStoreStats {
	s.mu.Lock()
	idle := len(s.idle)
	s.mu.Unlock()
	return ConnStoreStats{
		// Idle connections hold no semaphore tokens, so every token
		// belongs to an in-flight borrower.
		InUse:             len(s.sem),
		Idle:              idle,
		Dials:             s.dials.Load(),
		Redials:           s.redials.Load(),
		RemotePrepares:    s.prepares.Load(),
		RemoteHandlesLive: s.handlesLive.Load(),
	}
}

// Close releases all pooled connections. In-flight borrowers settle
// their connections afterwards (closed on release).
func (s *ConnStore) Close() {
	s.mu.Lock()
	idle := s.idle
	s.idle = nil
	s.closed = true
	s.mu.Unlock()
	for _, pc := range idle {
		s.closeConn(pc)
	}
}
