package dbms

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Server is one simulated DBMS instance: a TCP endpoint serving one or
// more named sqlmini databases. Servers are restartable (Stop then Start)
// to model maintenance windows (paper §5.2).
type Server struct {
	name          string
	engineVersion dbver.Version
	protoMin      uint16 // lowest wire-protocol version accepted
	protoMax      uint16 // highest wire-protocol version spoken
	users         map[string]string
	logf          func(format string, args ...any)

	handshakeTimeout time.Duration // first-frame deadline per connection
	writeTimeout     time.Duration // per-frame send deadline

	mu        sync.Mutex
	dbs       map[string]*sqlmini.DB
	readOnly  bool
	replicas  []*Server
	ln        net.Listener
	stopped   bool
	sessions  map[*session]struct{}
	nextSID   uint64
	userConns map[string]int

	wg sync.WaitGroup

	// counters for benchmarks and experiments
	queries       atomic.Int64
	batches       atomic.Int64
	prepares      atomic.Int64
	stmtExecs     atomic.Int64
	versionProbes atomic.Int64
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithEngineVersion sets the reported engine version.
func WithEngineVersion(v dbver.Version) ServerOption {
	return func(s *Server) { s.engineVersion = v }
}

// WithProtocolVersion pins the engine to exactly one wire-protocol
// version: clients whose offered range does not include it are rejected
// at connect time — the paper's step-5 incompatibility. (The default
// server instead speaks the [ProtocolV1, ProtocolV2] range and
// negotiates down for old drivers.)
func WithProtocolVersion(v uint16) ServerOption {
	return func(s *Server) { s.protoMin, s.protoMax = v, v }
}

// WithProtocolRange makes the engine accept any client whose offered
// version range overlaps [min, max], negotiating the highest version
// both sides share.
func WithProtocolRange(min, max uint16) ServerOption {
	return func(s *Server) {
		s.protoMin, s.protoMax = min, max
		if s.protoMax < s.protoMin {
			s.protoMax = s.protoMin
		}
	}
}

// WithUser adds an authentication entry.
func WithUser(user, password string) ServerOption {
	return func(s *Server) { s.users[user] = password }
}

// WithReadOnly marks the server as a read-only replica: client mutations
// are rejected, replicated statements still apply.
func WithReadOnly() ServerOption {
	return func(s *Server) { s.readOnly = true }
}

// WithLogger routes server diagnostics; default is silent.
func WithLogger(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithHandshakeTimeout bounds how long an accepted connection may take
// to deliver its hello; default faultnet.DefaultHandshakeTimeout.
func WithHandshakeTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.handshakeTimeout = d }
}

// WithWriteTimeout bounds every frame the server sends, so a client
// that stops reading mid-result cannot wedge its session goroutine;
// default faultnet.DefaultWriteTimeout.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// NewServer creates a DBMS instance named name. At least one database
// must be attached with AddDatabase before clients can connect to it.
func NewServer(name string, opts ...ServerOption) *Server {
	s := &Server{
		name:             name,
		engineVersion:    dbver.V(1, 0, 0),
		protoMin:         ProtocolV1,
		protoMax:         ProtocolV2,
		handshakeTimeout: faultnet.DefaultHandshakeTimeout,
		writeTimeout:     faultnet.DefaultWriteTimeout,
		users:            map[string]string{},
		dbs:              map[string]*sqlmini.DB{},
		sessions:         map[*session]struct{}{},
		userConns:        map[string]int{},
		logf:             func(string, ...any) {},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// EngineVersion returns the engine version.
func (s *Server) EngineVersion() dbver.Version { return s.engineVersion }

// ProtocolVersion returns the highest wire-protocol version this engine
// speaks (see ProtocolRange for the full accepted range).
func (s *Server) ProtocolVersion() uint16 { return s.protoMax }

// ProtocolRange returns the accepted wire-protocol version range.
func (s *Server) ProtocolRange() (min, max uint16) { return s.protoMin, s.protoMax }

// AddDatabase attaches db under the given name.
func (s *Server) AddDatabase(name string, db *sqlmini.DB) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dbs[name] = db
}

// Database returns the named database, or nil.
func (s *Server) Database(name string) *sqlmini.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dbs[name]
}

// Databases lists attached database names.
func (s *Server) Databases() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		out = append(out, n)
	}
	return out
}

// AttachReplica registers r to receive every mutating statement applied
// on this server (statement-based replication). Initial state transfers
// via Snapshot/Restore; see SyncReplica.
func (s *Server) AttachReplica(r *Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replicas = append(s.replicas, r)
}

// DetachReplica removes r from the replication fan-out.
func (s *Server) DetachReplica(r *Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, x := range s.replicas {
		if x == r {
			s.replicas = append(s.replicas[:i], s.replicas[i+1:]...)
			return
		}
	}
}

// SyncReplica copies every database's current state into r.
func (s *Server) SyncReplica(r *Server) error {
	s.mu.Lock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	s.mu.Unlock()
	for _, n := range names {
		src := s.Database(n)
		dst := r.Database(n)
		if dst == nil {
			dst = sqlmini.NewDB()
			r.AddDatabase(n, dst)
		}
		if err := dst.Restore(src.Snapshot()); err != nil {
			return fmt.Errorf("dbms: sync replica %s/%s: %w", r.name, n, err)
		}
	}
	return nil
}

// Start listens on addr ("127.0.0.1:0" picks a free port) and serves
// until Stop.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dbms: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("dbms: server %s already started", s.name)
	}
	s.ln = ln
	s.stopped = false
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the listen address, or "" when stopped.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
		}()
	}
}

// Stop closes the listener and force-disconnects every session, then
// waits for all connection goroutines to exit. Databases and their
// contents survive; Start may be called again (maintenance window).
func (s *Server) Stop() {
	s.mu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
		s.ln = nil
	}
	s.stopped = true
	for sess := range s.sessions {
		_ = sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.sessions = map[*session]struct{}{}
	s.userConns = map[string]int{}
	s.mu.Unlock()
}

// ActiveSessions reports the number of connected client sessions.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// UserHasSession reports whether any live session authenticated as user —
// the in-engine failure detector for the license server (paper §5.4.2:
// "If the Drivolution Server is tightly integrated with the database, it
// can check if any connection with the client is still active").
func (s *Server) UserHasSession(user string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.userConns[user] > 0
}

// QueriesServed reports the total statements executed.
func (s *Server) QueriesServed() int64 { return s.queries.Load() }

// BatchesServed reports the number of msgExecBatch frames handled —
// each one a single wire round trip regardless of statement count.
func (s *Server) BatchesServed() int64 { return s.batches.Load() }

// PreparesServed reports msgPrepare frames handled — each one a
// server-side parse that every subsequent msgExecStmt of the handle
// skips.
func (s *Server) PreparesServed() int64 { return s.prepares.Load() }

// StmtExecsServed reports prepared-handle executions (msgExecStmt).
// These also count in QueriesServed: they are statements executed,
// just without the per-call parse.
func (s *Server) StmtExecsServed() int64 { return s.stmtExecs.Load() }

// VersionProbesServed reports msgTableVersions probes. Probes read
// in-memory counters and execute no SQL, so they do NOT count in
// QueriesServed.
func (s *Server) VersionProbesServed() int64 { return s.versionProbes.Load() }

// DisconnectUser force-closes every session authenticated as user and
// returns how many were closed — the paper's §3.2 option of enforcing
// connection revocation "in the database server, if the Drivolution
// Server is tightly integrated with the database engine".
func (s *Server) DisconnectUser(user string) int {
	s.mu.Lock()
	var victims []*session
	for sess := range s.sessions {
		if sess.user == user {
			victims = append(victims, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range victims {
		_ = sess.conn.Close()
	}
	return len(victims)
}

type session struct {
	id    uint64
	conn  *wire.Conn
	user  string
	db    string
	sql   *sqlmini.Session
	proto uint16 // negotiated protocol version
	caps  uint32 // negotiated capability mask

	// stmts is the session's prepared-handle table: server-side cached
	// sqlmini.Prepared keyed by handle id. Only the session's serve
	// goroutine touches it, it is bounded at maxSessionStmts, and it is
	// swept wholesale on disconnect (serveConn return drops the map and
	// every handle with it).
	stmts    map[uint64]*sessStmt
	nextStmt uint64
}

// sessStmt is one server-side prepared handle: the reusable engine
// handle plus the statement's text (replication ships SQL) and its
// mutation classification (read-only gate, replication trigger).
type sessStmt struct {
	p        *sqlmini.Prepared
	sql      string
	mutating bool
}

// maxSessionStmts bounds one session's prepared-handle table. The
// statement vocabulary of a real client is small (the Drivolution
// server's fits in a few dozen); the bound exists so a leaky client
// cannot grow server memory without limit.
const maxSessionStmts = 256

// negotiateVersion intersects the client's offered version range with
// the server's: the highest version inside both ranges wins.
func negotiateVersion(cMin, cMax, sMin, sMax uint16) (uint16, bool) {
	neg := cMax
	if sMax < neg {
		neg = sMax
	}
	lo := cMin
	if sMin > lo {
		lo = sMin
	}
	if neg < lo {
		return 0, false
	}
	return neg, true
}

func (s *Server) serveConn(nc net.Conn) {
	conn := wire.NewConn(nc)
	defer conn.Close()
	conn.SetWriteTimeout(s.writeTimeout)

	// Handshake with a deadline so stalled dialers can't pin goroutines.
	f, err := conn.RecvTimeout(s.handshakeTimeout)
	if err != nil {
		return
	}
	if f.Type != msgHello {
		_ = conn.Send(msgError, encodeError(codeProtocolMismatch, "expected hello"))
		return
	}
	hello, err := decodeHello(f.Payload)
	if err != nil {
		_ = conn.Send(msgError, encodeError(codeProtocolMismatch, "malformed hello"))
		return
	}
	cMin, cMax := hello.MinProtocolVersion, hello.ProtocolVersion
	if cMin > cMax {
		cMin = cMax // defensive: a confused client still gets a sane range
	}
	neg, ok := negotiateVersion(cMin, cMax, s.protoMin, s.protoMax)
	if !ok {
		_ = conn.Send(msgError, encodeError(codeProtocolMismatch,
			fmt.Sprintf("server %s speaks protocols %d..%d, driver offered %d..%d (%s)",
				s.name, s.protoMin, s.protoMax, cMin, cMax, hello.ClientInfo)))
		return
	}
	caps := capsForVersion(neg) & hello.Capabilities
	if pw, ok := s.users[hello.User]; !ok || pw != hello.Password {
		_ = conn.Send(msgError, encodeError(codeAuthFailed,
			fmt.Sprintf("authentication failed for user %q", hello.User)))
		return
	}
	db := s.Database(hello.Database)
	if db == nil {
		_ = conn.Send(msgError, encodeError(codeNoDatabase,
			fmt.Sprintf("no database %q on server %s", hello.Database, s.name)))
		return
	}

	sess := &session{conn: conn, user: hello.User, db: hello.Database,
		sql: db.NewSession(), proto: neg, caps: caps}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = conn.Send(msgError, encodeError(codeShutdown, "server stopping"))
		return
	}
	s.nextSID++
	sess.id = s.nextSID
	s.sessions[sess] = struct{}{}
	s.userConns[hello.User]++
	s.mu.Unlock()

	defer func() {
		sess.sql.Close()
		s.mu.Lock()
		delete(s.sessions, sess)
		s.userConns[sess.user]--
		s.mu.Unlock()
	}()

	if err := conn.Send(msgHelloOK, helloOKMsg{
		ServerName:      s.name,
		ServerVersion:   s.engineVersion.String(),
		ProtocolVersion: sess.proto,
		SessionID:       sess.id,
		Capabilities:    sess.caps,
	}.encode()); err != nil {
		return
	}

	for {
		f, err := conn.Recv()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("dbms %s: session %d read: %v", s.name, sess.id, err)
			}
			return
		}
		switch f.Type {
		case msgPing:
			if err := conn.Send(msgPong, nil); err != nil {
				return
			}
		case msgExec:
			if err := s.handleExec(sess, f.Payload); err != nil {
				return
			}
		case msgExecBatch:
			if err := s.handleExecBatch(sess, f.Payload); err != nil {
				return
			}
		case msgPrepare:
			if err := s.handlePrepare(sess, f.Payload); err != nil {
				return
			}
		case msgExecStmt:
			if err := s.handleExecStmt(sess, f.Payload); err != nil {
				return
			}
		case msgCloseStmt:
			if err := s.handleCloseStmt(sess, f.Payload); err != nil {
				return
			}
		case msgTableVersions:
			if err := s.handleTableVersions(sess, f.Payload); err != nil {
				return
			}
		default:
			_ = conn.Send(msgError, encodeError(codeQueryError,
				fmt.Sprintf("unexpected frame type 0x%04x", f.Type)))
		}
	}
}

func (s *Server) handleExec(sess *session, payload []byte) error {
	m, err := decodeExec(payload)
	if err != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, "malformed exec: "+err.Error()))
	}
	s.queries.Add(1)

	mutating, parseErr := isMutating(m.SQL)
	if parseErr != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, parseErr.Error()))
	}
	if mutating && s.isReadOnly() {
		return sess.conn.Send(msgError, encodeError(codeReadOnly,
			fmt.Sprintf("server %s is a read-only replica", s.name)))
	}

	res, err := execOn(sess.sql, m)
	if err != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, err.Error()))
	}
	if mutating {
		s.replicate(sess.db, m)
	}
	return sess.conn.Send(msgResult, encodeResult(res))
}

// handleExecBatch executes one msgExecBatch frame: N statements on the
// session, one reply frame. The whole frame is validated up front
// (parse + read-only gate, and for atomic batches the no-tx-control /
// no-DDL rules), so an invalid batch is rejected before ANY statement
// executes — the one observable difference from sending the statements
// frame by frame. Atomic batches run through the engine's
// ExecBatchAtomic under one lock hold — atomic AND isolated, the whole
// frame applies or none of it — replicate only on success, and are
// refused while the session already holds a client transaction (the
// rollback promise could not be honored). Non-atomic batches may carry
// their own BEGIN/COMMIT/ROLLBACK statements and otherwise behave like
// per-frame statements: an applied prefix before a mid-batch execution
// failure persists and replicates.
func (s *Server) handleExecBatch(sess *session, payload []byte) error {
	bm, err := decodeBatch(payload)
	if err != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, "malformed batch: "+err.Error()))
	}
	s.queries.Add(int64(len(bm.Stmts)))
	s.batches.Add(1)

	reply := batchResultMsg{ErrIndex: -1}
	fail := func(i int, code uint16, msg string) error {
		reply.ErrIndex, reply.ErrCode, reply.ErrMsg = int32(i), code, msg
		return sess.conn.Send(msgBatchResult, reply.encode())
	}

	muts := make([]bool, len(bm.Stmts))
	for i, m := range bm.Stmts {
		st, perr := sqlmini.Parse(m.SQL)
		if perr != nil {
			return fail(i, codeQueryError, perr.Error())
		}
		if bm.Atomic {
			switch st.(type) {
			case *sqlmini.BeginStmt, *sqlmini.CommitStmt, *sqlmini.RollbackStmt:
				return fail(i, codeQueryError, "transaction control inside an atomic batch")
			case *sqlmini.CreateTableStmt, *sqlmini.CreateIndexStmt, *sqlmini.DropTableStmt:
				// DDL never reaches the undo log, so the wrapping
				// ROLLBACK could not revert it — same contract as
				// LocalStore's ExecBatchAtomic.
				return fail(i, codeQueryError, "DDL cannot roll back and is not batchable atomically")
			}
		}
		muts[i] = isMutatingStmt(st)
		if muts[i] && s.isReadOnly() {
			return fail(i, codeReadOnly, fmt.Sprintf("server %s is a read-only replica", s.name))
		}
	}

	if bm.Atomic {
		if sess.sql.InTx() {
			// Inside a client transaction the server cannot honor the
			// atomic-batch contract: a mid-batch failure could not roll
			// back the prefix without clobbering the client's
			// transaction, and replication would outrun the outer
			// commit. Refuse rather than silently weaken the promise.
			return fail(-1, codeQueryError, "atomic batch inside an open transaction")
		}
		results, err := s.execBatchAtomic(sess.db, bm.Stmts, muts)
		if err != nil {
			// The engine error text names the failing statement's
			// position; there is no partial result to report.
			return fail(-1, codeQueryError, err.Error())
		}
		reply.Results = results
		return sess.conn.Send(msgBatchResult, reply.encode())
	}
	for i, m := range bm.Stmts {
		res, execErr := execOn(sess.sql, m)
		if execErr != nil {
			return fail(i, codeQueryError, execErr.Error())
		}
		reply.Results = append(reply.Results, res)
		if muts[i] {
			// Non-atomic batches replicate statement by statement,
			// exactly like the same statements sent one frame at a
			// time — an applied prefix before a mid-batch failure
			// must reach the replicas too.
			s.replicate(sess.db, m)
		}
	}
	return sess.conn.Send(msgBatchResult, reply.encode())
}

// execBatchAtomic runs stmts on the named database through the
// engine's atomic batch — ONE lock hold for the whole list, so the unit
// is atomic AND isolated: a mid-batch failure reverts exactly this
// batch's effects (a session-level BEGIN/ROLLBACK wrapper would release
// the lock between statements, and its rollback could clobber an
// interleaved session's committed write). The mutating statements
// (muts) replicate only once the whole unit applied.
func (s *Server) execBatchAtomic(dbName string, stmts []execMsg, muts []bool) ([]*sqlmini.Result, error) {
	bs := make([]sqlmini.BatchStmt, len(stmts))
	for i, m := range stmts {
		bs[i] = sqlmini.BatchStmt{SQL: m.SQL, Args: m.args()}
	}
	results, err := s.Database(dbName).ExecBatchAtomic(bs)
	if err != nil {
		return nil, err
	}
	for i, m := range stmts {
		if muts[i] {
			s.replicate(dbName, m)
		}
	}
	return results, nil
}

// handlePrepare registers one statement in the session's handle table:
// parsed (and plan-analyzed lazily) once server-side, so every
// msgExecStmt of the handle skips the per-call parse that makes plain
// msgExec re-do the whole statement. Capability-gated: only sessions
// that negotiated CapPreparedStatements may grow server state.
func (s *Server) handlePrepare(sess *session, payload []byte) error {
	if sess.caps&CapPreparedStatements == 0 {
		return sess.conn.Send(msgError, encodeError(codeNotSupported,
			"prepared statements were not negotiated on this session"))
	}
	m, err := decodePrepare(payload)
	if err != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, "malformed prepare: "+err.Error()))
	}
	if len(sess.stmts) >= maxSessionStmts {
		return sess.conn.Send(msgError, encodeError(codeQueryError,
			fmt.Sprintf("session already holds %d prepared statements (limit)", maxSessionStmts)))
	}
	mutating, perr := isMutating(m.SQL)
	if perr != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, perr.Error()))
	}
	db := s.Database(sess.db)
	if db == nil {
		return sess.conn.Send(msgError, encodeError(codeNoDatabase,
			fmt.Sprintf("database %q was detached", sess.db)))
	}
	p, perr := db.Prepare(m.SQL)
	if perr != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, perr.Error()))
	}
	s.prepares.Add(1)
	if sess.stmts == nil {
		sess.stmts = make(map[uint64]*sessStmt)
	}
	sess.nextStmt++
	sess.stmts[sess.nextStmt] = &sessStmt{p: p, sql: m.SQL, mutating: mutating}
	return sess.conn.Send(msgPrepareOK, prepareOKMsg{Handle: sess.nextStmt, Mutating: mutating}.encode())
}

// handleExecStmt executes one prepared handle with this call's
// arguments. Semantics match msgExec of the same SQL exactly: the
// statement joins the session's open transaction if any, the read-only
// gate applies at execution time (the replica flag can flip between
// prepare and exec), mutations replicate by statement text, and the
// reply is msgResult/msgError in the same shapes.
func (s *Server) handleExecStmt(sess *session, payload []byte) error {
	if sess.caps&CapPreparedStatements == 0 {
		return sess.conn.Send(msgError, encodeError(codeNotSupported,
			"prepared statements were not negotiated on this session"))
	}
	m, err := decodeExecStmt(payload)
	if err != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, "malformed exec-stmt: "+err.Error()))
	}
	h, ok := sess.stmts[m.Handle]
	if !ok {
		return sess.conn.Send(msgError, encodeError(codeBadHandle,
			fmt.Sprintf("no prepared statement with handle %d on this session", m.Handle)))
	}
	s.queries.Add(1)
	s.stmtExecs.Add(1)
	if h.mutating && s.isReadOnly() {
		return sess.conn.Send(msgError, encodeError(codeReadOnly,
			fmt.Sprintf("server %s is a read-only replica", s.name)))
	}
	res, execErr := sess.sql.ExecPrepared(h.p, wireArgs(m.Named, m.Positional)...)
	if execErr != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, execErr.Error()))
	}
	if h.mutating {
		s.replicate(sess.db, execMsg{SQL: h.sql, Named: m.Named, Positional: m.Positional})
	}
	return sess.conn.Send(msgResult, encodeResult(res))
}

// handleCloseStmt drops one handle from the session table. Closing an
// unknown handle succeeds: client caches close fire-and-forget on
// eviction, and a double-close race must not kill the session.
func (s *Server) handleCloseStmt(sess *session, payload []byte) error {
	if sess.caps&CapPreparedStatements == 0 {
		return sess.conn.Send(msgError, encodeError(codeNotSupported,
			"prepared statements were not negotiated on this session"))
	}
	m, err := decodeCloseStmt(payload)
	if err != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, "malformed close-stmt: "+err.Error()))
	}
	delete(sess.stmts, m.Handle)
	return sess.conn.Send(msgCloseStmtOK, nil)
}

// handleTableVersions answers a generation probe: the per-table
// mutation counters of the session's database, read from in-memory
// state — no SQL executes, so a cache-validation round trip costs the
// legacy DBMS nothing but a frame.
func (s *Server) handleTableVersions(sess *session, payload []byte) error {
	if sess.caps&CapTableVersions == 0 {
		return sess.conn.Send(msgError, encodeError(codeNotSupported,
			"table-version probes were not negotiated on this session"))
	}
	m, err := decodeTableVersions(payload)
	if err != nil {
		return sess.conn.Send(msgError, encodeError(codeQueryError, "malformed table-versions: "+err.Error()))
	}
	db := s.Database(sess.db)
	if db == nil {
		return sess.conn.Send(msgError, encodeError(codeNoDatabase,
			fmt.Sprintf("database %q was detached", sess.db)))
	}
	s.versionProbes.Add(1)
	reply := tableVersionsOKMsg{Versions: make([]uint64, len(m.Names))}
	for i, name := range m.Names {
		reply.Versions[i] = db.TableVersion(name)
	}
	return sess.conn.Send(msgTableVersionsOK, reply.encode())
}

func (s *Server) isReadOnly() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readOnly
}

// SetReadOnly flips the replica flag at run time (used when promoting a
// slave during failover).
func (s *Server) SetReadOnly(ro bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readOnly = ro
}

// wireArgs converts wire parameters to the engine's argument form —
// the single conversion exec, batch, and prepared-handle execution all
// go through.
func wireArgs(named map[string]sqlmini.Value, positional []sqlmini.Value) []any {
	if len(named) > 0 {
		args := sqlmini.Args{}
		for k, v := range named {
			args[k] = v
		}
		return []any{args}
	}
	args := make([]any, len(positional))
	for i, v := range positional {
		args[i] = v
	}
	return args
}

func (m execMsg) args() []any { return wireArgs(m.Named, m.Positional) }

func execOn(sess *sqlmini.Session, m execMsg) (*sqlmini.Result, error) {
	return sess.Exec(m.SQL, m.args()...)
}

// replicate ships a mutating statement to every attached replica.
// Statement-based replication applies synchronously in autocommit on the
// replica; explicit-transaction interleavings are out of scope for this
// substrate (documented in DESIGN.md).
func (s *Server) replicate(dbName string, m execMsg) {
	s.mu.Lock()
	replicas := append([]*Server(nil), s.replicas...)
	s.mu.Unlock()
	for _, r := range replicas {
		if err := r.ApplyReplicated(dbName, m); err != nil {
			s.logf("dbms %s: replicate to %s: %v", s.name, r.name, err)
		}
	}
}

// ApplyReplicated applies a statement shipped from a master, bypassing
// the read-only gate.
func (s *Server) ApplyReplicated(dbName string, m execMsg) error {
	db := s.Database(dbName)
	if db == nil {
		return fmt.Errorf("dbms %s: replicated statement for unknown database %q", s.name, dbName)
	}
	sess := db.NewSession()
	defer sess.Close()
	_, err := execOn(sess, m)
	return err
}

// Execute runs one statement on the named database in-process — no
// wire connection — and ships it to attached replicas when it mutates,
// exactly like a statement arriving over the protocol. Cluster members
// embed a non-listening Server purely as a replication hub and funnel
// their store writes through here, so every member's local database
// converges with its peers'.
func (s *Server) Execute(dbName, sql string, args ...any) (*sqlmini.Result, error) {
	db := s.Database(dbName)
	if db == nil {
		return nil, fmt.Errorf("dbms %s: no database %q", s.name, dbName)
	}
	m, err := marshalExec(sql, args)
	if err != nil {
		return nil, err
	}
	mutating, err := isMutating(sql)
	if err != nil {
		return nil, err
	}
	s.queries.Add(1)
	sess := db.NewSession()
	defer sess.Close()
	res, err := execOn(sess, m)
	if err != nil {
		return nil, err
	}
	if mutating {
		s.replicate(dbName, m)
	}
	return res, nil
}

// ExecuteBatch is Execute for a statement list that applies as one
// atomic unit, the in-process twin of an atomic msgExecBatch frame:
// every statement applies or none does, and replicas receive the
// mutating ones only once the whole unit applied.
func (s *Server) ExecuteBatch(dbName string, stmts []client.Statement) ([]*sqlmini.Result, error) {
	if s.Database(dbName) == nil {
		return nil, fmt.Errorf("dbms %s: no database %q", s.name, dbName)
	}
	ms := make([]execMsg, len(stmts))
	muts := make([]bool, len(stmts))
	for i, st := range stmts {
		var err error
		if ms[i], err = marshalExec(st.SQL, st.Args); err == nil {
			muts[i], err = isMutating(st.SQL)
		}
		if err != nil {
			return nil, fmt.Errorf("dbms: batch statement %d: %w", i+1, err)
		}
	}
	s.queries.Add(int64(len(stmts)))
	return s.execBatchAtomic(dbName, ms, muts)
}

// isMutating classifies a statement by its parsed type.
func isMutating(sql string) (bool, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return false, err
	}
	return isMutatingStmt(st), nil
}

func isMutatingStmt(st sqlmini.Statement) bool {
	switch st.(type) {
	case *sqlmini.InsertStmt, *sqlmini.UpdateStmt, *sqlmini.DeleteStmt,
		*sqlmini.CreateTableStmt, *sqlmini.CreateIndexStmt, *sqlmini.DropTableStmt:
		return true
	default:
		return false
	}
}
