package dbms

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

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

	withoutCaps uint32 // capabilities withheld from every session (an older build)

	mu        sync.Mutex
	dbs       map[string]*sqlmini.DB
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
	replFailures  atomic.Int64
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

// WithUser adds an authentication entry.
func WithUser(user, password string) ServerOption {
	return func(s *Server) { s.users[user] = password }
}

// NewServer creates a DBMS instance named name. At least one database
// must be attached with AddDatabase before clients can connect to it.
func NewServer(name string, opts ...ServerOption) *Server {
	s := &Server{
		name:          name,
		engineVersion: dbver.V(1, 0, 0),
		protoMin:      ProtocolV1,
		protoMax:      ProtocolV2,
		users:         map[string]string{},
		dbs:           map[string]*sqlmini.DB{},
		sessions:      map[*session]struct{}{},
		userConns:     map[string]int{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

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

// AttachReplica registers r to receive every mutating statement applied
// on this server from now on (statement-based replication): a replica
// starts from the same state as its master, and statements are the only
// way state reaches it.
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

// ReplicationFailures reports statements a replica failed to apply,
// one per replica and statement. The replica has diverged from this
// server from then on: nothing retries the statement.
func (s *Server) ReplicationFailures() int64 { return s.replFailures.Load() }

type session struct {
	id     uint64
	conn   *wire.Conn
	user   string
	db     string
	engine *sqlmini.DB // the database sql executes on
	sql    *sqlmini.Session
	proto  uint16 // negotiated protocol version
	caps   uint32 // negotiated capability mask

	// watch is the table list of the session's version watch (a
	// watch-flagged msgTableVersions; nil without one): every msgResult
	// and msgBatchResult appends their counters, read into versions.
	watch    []string
	versions []uint64

	// frame is the session's decode scratch: every msgExec and
	// msgExecStmt binds its arguments into frame.params, which the
	// statement's execution and replication read before the next frame.
	frame execFrame

	// stmts is the session's prepared-handle table: server-side
	// sqlmini.Prepared keyed by handle id. Only the session's serve
	// goroutine touches it, it is bounded at maxSessionStmts, and it is
	// swept wholesale on disconnect (serveConn return drops the map and
	// every handle with it).
	stmts    map[uint64]*sqlmini.Prepared
	nextStmt uint64
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
	conn.SetWriteTimeout(faultnet.DefaultWriteTimeout)

	// Handshake with a deadline so stalled dialers can't pin goroutines.
	f, err := conn.RecvTimeout(faultnet.DefaultHandshakeTimeout)
	if err != nil {
		return
	}
	if f.Type != msgHello {
		_ = refuse(conn, errorf(codeProtocolMismatch, "expected hello"))
		return
	}
	var hello helloMsg
	if err := wire.Unmarshal(f.Payload, &hello); err != nil {
		_ = refuse(conn, errorf(codeProtocolMismatch, "malformed hello"))
		return
	}
	cMin, cMax := hello.MinProtocolVersion, hello.ProtocolVersion
	if cMin > cMax {
		cMin = cMax // defensive: a confused client still gets a sane range
	}
	neg, ok := negotiateVersion(cMin, cMax, s.protoMin, s.protoMax)
	if !ok {
		_ = refuse(conn, errorf(codeProtocolMismatch, "server %s speaks protocols %d..%d, driver offered %d..%d (%s)",
			s.name, s.protoMin, s.protoMax, cMin, cMax, hello.ClientInfo))
		return
	}
	caps := capsForVersion(neg) & hello.Capabilities &^ s.withoutCaps
	if pw, ok := s.users[hello.User]; !ok || pw != hello.Password {
		_ = refuse(conn, errorf(codeAuthFailed, "authentication failed for user %q", hello.User))
		return
	}
	db := s.Database(hello.Database)
	if db == nil {
		_ = refuse(conn, errorf(codeNoDatabase, "no database %q on server %s", hello.Database, s.name))
		return
	}

	sess := &session{conn: conn, user: hello.User, db: hello.Database,
		engine: db, sql: db.NewSession(), proto: neg, caps: caps}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = refuse(conn, errorf(codeShutdown, "server stopping"))
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

	if err := conn.Send(msgHelloOK, wire.Marshal(&helloOKMsg{
		ServerName:      s.name,
		ServerVersion:   s.engineVersion.String(),
		ProtocolVersion: sess.proto,
		SessionID:       sess.id,
		Capabilities:    sess.caps,
	})); err != nil {
		return
	}

	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		switch f.Type {
		case msgPing:
			err = conn.Send(msgPong, nil)
		case msgExec:
			err = s.handleExec(sess, f.Payload)
		case msgExecBatch:
			err = s.handleExecBatch(sess, f.Payload)
		case msgPrepare:
			err = s.handlePrepare(sess, f.Payload)
		case msgExecStmt:
			err = s.handleExecStmt(sess, f.Payload)
		case msgCloseStmt:
			err = s.handleCloseStmt(sess, f.Payload)
		case msgTableVersions:
			err = s.handleTableVersions(sess, f.Payload)
		default:
			_ = refuse(conn, fmt.Errorf("unexpected frame type 0x%04x", f.Type))
		}
		if err != nil {
			return
		}
	}
}

// errorf builds a refusal that goes out with a code other than
// codeQueryError (which every plain error carries; see refuse).
func errorf(code uint16, format string, args ...any) *serverError {
	return &serverError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errNoPrepared refuses the prepared-handle frames of a session that
// did not negotiate CapPreparedStatements.
var errNoPrepared = errorf(codeNotSupported, "prepared statements were not negotiated on this session")

// asServerError gives err its wire form: a *serverError keeps its code,
// any other error (an engine error, a malformed payload) is a query
// error carrying its text.
func asServerError(err error) *serverError {
	var se *serverError
	if errors.As(err, &se) {
		return se
	}
	return &serverError{code: codeQueryError, msg: err.Error()}
}

// refuse answers the frame in flight with msgError — the one way a
// refusal or a failed statement leaves the server.
func refuse(conn *wire.Conn, err error) error {
	se := asServerError(err)
	return conn.Send(msgError, wire.Marshal(se))
}

// run is the one statement path: msgExec, msgExecStmt, each statement
// of a non-atomic batch and the in-process Execute all execute here. It
// executes m on sql — through m's prepared handle when it names one —
// and ships a mutation to the replicas of database db. A refusal is a
// *serverError; an execution failure is the engine's error.
func (s *Server) run(sql *sqlmini.Session, db string, m *execFrame) (*sqlmini.Result, error) {
	if m.perr != nil {
		return nil, m.perr
	}
	var res *sqlmini.Result
	var err error
	if m.p != nil {
		res, err = sql.ExecPreparedParams(m.p, &m.params)
	} else {
		res, err = sql.ExecParams(m.st, &m.params)
	}
	if err != nil {
		return nil, err
	}
	if isMutatingStmt(m.st.Statement()) {
		s.replicate(db, m.sql, &m.params)
	}
	return res, nil
}

func (s *Server) handleExec(sess *session, payload []byte) error {
	m := &sess.frame
	if err := m.decode(wire.NewDecoder(payload), sess.engine); err != nil {
		return refuse(sess.conn, fmt.Errorf("malformed exec: %w", err))
	}
	s.queries.Add(1)
	return sess.answer(s.run(sess.sql, sess.db, m))
}

// handleExecStmt executes one prepared handle with this call's
// arguments, on the same path as msgExec of the same SQL: the statement
// joins the session's open transaction if any, mutations replicate by
// statement text, and the reply is msgResult/msgError in the same
// shapes.
func (s *Server) handleExecStmt(sess *session, payload []byte) error {
	if sess.caps&CapPreparedStatements == 0 {
		return refuse(sess.conn, errNoPrepared)
	}
	m := &sess.frame
	handle, err := m.decodeStmt(wire.NewDecoder(payload), sess.stmts)
	if err != nil {
		return refuse(sess.conn, fmt.Errorf("malformed exec-stmt: %w", err))
	}
	if m.p == nil {
		return refuse(sess.conn, errorf(codeBadHandle, "no prepared statement with handle %d on this session", handle))
	}
	s.queries.Add(1)
	s.stmtExecs.Add(1)
	return sess.answer(s.run(sess.sql, sess.db, m))
}

// watched reads the session's watched table versions into its scratch
// slice, nil without a watch. Callers read them once the statement and
// its replication finished, so a reply's versions are never older than
// its statement, and encode them before the next frame is read.
func (sess *session) watched() []uint64 {
	if sess.watch == nil {
		return nil
	}
	for i, name := range sess.watch {
		sess.versions[i] = sess.engine.TableVersion(name)
	}
	return sess.versions
}

// answer replies to one statement frame: msgResult, carrying the
// watched versions on a watched session, or msgError when err is set.
func (sess *session) answer(res *sqlmini.Result, err error) error {
	if err != nil {
		return refuse(sess.conn, err)
	}
	res.Versions = sess.watched()
	return sess.reply(msgResult, func(e *wire.Encoder) { appendResult(e, res) })
}

// sendBatchResult answers one batch frame with msgBatchResult,
// carrying the watched versions on a watched session.
func (sess *session) sendBatchResult(m *batchResultMsg) error {
	m.Versions = sess.watched()
	return sess.reply(msgBatchResult, m.appendTo)
}

// reply sends one frame whose payload encode builds in a pooled
// encoder, returned to the pool once the frame is sent.
func (sess *session) reply(typ uint16, encode func(e *wire.Encoder)) error {
	e := wire.GetEncoder(256)
	encode(e)
	err := sess.conn.Send(typ, e.Bytes())
	wire.PutEncoder(e)
	return err
}

// handleExecBatch executes one msgExecBatch frame: N statements on the
// session, one reply frame. The whole frame is validated up front
// (checkBatch), so an invalid batch is rejected before ANY statement
// executes — the one observable difference from sending the statements
// frame by frame. Atomic batches run through execBatchAtomic and are
// refused while the session already holds a client transaction (the
// rollback promise could not be honored). Non-atomic batches may carry
// their own BEGIN/COMMIT/ROLLBACK statements and otherwise run each
// statement exactly as its own frame would: an applied prefix before a
// mid-batch execution failure persists and replicates.
func (s *Server) handleExecBatch(sess *session, payload []byte) error {
	atomic, stmts, err := decodeBatch(payload, sess.engine)
	if err != nil {
		return refuse(sess.conn, fmt.Errorf("malformed batch: %w", err))
	}
	s.queries.Add(int64(len(stmts)))
	s.batches.Add(1)

	reply := batchResultMsg{ErrIndex: -1}
	fail := func(i int, err error) error {
		se := asServerError(err)
		reply.ErrIndex, reply.ErrCode, reply.ErrMsg = int32(i), se.code, se.msg
		return sess.sendBatchResult(&reply)
	}
	if i, err := checkBatch(atomic, stmts); err != nil {
		return fail(i, err)
	}
	if atomic {
		if sess.sql.InTx() {
			// Inside a client transaction the server cannot honor the
			// atomic-batch contract: a mid-batch failure could not roll
			// back the prefix without clobbering the client's
			// transaction, and replication would outrun the outer
			// commit. Refuse rather than silently weaken the promise.
			return fail(-1, errors.New("atomic batch inside an open transaction"))
		}
		if reply.Results, err = s.execBatchAtomic(sess.db, stmts); err != nil {
			// The engine error text names the failing statement's
			// position; there is no partial result to report.
			return fail(-1, err)
		}
		return sess.sendBatchResult(&reply)
	}
	for i := range stmts {
		res, err := s.run(sess.sql, sess.db, &stmts[i])
		if err != nil {
			return fail(i, err)
		}
		reply.Results = append(reply.Results, res)
	}
	return sess.sendBatchResult(&reply)
}

// checkBatch validates a whole batch before any statement of it runs:
// every statement parsed, and an atomic batch holds no transaction
// control and no DDL. It reports the first offending statement's index.
func checkBatch(atomic bool, stmts []execFrame) (int, error) {
	for i := range stmts {
		if perr := stmts[i].perr; perr != nil {
			return i, perr
		}
		if atomic {
			switch stmts[i].st.Statement().(type) {
			case *sqlmini.BeginStmt, *sqlmini.CommitStmt, *sqlmini.RollbackStmt:
				return i, errors.New("transaction control inside an atomic batch")
			case *sqlmini.CreateTableStmt, *sqlmini.CreateIndexStmt:
				// DDL never reaches the undo log, so the wrapping
				// ROLLBACK could not revert it — same contract as
				// LocalStore's ExecBatchAtomic.
				return i, errors.New("DDL cannot roll back and is not batchable atomically")
			}
		}
	}
	return -1, nil
}

// execBatchAtomic runs a checked atomic batch on the named database
// through the engine's atomic batch — ONE lock hold for the whole list,
// so the unit is atomic AND isolated: a mid-batch failure reverts
// exactly this batch's effects (a session-level BEGIN/ROLLBACK wrapper
// would release the lock between statements, and its rollback could
// clobber an interleaved session's committed write). The mutating
// statements replicate only once the whole unit applied.
func (s *Server) execBatchAtomic(dbName string, stmts []execFrame) ([]*sqlmini.Result, error) {
	bs := make([]sqlmini.BatchStmt, len(stmts))
	for i := range stmts {
		bs[i] = sqlmini.BatchStmt{SQL: stmts[i].sql, Params: &stmts[i].params}
	}
	results, err := s.Database(dbName).ExecBatchAtomic(bs)
	if err != nil {
		return nil, err
	}
	for i := range stmts {
		if isMutatingStmt(stmts[i].st.Statement()) {
			s.replicate(dbName, stmts[i].sql, &stmts[i].params)
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
		return refuse(sess.conn, errNoPrepared)
	}
	var m prepareMsg
	if err := wire.Unmarshal(payload, &m); err != nil {
		return refuse(sess.conn, fmt.Errorf("malformed prepare: %w", err))
	}
	if len(sess.stmts) >= maxSessionStmts {
		return refuse(sess.conn, fmt.Errorf("session already holds %d prepared statements (limit)", maxSessionStmts))
	}
	p, err := sess.engine.Prepare(m.SQL)
	if err != nil {
		return refuse(sess.conn, err)
	}
	s.prepares.Add(1)
	if sess.stmts == nil {
		sess.stmts = make(map[uint64]*sqlmini.Prepared)
	}
	sess.nextStmt++
	sess.stmts[sess.nextStmt] = p
	return sess.conn.Send(msgPrepareOK, wire.Marshal(&prepareOKMsg{Handle: sess.nextStmt}))
}

// handleCloseStmt drops one handle from the session table. Closing an
// unknown handle succeeds: client caches close fire-and-forget on
// eviction, and a double-close race must not kill the session.
func (s *Server) handleCloseStmt(sess *session, payload []byte) error {
	if sess.caps&CapPreparedStatements == 0 {
		return refuse(sess.conn, errNoPrepared)
	}
	var m closeStmtMsg
	if err := wire.Unmarshal(payload, &m); err != nil {
		return refuse(sess.conn, fmt.Errorf("malformed close-stmt: %w", err))
	}
	delete(sess.stmts, m.Handle)
	return sess.conn.Send(msgCloseStmtOK, nil)
}

// handleTableVersions answers a generation probe: the per-table
// mutation counters of the session's database, read from in-memory
// state — no SQL executes, so a cache-validation round trip costs the
// legacy DBMS nothing but a frame. A watch-flagged probe also makes
// its tables the session's version watch (replacing any earlier one).
func (s *Server) handleTableVersions(sess *session, payload []byte) error {
	if sess.caps&CapTableVersions == 0 {
		return refuse(sess.conn, errorf(codeNotSupported, "table-version probes were not negotiated on this session"))
	}
	var m tableVersionsMsg
	if err := wire.Unmarshal(payload, &m); err != nil {
		return refuse(sess.conn, fmt.Errorf("malformed table-versions: %w", err))
	}
	if m.Watch {
		if sess.caps&CapWatchVersions == 0 {
			return refuse(sess.conn, errorf(codeNotSupported, "version watches were not negotiated on this session"))
		}
		sess.watch, sess.versions = m.Names, make([]uint64, len(m.Names))
	}
	s.versionProbes.Add(1)
	reply := tableVersionsOKMsg{Versions: make([]uint64, len(m.Names))}
	for i, name := range m.Names {
		reply.Versions[i] = sess.engine.TableVersion(name)
	}
	return sess.conn.Send(msgTableVersionsOK, reply.encode())
}

// replicate ships a mutating statement — its SQL and the values bound
// into its slots — to every attached replica; with none attached it
// costs one lock and builds nothing. Statement-based replication
// applies synchronously in autocommit on the replica, so params is read
// before the session binds its next frame; explicit-transaction
// interleavings are out of scope for this substrate (see "One statement
// path in the server" in docs/ARCHITECTURE.md).
func (s *Server) replicate(dbName, sql string, params *sqlmini.Params) {
	s.mu.Lock()
	replicas := append([]*Server(nil), s.replicas...)
	s.mu.Unlock()
	for _, r := range replicas {
		if err := r.applyReplicated(dbName, sql, params); err != nil {
			s.replFailures.Add(1)
		}
	}
}

// applyReplicated applies a statement shipped from a master. params
// fills the slots the master's parse of sql gave its parameters, which
// this database's parse of the same text gives them too.
func (s *Server) applyReplicated(dbName, sql string, params *sqlmini.Params) error {
	db := s.Database(dbName)
	if db == nil {
		return fmt.Errorf("dbms %s: replicated statement for unknown database %q", s.name, dbName)
	}
	st, err := db.ParseCached(sql)
	if err != nil {
		return err
	}
	sess := db.NewSession()
	defer sess.Close()
	_, err = sess.ExecParams(st, params)
	return err
}

// Execute runs one statement on the named database in-process — no
// wire connection — exactly like a statement arriving over the
// protocol: bound into the same execFrame, it takes the one statement
// path (execution, then replication). Cluster members embed a
// non-listening Server purely as a replication hub and funnel their
// store writes through here, so every member's local database
// converges with its peers'.
func (s *Server) Execute(dbName, sql string, args ...any) (*sqlmini.Result, error) {
	db := s.Database(dbName)
	if db == nil {
		return nil, fmt.Errorf("dbms %s: no database %q", s.name, dbName)
	}
	var m execFrame
	if err := m.bind(db, sql, args); err != nil {
		return nil, err
	}
	s.queries.Add(1)
	sess := db.NewSession()
	defer sess.Close()
	return s.run(sess, dbName, &m)
}

// ExecuteBatch is Execute for a statement list that applies as one
// atomic unit, the in-process twin of an atomic msgExecBatch frame: the
// same up-front check refuses it before any statement runs, every
// statement applies or none does, and replicas receive the mutating
// ones only once the whole unit applied.
func (s *Server) ExecuteBatch(dbName string, stmts []client.Statement) ([]*sqlmini.Result, error) {
	db := s.Database(dbName)
	if db == nil {
		return nil, fmt.Errorf("dbms %s: no database %q", s.name, dbName)
	}
	ms := make([]execFrame, len(stmts))
	for i, st := range stmts {
		if err := ms[i].bind(db, st.SQL, st.Args); err != nil {
			return nil, fmt.Errorf("dbms: batch statement %d: %w", i+1, err)
		}
	}
	s.queries.Add(int64(len(stmts)))
	if i, err := checkBatch(true, ms); err != nil {
		return nil, fmt.Errorf("dbms: batch statement %d: %w", i+1, err)
	}
	return s.execBatchAtomic(dbName, ms)
}

func isMutatingStmt(st sqlmini.Statement) bool {
	switch st.(type) {
	case *sqlmini.InsertStmt, *sqlmini.UpdateStmt, *sqlmini.DeleteStmt,
		*sqlmini.CreateTableStmt, *sqlmini.CreateIndexStmt:
		return true
	default:
		return false
	}
}
