// Package dbms implements the simulated database management system the
// reproduction runs against: a TCP server speaking a versioned binary
// protocol, executing SQL against sqlmini databases, with per-user
// authentication, transactions, statement-based master/slave
// replication, and an information schema. It also ships the "legacy"
// native driver for that protocol — the conventional driver whose
// lifecycle the paper is reforming.
//
// The protocol version carried in the client hello is the compatibility
// axis the paper cares about: a driver built for protocol N fails at
// connect time against a server speaking protocol M≠N, reproducing the
// paper's step-5 incompatibility ("Step 5 is where the compatibility
// between the database and the driver is checked").
//
// Protocol v2 turns that single version into a negotiated session
// contract: hello/helloOK carry a version range plus a capability
// bitmask, and capability-gated frames give sessions server-side
// prepared-statement handles (msgPrepare/msgExecStmt/msgCloseStmt) and
// one-round-trip generation probes over the engine's per-table mutation
// counters (msgTableVersions). A session may also register a version
// watch (CapWatchVersions), after which every statement reply carries
// the watched tables' counters, so a cache validates what it acted on
// without a probe of its own. Peers that pin a single version — every
// legacy driver build, and servers configured with WithProtocolVersion —
// negotiate exactly as before, keeping the step-5 failure mode intact.
package dbms

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/client"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Frame types of the DBMS protocol.
const (
	msgHello   uint16 = 0x0101 // client → server: version, db, credentials
	msgHelloOK uint16 = 0x0102 // server → client: accepted
	msgExec    uint16 = 0x0103 // client → server: statement + args
	msgResult  uint16 = 0x0104 // server → client: result set
	msgPing    uint16 = 0x0105
	msgPong    uint16 = 0x0106
	// msgExecBatch ships N statements in one frame; msgBatchResult
	// answers with N result sets, or the results so far plus the failing
	// statement's index and error. The atomic flag makes the server
	// wrap the batch in BEGIN/COMMIT and roll back on mid-batch failure.
	msgExecBatch   uint16 = 0x0107
	msgBatchResult uint16 = 0x0108
	// Protocol v2 session frames (capability-gated; see the Cap*
	// bitmask). msgPrepare registers a statement server-side and
	// msgPrepareOK returns its handle; msgExecStmt executes a handle
	// with fresh arguments (answered by msgResult/msgError exactly like
	// msgExec); msgCloseStmt releases a handle (msgCloseStmtOK).
	// msgTableVersions probes the engine's per-table mutation counters
	// in one round trip (msgTableVersionsOK) — the wire form of the
	// generation counters backing metadata caches. Its trailing watch
	// flag also registers the tables as the session's version watch.
	msgPrepare         uint16 = 0x0109
	msgPrepareOK       uint16 = 0x010A
	msgExecStmt        uint16 = 0x010B
	msgCloseStmt       uint16 = 0x010C
	msgCloseStmtOK     uint16 = 0x010D
	msgTableVersions   uint16 = 0x010E
	msgTableVersionsOK uint16 = 0x010F
	msgError           uint16 = 0x01FF
)

// Wire-protocol versions. V1 is the legacy request/response protocol
// (exec, ping, batch). V2 adds capability negotiation to the handshake
// plus the session frames above. A client may offer a version RANGE in
// its hello ([MinProtocolVersion, ProtocolVersion]); servers negotiate
// the highest version both sides share and answer with the session's
// capability mask. Single-version peers (legacy drivers pin min == max,
// WithProtocolVersion pins the server) keep the paper's step-5 failure
// mode: disjoint ranges are rejected at connect time.
const (
	ProtocolV1 uint16 = 1
	ProtocolV2 uint16 = 2
)

// Session capability bits, negotiated in the v2 handshake. A
// capability is live on a session only when BOTH sides advertised it
// and the negotiated version carries it; frames of absent capabilities
// are rejected with codeNotSupported.
const (
	// CapPreparedStatements: msgPrepare/msgExecStmt/msgCloseStmt.
	CapPreparedStatements uint32 = 1 << 0
	// CapTableVersions: msgTableVersions generation probes.
	CapTableVersions uint32 = 1 << 1
	// CapAtomicBatch: msgExecBatch with the atomic flag. (Batch frames
	// predate negotiation and still work on v1 sessions; the bit lets
	// v2 peers detect the capability without trying.)
	CapAtomicBatch uint32 = 1 << 2
	// CapWatchVersions: msgTableVersions with the watch flag. From then
	// on every msgResult and msgBatchResult of the session appends the
	// watched tables' counters, read after the statement and its
	// replication finished.
	CapWatchVersions uint32 = 1 << 3
)

// capsForVersion reports the capabilities this implementation offers at
// a negotiated protocol version.
func capsForVersion(v uint16) uint32 {
	if v >= ProtocolV2 {
		return CapPreparedStatements | CapTableVersions | CapAtomicBatch | CapWatchVersions
	}
	return 0
}

// Error codes carried by msgError.
const (
	codeProtocolMismatch uint16 = iota + 1
	codeAuthFailed
	codeNoDatabase
	codeQueryError
	_ // 5 was a read-only replica's refusal: reserved, never reused
	codeShutdown
	// codeBadHandle: msgExecStmt/msgCloseStmt named a prepared-statement
	// handle this session does not hold.
	codeBadHandle
	// codeNotSupported: a frame whose capability the session did not
	// negotiate.
	codeNotSupported
)

// serverError is a protocol-level error with a code.
type serverError struct {
	code uint16
	msg  string
}

func (e *serverError) Error() string { return fmt.Sprintf("dbms: [%d] %s", e.code, e.msg) }

// Fields declares the msgError layout.
func (e *serverError) Fields(w wire.Walker) {
	w.Uint16(&e.code)
	w.String(&e.msg)
}

// helloMsg opens a session. ProtocolVersion is the highest version the
// client speaks; the v2 extension appends the lowest acceptable version
// and the client's capability mask. A legacy (5-field) hello decodes
// with MinProtocolVersion = ProtocolVersion and no capabilities, so v1
// frames negotiate exactly as before.
type helloMsg struct {
	ProtocolVersion uint16
	Database        string
	User            string
	Password        string
	ClientInfo      string // driver name/version, for diagnostics

	// v2 extension (trailing; absent on legacy frames).
	MinProtocolVersion uint16
	Capabilities       uint32
}

func (h *helloMsg) Fields(w wire.Walker) {
	w.Uint16(&h.ProtocolVersion)
	w.String(&h.Database)
	w.String(&h.User)
	w.String(&h.Password)
	w.String(&h.ClientInfo)
	if w.Tail(true) {
		w.Uint16(&h.MinProtocolVersion)
		w.Uint32(&h.Capabilities)
	} else {
		h.MinProtocolVersion = h.ProtocolVersion // legacy: exact pin
	}
}

// helloOKMsg accepts a session. ProtocolVersion is the NEGOTIATED
// version; the v2 extension appends the session's capability mask
// (ignored by legacy decoders, zero on v1 sessions).
type helloOKMsg struct {
	ServerName      string
	ServerVersion   string
	ProtocolVersion uint16
	SessionID       uint64

	// v2 extension (trailing; absent on legacy frames).
	Capabilities uint32
}

func (h *helloOKMsg) Fields(w wire.Walker) {
	w.String(&h.ServerName)
	w.String(&h.ServerVersion)
	w.Uint16(&h.ProtocolVersion)
	w.Uint64(&h.SessionID)
	if w.Tail(true) {
		w.Uint32(&h.Capabilities)
	}
}

// execFrame is one statement bound for execution: a decoded msgExec or
// msgExecStmt, one statement of a msgExecBatch, or an in-process
// Execute. It holds the statement's text, the parse it resolves to in
// the database (perr when it does not), the session's prepared handle
// a msgExecStmt names (nil otherwise) and its arguments bound into the
// parse's slots.
type execFrame struct {
	sql    string
	st     sqlmini.Parsed
	p      *sqlmini.Prepared
	perr   error
	params sqlmini.Params
}

// decode reads one msgExec payload, resolving its SQL through db's
// parse cache before the argument block so the block binds straight
// into the statement's slots. A nil db resolves nothing (the block is
// still read in full). An error means a malformed payload; a statement
// that does not parse is m.perr.
func (m *execFrame) decode(d *wire.Decoder, db *sqlmini.DB) error {
	m.sql = d.String()
	if err := d.Err(); err != nil {
		return err
	}
	m.st, m.p, m.perr = sqlmini.Parsed{}, nil, nil
	if db != nil {
		m.st, m.perr = db.ParseCached(m.sql)
	}
	if err := sqlmini.DecodeArgs(d, m.st, &m.params); err != nil {
		return err
	}
	return d.Err()
}

// decodeStmt reads one msgExecStmt payload: the handle, looked up in
// stmts, and its argument block bound into the handle's slots. m.p is
// nil for a handle stmts does not hold (the block is still read).
func (m *execFrame) decodeStmt(d *wire.Decoder, stmts map[uint64]*sqlmini.Prepared) (handle uint64, err error) {
	handle = d.Uint64()
	m.sql, m.st, m.perr = "", sqlmini.Parsed{}, nil
	if m.p = stmts[handle]; m.p != nil {
		m.sql, m.st = m.p.SQL(), m.p.Parsed
	}
	if err := sqlmini.DecodeArgs(d, m.st, &m.params); err != nil {
		return handle, err
	}
	return handle, d.Err()
}

// bind fills m with sql parsed in db and args bound into its slots —
// what decode does from a payload, for a statement run in-process.
func (m *execFrame) bind(db *sqlmini.DB, sql string, args []any) error {
	st, err := db.ParseCached(sql)
	if err != nil {
		return err
	}
	m.sql, m.st, m.p, m.perr = sql, st, nil, nil
	return m.params.Bind(st, args)
}

// encodeBatch appends a msgExecBatch payload: the atomic flag, then
// each statement payload behind its 4-byte length.
func encodeBatch(e *wire.Encoder, atomic bool, stmts []client.Statement) error {
	e.Bool(atomic)
	e.Uint32(uint32(len(stmts)))
	for i, st := range stmts {
		at := len(e.Bytes())
		e.Uint32(0)
		if err := sqlmini.EncodeStatement(e, st.SQL, st.Args); err != nil {
			return fmt.Errorf("dbms: batch statement %d: %w", i+1, err)
		}
		binary.BigEndian.PutUint32(e.Bytes()[at:], uint32(len(e.Bytes())-at-4))
	}
	return nil
}

// decodeBatch reads a msgExecBatch payload: the atomic flag and each
// statement decoded as an execFrame against db (nil resolves nothing).
func decodeBatch(b []byte, db *sqlmini.DB) (atomic bool, stmts []execFrame, err error) {
	d := wire.NewDecoder(b)
	atomic = d.Bool()
	n := d.Count(4) // a statement takes at least its 4-byte length
	for i := 0; i < n; i++ {
		body := d.Bytes32View()
		if err := d.Err(); err != nil {
			return atomic, nil, err
		}
		stmts = append(stmts, execFrame{})
		if err := stmts[len(stmts)-1].decode(wire.NewDecoder(body), db); err != nil {
			return atomic, nil, err
		}
	}
	return atomic, stmts, d.Err()
}

// batchResultMsg is msgBatchResult. ErrIndex is the 0-based position
// of the failing statement, -1 on full success; Results holds one
// entry per statement executed before the failure (all of them on
// success). Versions trails the frame on a watched session.
type batchResultMsg struct {
	Results  []*sqlmini.Result
	ErrIndex int32
	ErrCode  uint16
	ErrMsg   string
	Versions []uint64
}

// Fields declares the msgBatchResult layout: each result set as a
// nested payload, the failure, then the watched versions.
func (m *batchResultMsg) Fields(w wire.Walker) {
	wire.Slice(w, &m.Results, 4, math.MaxInt32, walkNestedResult)
	wire.Int32(w, &m.ErrIndex)
	w.Uint16(&m.ErrCode)
	w.String(&m.ErrMsg)
	sqlmini.WalkVersions(w, &m.Versions)
}

func walkNestedResult(w wire.Walker, r **sqlmini.Result) { wire.Nested(w, r, sqlmini.WalkResult) }

// prepareMsg is msgPrepare: register one statement server-side.
type prepareMsg struct {
	SQL string
}

func (m *prepareMsg) Fields(w wire.Walker) { w.String(&m.SQL) }

// prepareOKMsg is msgPrepareOK: the session-scoped handle id.
type prepareOKMsg struct {
	Handle uint64
}

func (m *prepareOKMsg) Fields(w wire.Walker) { w.Uint64(&m.Handle) }

// encodeExecStmt appends a msgExecStmt payload: a prepared handle plus
// this call's arguments, in the same argument encoding as msgExec.
// Answered by msgResult or msgError, exactly like msgExec.
func encodeExecStmt(e *wire.Encoder, handle uint64, args []any) error {
	e.Uint64(handle)
	return sqlmini.EncodeArgs(e, args)
}

// closeStmtMsg is msgCloseStmt: release one handle (msgCloseStmtOK
// acknowledges; closing an unknown handle is not an error, so client
// caches may close fire-and-forget on eviction races).
type closeStmtMsg struct {
	Handle uint64
}

func (m *closeStmtMsg) Fields(w wire.Walker) { w.Uint64(&m.Handle) }

// tableVersionsMsg is msgTableVersions: probe the per-table mutation
// counters of the session's database, one round trip for any number of
// tables. Watch (a trailing flag, absent on plain probes) also
// registers Names as the session's version watch (CapWatchVersions).
type tableVersionsMsg struct {
	Names []string
	Watch bool
}

func (m *tableVersionsMsg) Fields(w wire.Walker) {
	w.StringSlice(&m.Names)
	if w.Tail(m.Watch) {
		w.Bool(&m.Watch)
	}
}

// tableVersionsOKMsg is msgTableVersionsOK: counters parallel to the
// probed names (0 for tables the database does not hold).
type tableVersionsOKMsg struct {
	Versions []uint64
}

func (m *tableVersionsOKMsg) Fields(w wire.Walker) {
	wire.Slice(w, &m.Versions, 8, math.MaxInt32, wire.Walker.Uint64)
}
