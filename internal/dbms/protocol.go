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
	"errors"
	"fmt"
	"slices"

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

func (h helloMsg) encode() []byte {
	e := wire.NewEncoder(128)
	e.Uint16(h.ProtocolVersion)
	e.String(h.Database)
	e.String(h.User)
	e.String(h.Password)
	e.String(h.ClientInfo)
	e.Uint16(h.MinProtocolVersion)
	e.Uint32(h.Capabilities)
	return e.Bytes()
}

func decodeHello(b []byte) (helloMsg, error) {
	d := wire.NewDecoder(b)
	h := helloMsg{
		ProtocolVersion: d.Uint16(),
		Database:        d.String(),
		User:            d.String(),
		Password:        d.String(),
		ClientInfo:      d.String(),
	}
	if d.Remaining() > 0 {
		h.MinProtocolVersion = d.Uint16()
		h.Capabilities = d.Uint32()
	} else {
		h.MinProtocolVersion = h.ProtocolVersion // legacy: exact pin
	}
	return h, d.Err()
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

func (h helloOKMsg) encode() []byte {
	e := wire.NewEncoder(64)
	e.String(h.ServerName)
	e.String(h.ServerVersion)
	e.Uint16(h.ProtocolVersion)
	e.Uint64(h.SessionID)
	e.Uint32(h.Capabilities)
	return e.Bytes()
}

func decodeHelloOK(b []byte) (helloOKMsg, error) {
	d := wire.NewDecoder(b)
	h := helloOKMsg{
		ServerName:      d.String(),
		ServerVersion:   d.String(),
		ProtocolVersion: d.Uint16(),
		SessionID:       d.Uint64(),
	}
	if d.Remaining() > 0 {
		h.Capabilities = d.Uint32()
	}
	return h, d.Err()
}

// errMixedArgs refuses an argument block that carries both named and
// positional values: a statement binds one way or the other, and
// neither half may be silently dropped.
var errMixedArgs = errors.New("argument block mixes named and positional values")

// encodeArgs appends the shared argument block (named list, then
// positional list) of msgExec, msgExecStmt and batch statements straight
// from the caller's arguments: a single sqlmini.Args map encodes as
// named values, anything else as positional ones. Named keys are
// sorted so every message has exactly one wire form (golden-frame
// fixtures rely on this); up to eight of them sort on the stack.
func encodeArgs(e *wire.Encoder, args []any) error {
	if len(args) == 1 {
		if named, ok := args[0].(sqlmini.Args); ok {
			var buf [8]string
			keys := buf[:0]
			for k := range named {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			e.Uint32(uint32(len(keys)))
			for _, k := range keys {
				v, err := sqlmini.FromGo(named[k])
				if err != nil {
					return err
				}
				e.String(k)
				sqlmini.EncodeValue(e, v)
			}
			e.Uint32(0)
			return nil
		}
	}
	e.Uint32(0)
	e.Uint32(uint32(len(args)))
	for _, a := range args {
		v, err := sqlmini.FromGo(a)
		if err != nil {
			return err
		}
		sqlmini.EncodeValue(e, v)
	}
	return nil
}

// decodeArgs reads the shared argument block straight into the
// parameter slots of statement st. A named key is read as a view of
// the payload and looked up in st's slot table: a key naming no
// parameter is dropped, and a repeated key's last value wins. Values
// decode as sqlmini.Values, never boxed. With the zero Parsed (a
// statement that did not resolve) every value is still read, so a
// malformed block is reported as malformed first. A named entry takes
// at least its 4-byte key length and a value type byte, a positional
// value its type byte. A block with both named and positional values
// is refused (errMixedArgs).
func decodeArgs(d *wire.Decoder, st sqlmini.Parsed, ps *sqlmini.Params) error {
	nNamed := d.Count(5)
	if nNamed > 0 {
		slots := ps.Named(st.NumSlots())
		for i := 0; i < nNamed; i++ {
			key := d.Bytes32View()
			v, err := sqlmini.DecodeValue(d)
			if err != nil {
				return err
			}
			if j, ok := st.Slot(key); ok {
				slots[j] = v
			}
		}
	}
	nPos := d.Count(1)
	if err := d.Err(); err != nil {
		return err
	}
	if nNamed > 0 {
		if nPos > 0 {
			return errMixedArgs
		}
		return nil
	}
	vals := ps.Positional(nPos)
	for i := range vals {
		v, err := sqlmini.DecodeValue(d)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	return d.Err()
}

// encodeExec appends a msgExec payload (also a batch statement's):
// the SQL, then its argument block.
func encodeExec(e *wire.Encoder, sql string, args []any) error {
	e.String(sql)
	return encodeArgs(e, args)
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
	if err := decodeArgs(d, m.st, &m.params); err != nil {
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
	if err := decodeArgs(d, m.st, &m.params); err != nil {
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

// beginNested reserves the 4-byte length of a nested payload (a batch
// statement, a batch result) in e; endNested fills it in, so nesting
// writes into the one encoder instead of copying a payload built apart.
func beginNested(e *wire.Encoder) int {
	at := len(e.Bytes())
	e.Uint32(0)
	return at
}

func endNested(e *wire.Encoder, at int) {
	b := e.Bytes()
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
}

// appendResult appends a result set. A result that carries Versions
// (a watched session's reply) appends them; the engine never sets
// them, so an unwatched session's frames are unchanged.
func appendResult(e *wire.Encoder, r *sqlmini.Result) {
	e.StringSlice(r.Cols)
	e.Uint32(uint32(len(r.Rows)))
	for _, row := range r.Rows {
		e.Uint32(uint32(len(row)))
		for _, v := range row {
			sqlmini.EncodeValue(e, v)
		}
	}
	e.Int64(int64(r.Affected))
	if r.Versions != nil {
		encodeVersions(e, r.Versions)
	}
}

// decodeResult decodes a result set into the one Result its reader
// keeps: client.Result is sqlmini.Result, so nothing copies it after.
// The Result shares its allocation with room for two trailing versions,
// the pair a watched ConnStore session carries on every reply.
func decodeResult(b []byte) (*sqlmini.Result, error) {
	d := wire.NewDecoder(b)
	rv := &struct {
		r  sqlmini.Result
		vs [2]uint64
	}{}
	r := &rv.r
	r.Cols = d.StringSlice()
	nRows := d.Count(4) // a row takes at least its 4-byte column count
	for i := 0; i < nRows; i++ {
		nCols := d.Count(1) // a value takes at least its type byte
		if err := d.Err(); err != nil {
			return nil, err
		}
		row := make([]sqlmini.Value, 0, nCols)
		for j := 0; j < nCols; j++ {
			v, err := sqlmini.DecodeValue(d)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		r.Rows = append(r.Rows, row)
	}
	r.Affected = int(d.Int64())
	if d.Remaining() > 0 {
		vs, err := decodeVersions(d, rv.vs[:0])
		if err != nil {
			return nil, err
		}
		r.Versions = vs
	}
	return r, d.Err()
}

// encodeVersions appends a counter list: a count, then the counters.
// msgTableVersionsOK is one, and a watched session's replies end in one.
func encodeVersions(e *wire.Encoder, vs []uint64) {
	e.Uint32(uint32(len(vs)))
	for _, v := range vs {
		e.Uint64(v)
	}
}

// decodeVersions reads a counter list into buf when it fits (a new
// slice otherwise).
func decodeVersions(d *wire.Decoder, buf []uint64) ([]uint64, error) {
	n := d.Count(8)
	if err := d.Err(); err != nil {
		return nil, err
	}
	vs := buf[:0]
	if buf == nil || n > cap(buf) {
		vs = make([]uint64, 0, n)
	}
	for i := 0; i < n; i++ {
		vs = append(vs, d.Uint64())
	}
	return vs, d.Err()
}

// encodeBatch appends a msgExecBatch payload: the atomic flag, then
// each statement nested in the msgExec encoding.
func encodeBatch(e *wire.Encoder, atomic bool, stmts []client.Statement) error {
	e.Bool(atomic)
	e.Uint32(uint32(len(stmts)))
	for i, st := range stmts {
		at := beginNested(e)
		if err := encodeExec(e, st.SQL, st.Args); err != nil {
			return fmt.Errorf("dbms: batch statement %d: %w", i+1, err)
		}
		endNested(e, at)
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

func (m *batchResultMsg) appendTo(e *wire.Encoder) {
	e.Uint32(uint32(len(m.Results)))
	for _, r := range m.Results {
		at := beginNested(e)
		appendResult(e, r)
		endNested(e, at)
	}
	e.Int32(m.ErrIndex)
	e.Uint16(m.ErrCode)
	e.String(m.ErrMsg)
	if m.Versions != nil {
		encodeVersions(e, m.Versions)
	}
}

func decodeBatchResult(b []byte) (batchResultMsg, error) {
	d := wire.NewDecoder(b)
	var m batchResultMsg
	n := d.Count(4) // a result takes at least its 4-byte length
	for i := 0; i < n; i++ {
		r, err := decodeResult(d.Bytes32())
		if err != nil {
			return m, err
		}
		if err := d.Err(); err != nil {
			return m, err
		}
		m.Results = append(m.Results, r)
	}
	m.ErrIndex = d.Int32()
	m.ErrCode = d.Uint16()
	m.ErrMsg = d.String()
	if d.Remaining() > 0 {
		vs, err := decodeVersions(d, nil)
		if err != nil {
			return m, err
		}
		m.Versions = vs
	}
	return m, d.Err()
}

func encodeError(code uint16, msg string) []byte {
	e := wire.NewEncoder(len(msg) + 8)
	e.Uint16(code)
	e.String(msg)
	return e.Bytes()
}

func decodeError(b []byte) (uint16, string, error) {
	d := wire.NewDecoder(b)
	code := d.Uint16()
	msg := d.String()
	return code, msg, d.Err()
}

// prepareMsg is msgPrepare: register one statement server-side.
type prepareMsg struct {
	SQL string
}

func (m prepareMsg) encode() []byte {
	e := wire.NewEncoder(len(m.SQL) + 8)
	e.String(m.SQL)
	return e.Bytes()
}

func decodePrepare(b []byte) (prepareMsg, error) {
	d := wire.NewDecoder(b)
	m := prepareMsg{SQL: d.String()}
	return m, d.Err()
}

// prepareOKMsg is msgPrepareOK: the session-scoped handle id plus the
// server's mutation classification (diagnostic: no client reads it).
type prepareOKMsg struct {
	Handle   uint64
	Mutating bool
}

func (m prepareOKMsg) encode() []byte {
	e := wire.NewEncoder(16)
	e.Uint64(m.Handle)
	e.Bool(m.Mutating)
	return e.Bytes()
}

func decodePrepareOK(b []byte) (prepareOKMsg, error) {
	d := wire.NewDecoder(b)
	m := prepareOKMsg{Handle: d.Uint64(), Mutating: d.Bool()}
	return m, d.Err()
}

// encodeExecStmt appends a msgExecStmt payload: a prepared handle plus
// this call's arguments, in the same argument encoding as msgExec.
// Answered by msgResult or msgError, exactly like msgExec.
func encodeExecStmt(e *wire.Encoder, handle uint64, args []any) error {
	e.Uint64(handle)
	return encodeArgs(e, args)
}

// closeStmtMsg is msgCloseStmt: release one handle (msgCloseStmtOK
// acknowledges; closing an unknown handle is not an error, so client
// caches may close fire-and-forget on eviction races).
type closeStmtMsg struct {
	Handle uint64
}

func (m closeStmtMsg) encode() []byte {
	e := wire.NewEncoder(8)
	e.Uint64(m.Handle)
	return e.Bytes()
}

func decodeCloseStmt(b []byte) (closeStmtMsg, error) {
	d := wire.NewDecoder(b)
	m := closeStmtMsg{Handle: d.Uint64()}
	return m, d.Err()
}

// tableVersionsMsg is msgTableVersions: probe the per-table mutation
// counters of the session's database, one round trip for any number of
// tables. Watch (a trailing flag, absent on plain probes) also
// registers Names as the session's version watch (CapWatchVersions).
type tableVersionsMsg struct {
	Names []string
	Watch bool
}

func (m tableVersionsMsg) encode() []byte {
	e := wire.NewEncoder(16 * (len(m.Names) + 1))
	e.StringSlice(m.Names)
	if m.Watch {
		e.Bool(true)
	}
	return e.Bytes()
}

func decodeTableVersions(b []byte) (tableVersionsMsg, error) {
	d := wire.NewDecoder(b)
	m := tableVersionsMsg{Names: d.StringSlice()}
	if d.Remaining() > 0 {
		m.Watch = d.Bool()
	}
	return m, d.Err()
}

// tableVersionsOKMsg is msgTableVersionsOK: counters parallel to the
// probed names (0 for tables the database does not hold).
type tableVersionsOKMsg struct {
	Versions []uint64
}

func (m tableVersionsOKMsg) encode() []byte {
	e := wire.NewEncoder(8 * (len(m.Versions) + 1))
	encodeVersions(e, m.Versions)
	return e.Bytes()
}

func decodeTableVersionsOK(b []byte) (tableVersionsOKMsg, error) {
	vs, err := decodeVersions(wire.NewDecoder(b), nil)
	return tableVersionsOKMsg{Versions: vs}, err
}
