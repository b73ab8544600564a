package dbms

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// DriverKind is the driver-image kind instantiated by this package's
// image factory.
const DriverKind = "dbms-native"

// NativeDriver is the conventional ("legacy") driver for the DBMS
// protocol: the thing the paper's lifecycle installs by hand on every
// client machine. It speaks exactly one protocol version; pointing it at
// a server speaking another version fails at connect time.
type NativeDriver struct {
	version      dbver.Version
	protoVersion uint16        // highest protocol version offered
	protoMin     uint16        // lowest acceptable protocol version
	opTimeout    time.Duration // per-exchange reply deadline
	withoutCaps  uint32        // capabilities never offered (an older build)
}

// dialTimeout bounds connection establishment: the dial and the
// handshake reply.
const dialTimeout = 5 * time.Second

// NativeDriverOption configures a NativeDriver.
type NativeDriverOption func(*NativeDriver)

// WithOpTimeout bounds each request/response exchange: a reply that
// does not arrive within d fails the operation (and poisons the
// connection — the late reply would desynchronize the stream).
// Default faultnet.DefaultOpTimeout; zero disables.
func WithOpTimeout(d time.Duration) NativeDriverOption {
	return func(n *NativeDriver) { n.opTimeout = d }
}

// WithProtocolFloor lets the driver negotiate down to min when the
// server does not speak the driver's own protocol version: the hello
// offers the [min, protoVersion] range instead of an exact pin. Without
// it a driver is single-version, preserving the paper's step-5
// connect-time failure against a differently versioned server.
func WithProtocolFloor(min uint16) NativeDriverOption {
	return func(n *NativeDriver) { n.protoMin = min }
}

// NewNativeDriver builds a driver of the given build version speaking
// the given wire-protocol version.
func NewNativeDriver(version dbver.Version, protoVersion uint16, opts ...NativeDriverOption) *NativeDriver {
	d := &NativeDriver{version: version, protoVersion: protoVersion,
		protoMin: protoVersion, opTimeout: faultnet.DefaultOpTimeout}
	for _, o := range opts {
		o(d)
	}
	if d.protoMin > d.protoVersion {
		d.protoMin = d.protoVersion
	}
	return d
}

// Name implements client.Driver.
func (d *NativeDriver) Name() string { return DriverKind }

// Version implements client.Driver.
func (d *NativeDriver) Version() dbver.Version { return d.version }

// Connect implements client.Driver. URL form:
// dbms://host:port/database?user=u&password=p — props override URL
// options.
func (d *NativeDriver) Connect(rawURL string, props client.Props) (client.Conn, error) {
	u, err := client.ParseURL(rawURL)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "dbms" {
		return nil, fmt.Errorf("dbms: driver cannot handle scheme %q", u.Scheme)
	}
	opts := u.Options.Merge(props)
	conn, err := wire.Dial(u.Hosts[0], dialTimeout)
	if err != nil {
		return nil, err
	}
	hello := helloMsg{
		ProtocolVersion:    d.protoVersion,
		Database:           u.Database,
		User:               opts["user"],
		Password:           opts["password"],
		ClientInfo:         fmt.Sprintf("%s %s (proto %d)", DriverKind, d.version, d.protoVersion),
		MinProtocolVersion: d.protoMin,
		Capabilities:       capsForVersion(d.protoVersion) &^ d.withoutCaps,
	}
	if err := conn.Send(msgHello, wire.Marshal(&hello)); err != nil {
		conn.Close()
		return nil, err
	}
	f, err := conn.RecvTimeout(dialTimeout)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dbms: handshake: %w", err)
	}
	p, err := payload(f, msgHelloOK)
	if err != nil {
		conn.Close()
		return nil, err
	}
	var ok helloOKMsg
	if err := wire.Unmarshal(p, &ok); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dbms: handshake: %w", err)
	}
	return &nativeConn{conn: conn, server: ok.ServerName, sessionID: ok.SessionID,
		proto: ok.ProtocolVersion, caps: ok.Capabilities,
		opTimeout: d.opTimeout}, nil
}

// payload classifies one reply frame: the payload of the frame type
// the request wants, or the error a msgError carries (mapped by
// wrapServerError), or an error naming an unexpected frame. Every
// reply the driver reads goes through it.
func payload(f wire.Frame, want uint16) ([]byte, error) {
	switch f.Type {
	case want:
		return f.Payload, nil
	case msgError:
		var se serverError
		if err := wire.Unmarshal(f.Payload, &se); err != nil {
			return nil, err
		}
		return nil, wrapServerError(se.code, se.msg)
	}
	return nil, fmt.Errorf("dbms: unexpected frame 0x%04x (want 0x%04x)", f.Type, want)
}

// wrapServerError maps protocol error codes onto the shared client
// errors so applications can errors.Is against them.
func wrapServerError(code uint16, msg string) error {
	switch code {
	case codeProtocolMismatch:
		return fmt.Errorf("%w: %s", client.ErrProtocolMismatch, msg)
	case codeAuthFailed:
		return fmt.Errorf("%w: %s", client.ErrAuth, msg)
	case codeNoDatabase:
		return fmt.Errorf("%w: %s", client.ErrNoDatabase, msg)
	case codeQueryError, codeBadHandle:
		return fmt.Errorf("dbms: %s", msg)
	case codeNotSupported:
		return fmt.Errorf("%w: %s", client.ErrNotSupported, msg)
	case codeShutdown:
		return fmt.Errorf("%w: %s", client.ErrClosed, msg)
	default:
		return fmt.Errorf("dbms: [%d] %s", code, msg)
	}
}

// nativeConn is one live protocol connection. Request/response is
// serialized with a mutex: one outstanding statement per connection,
// like classic JDBC.
type nativeConn struct {
	mu        sync.Mutex
	conn      *wire.Conn
	server    string
	sessionID uint64
	proto     uint16        // negotiated protocol version
	caps      uint32        // negotiated capability mask
	opTimeout time.Duration // per-exchange reply deadline
	inTx      bool
	closed    bool
	dec       wire.Decoder // exec's, under mu
}

// NegotiatedProtocol reports the session's negotiated protocol version
// (tests and diagnostics).
func (c *nativeConn) NegotiatedProtocol() uint16 { return c.proto }

// roundTrip sends one request frame and reads its reply, classified by
// payload against the frame type the request wants.
func (c *nativeConn) roundTrip(typ uint16, req []byte, want uint16) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(typ, req, want)
}

// roundTripLocked is roundTrip with c.mu held.
func (c *nativeConn) roundTripLocked(typ uint16, req []byte, want uint16) ([]byte, error) {
	if c.closed {
		// Nothing was transmitted: safe to retry elsewhere.
		return nil, fmt.Errorf("%w (%w)", client.ErrClosed, client.ErrStatementNotSent)
	}
	if err := c.conn.Send(typ, req); err != nil {
		// The send failed before the frame left, so the statement
		// provably never executed; mark it retryable for store layers.
		c.closed = true
		return nil, fmt.Errorf("%w (%w): %v", client.ErrClosed, client.ErrStatementNotSent, err)
	}
	f, err := c.conn.RecvTimeout(c.opTimeout)
	if err != nil {
		// The frame was (at least partially) transmitted but no reply
		// came back — a transport failure or the op deadline firing.
		// Either way the server may or may not have executed it, so NOT
		// marked ErrStatementNotSent: the outcome is ambiguous, and the
		// store layer's redial contract (ErrExecOutcomeUnknown) owns it.
		c.closed = true
		return nil, fmt.Errorf("%w: %v", client.ErrClosed, err)
	}
	return payload(f, want)
}

// exec runs one statement whose reply is a msgResult — ad hoc, or
// through a prepared handle, whose replies are identical on the wire —
// encoded in a pooled encoder and decoded once, into the Result the
// caller keeps. The reply is decoded under the connection's lock, by
// the Decoder the connection keeps, so the Result is the decoding's one
// allocation.
func (c *nativeConn) exec(typ uint16, encode func(e *wire.Encoder) error) (*client.Result, error) {
	e := wire.GetEncoder(128)
	defer wire.PutEncoder(e)
	if err := encode(e); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.roundTripLocked(typ, e.Bytes(), msgResult)
	if err != nil {
		return nil, err
	}
	c.dec = *wire.NewDecoder(p)
	return sqlmini.DecodeResult(&c.dec)
}

func (c *nativeConn) execSQL(sql string, args []any) (*client.Result, error) {
	return c.exec(msgExec, func(e *wire.Encoder) error { return sqlmini.EncodeStatement(e, sql, args) })
}

// Exec implements client.Conn.
func (c *nativeConn) Exec(sql string, args ...any) (*client.Result, error) {
	return c.execSQL(sql, args)
}

// Query implements client.Conn.
func (c *nativeConn) Query(sql string, args ...any) (*client.Result, error) {
	return c.execSQL(sql, args)
}

// ExecBatch implements client.BatchConn: the whole statement list
// travels in one msgExecBatch frame and comes back in one
// msgBatchResult frame — a single wire round trip however many
// statements the batch carries.
func (c *nativeConn) ExecBatch(atomic bool, stmts []client.Statement) ([]*client.Result, error) {
	e := wire.GetEncoder(128)
	defer wire.PutEncoder(e)
	if err := encodeBatch(e, atomic, stmts); err != nil {
		return nil, err
	}
	p, err := c.roundTrip(msgExecBatch, e.Bytes(), msgBatchResult)
	if err != nil {
		return nil, err
	}
	var br batchResultMsg
	if err := wire.Unmarshal(p, &br); err != nil {
		return nil, err
	}
	if br.ErrIndex >= 0 {
		return nil, fmt.Errorf("dbms: batch statement %d: %w",
			br.ErrIndex+1, wrapServerError(br.ErrCode, br.ErrMsg))
	}
	if br.ErrCode != 0 {
		// Batch-level failure (e.g. the wrapping COMMIT): no
		// statement index to point at.
		return nil, wrapServerError(br.ErrCode, br.ErrMsg)
	}
	for _, r := range br.Results {
		r.Versions = br.Versions
	}
	return br.Results, nil
}

// Prepare implements client.StmtConn: the statement is parsed (and its
// plan skeleton cached) once on the server; each Exec of the returned
// handle ships only the handle id and arguments in one msgExecStmt
// round trip. Requires the negotiated CapPreparedStatements
// capability; v1 sessions get client.ErrNotSupported without any I/O.
func (c *nativeConn) Prepare(sql string) (client.ConnStmt, error) {
	if c.caps&CapPreparedStatements == 0 {
		return nil, fmt.Errorf("%w: remote prepared statements (session protocol %d)",
			client.ErrNotSupported, c.proto)
	}
	p, err := c.roundTrip(msgPrepare, wire.Marshal(&prepareMsg{SQL: sql}), msgPrepareOK)
	if err != nil {
		return nil, err
	}
	var ok prepareOKMsg
	if err := wire.Unmarshal(p, &ok); err != nil {
		return nil, err
	}
	return &nativeStmt{c: c, handle: ok.Handle, sql: sql}, nil
}

// nativeStmt is one server-side prepared handle bound to its
// connection. It dies with the connection; Close releases it eagerly.
type nativeStmt struct {
	c      *nativeConn
	handle uint64
	sql    string
	closed bool
}

// Exec implements client.ConnStmt.
func (st *nativeStmt) Exec(args ...any) (*client.Result, error) {
	if st.closed {
		return nil, fmt.Errorf("dbms: prepared statement %q already closed", st.sql)
	}
	return st.c.exec(msgExecStmt, func(e *wire.Encoder) error { return encodeExecStmt(e, st.handle, args) })
}

// Query implements client.ConnStmt.
func (st *nativeStmt) Query(args ...any) (*client.Result, error) { return st.Exec(args...) }

// Close implements client.ConnStmt: releases the server-side handle.
// Closing a handle on an already-dead connection succeeds (the server
// swept the whole table on disconnect).
func (st *nativeStmt) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	_, err := st.c.roundTrip(msgCloseStmt, wire.Marshal(&closeStmtMsg{Handle: st.handle}), msgCloseStmtOK)
	if errors.Is(err, client.ErrClosed) {
		return nil // disconnect already released every handle
	}
	return err
}

// TableVersions implements client.TableVersionConn: one msgTableVersions
// round trip reporting the mutation counter of each named table — the
// wire form of the generation counters metadata caches validate
// against. Requires the negotiated CapTableVersions capability.
func (c *nativeConn) TableVersions(names ...string) ([]uint64, error) {
	if c.caps&CapTableVersions == 0 {
		return nil, fmt.Errorf("%w: table-version probes (session protocol %d)",
			client.ErrNotSupported, c.proto)
	}
	return c.probeVersions(tableVersionsMsg{Names: names})
}

// WatchVersions implements client.VersionWatchConn: the same round trip
// as TableVersions, flagged so the server registers names as the
// session's watch. Requires the negotiated CapWatchVersions
// capability; without it the call fails with client.ErrNotSupported and
// no I/O.
func (c *nativeConn) WatchVersions(names ...string) ([]uint64, error) {
	if c.caps&CapWatchVersions == 0 {
		return nil, fmt.Errorf("%w: version watches (session protocol %d)",
			client.ErrNotSupported, c.proto)
	}
	return c.probeVersions(tableVersionsMsg{Names: names, Watch: true})
}

func (c *nativeConn) probeVersions(m tableVersionsMsg) ([]uint64, error) {
	p, err := c.roundTrip(msgTableVersions, wire.Marshal(&m), msgTableVersionsOK)
	if err != nil {
		return nil, err
	}
	var ok tableVersionsOKMsg
	if err := wire.Unmarshal(p, &ok); err != nil {
		return nil, err
	}
	if len(ok.Versions) != len(m.Names) {
		return nil, fmt.Errorf("dbms: table-versions reply has %d entries for %d names",
			len(ok.Versions), len(m.Names))
	}
	return ok.Versions, nil
}

// Begin implements client.Conn.
func (c *nativeConn) Begin() error {
	if _, err := c.execSQL("BEGIN", nil); err != nil {
		return err
	}
	c.mu.Lock()
	c.inTx = true
	c.mu.Unlock()
	return nil
}

// Commit implements client.Conn.
func (c *nativeConn) Commit() error {
	if _, err := c.execSQL("COMMIT", nil); err != nil {
		return err
	}
	c.mu.Lock()
	c.inTx = false
	c.mu.Unlock()
	return nil
}

// Rollback implements client.Conn.
func (c *nativeConn) Rollback() error {
	if _, err := c.execSQL("ROLLBACK", nil); err != nil {
		return err
	}
	c.mu.Lock()
	c.inTx = false
	c.mu.Unlock()
	return nil
}

// InTx implements client.Conn.
func (c *nativeConn) InTx() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inTx
}

// Ping implements client.Conn.
func (c *nativeConn) Ping() error {
	_, err := c.roundTrip(msgPing, nil, msgPong)
	return err
}

// Close implements client.Conn.
func (c *nativeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// ImageFactory returns the driverimg factory for DriverKind: it builds a
// NativeDriver whose protocol version and build version come from the
// image manifest, wrapped with manifest semantics (URL pinning, option
// defaults). Register it on a Runtime to make DBMS drivers loadable:
//
//	rt.Register(dbms.DriverKind, dbms.ImageFactory())
func ImageFactory() driverimg.Factory {
	return func(img *driverimg.Image) (client.Driver, error) {
		inner := NewNativeDriver(img.Manifest.Version, img.Manifest.ProtocolVersion)
		return driverimg.WrapDriver(inner, img), nil
	}
}
