package dbms

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Tests for the v2 session protocol: capability negotiation, remote
// prepared statements, and table-version probes.

// dialV2 connects with a driver that speaks the full v2 range.
func dialV2(t *testing.T, s *Server) client.Conn {
	t.Helper()
	d := NewNativeDriver(dbver.V(2, 0, 0), ProtocolV2, WithProtocolFloor(ProtocolV1))
	c, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// rawExchange sends one frame on a driver connection and returns the
// reply unclassified, so a test can read a refusal's code.
func rawExchange(t *testing.T, nc *nativeConn, typ uint16, body []byte) wire.Frame {
	t.Helper()
	if err := nc.conn.Send(typ, body); err != nil {
		t.Fatal(err)
	}
	f, err := nc.conn.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNegotiationMatrix covers the mixed-version handshake: ranged and
// pinned clients against ranged and pinned servers, and v2 peers from
// before CapWatchVersions against current ones in both directions.
func TestNegotiationMatrix(t *testing.T) {
	rangedSrv := startServer(t) // default: [ProtocolV1, ProtocolV2]
	v1Srv := startServer(t, WithProtocolVersion(1))
	v2Srv := startServer(t, WithProtocolVersion(2))
	preWatchSrv := startServer(t, func(s *Server) { s.withoutCaps = CapWatchVersions })
	preWatchDrv := NewNativeDriver(dbver.V(2, 0, 0), 2, WithProtocolFloor(1))
	preWatchDrv.withoutCaps = CapWatchVersions

	cases := []struct {
		name      string
		driver    *NativeDriver
		server    *Server
		wantProto uint16
		wantCaps  bool
		wantWatch bool
		wantFail  bool
	}{
		{"ranged vs ranged", NewNativeDriver(dbver.V(2, 0, 0), 2, WithProtocolFloor(1)), rangedSrv, 2, true, true, false},
		{"ranged v2 client vs pinned v1 server", NewNativeDriver(dbver.V(2, 0, 0), 2, WithProtocolFloor(1)), v1Srv, 1, false, false, false},
		{"pinned v1 client vs ranged server", NewNativeDriver(dbver.V(1, 0, 0), 1), rangedSrv, 1, false, false, false},
		{"pinned v2 client vs ranged server", NewNativeDriver(dbver.V(2, 0, 0), 2), rangedSrv, 2, true, true, false},
		{"pinned v1 client vs pinned v2 server", NewNativeDriver(dbver.V(1, 0, 0), 1), v2Srv, 0, false, false, true},
		{"pinned v2 client vs pinned v1 server", NewNativeDriver(dbver.V(2, 0, 0), 2), v1Srv, 0, false, false, true},
		{"pre-watch v2 client vs ranged server", preWatchDrv, rangedSrv, 2, true, false, false},
		{"ranged v2 client vs pre-watch server", NewNativeDriver(dbver.V(2, 0, 0), 2, WithProtocolFloor(1)), preWatchSrv, 2, true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.driver.Connect("dbms://"+tc.server.Addr()+"/app",
				client.Props{"user": "alice", "password": "secret"})
			if tc.wantFail {
				if !errors.Is(err, client.ErrProtocolMismatch) {
					t.Fatalf("err = %v, want ErrProtocolMismatch", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			nc := c.(*nativeConn)
			if nc.NegotiatedProtocol() != tc.wantProto {
				t.Fatalf("negotiated %d, want %d", nc.NegotiatedProtocol(), tc.wantProto)
			}
			// Each capability call answers for itself: it works, or it
			// fails with ErrNotSupported.
			_, perr := c.(client.StmtConn).Prepare("SELECT count(*) FROM accounts")
			_, verr := c.(client.TableVersionConn).TableVersions("accounts")
			_, werr := c.(client.VersionWatchConn).WatchVersions("accounts")
			for _, call := range []struct {
				name string
				err  error
				want bool
			}{{"Prepare", perr, tc.wantCaps}, {"TableVersions", verr, tc.wantCaps}, {"WatchVersions", werr, tc.wantWatch}} {
				if call.want != (call.err == nil) || !call.want && !errors.Is(call.err, client.ErrNotSupported) {
					t.Fatalf("%s: err = %v, want capability %v", call.name, call.err, call.want)
				}
			}
			if !tc.wantWatch {
				// The server refuses a raw watch the session did not
				// negotiate, whatever the client library would send.
				f := rawExchange(t, nc, msgTableVersions, wire.Marshal(&tableVersionsMsg{Names: []string{"accounts"}, Watch: true}))
				var se serverError
				if err := wire.Unmarshal(f.Payload, &se); err != nil || f.Type != msgError || se.code != codeNotSupported {
					t.Fatalf("raw watch answered 0x%04x (code %d, %v), want codeNotSupported", f.Type, se.code, err)
				}
			}
			// The session must actually work at the negotiated version,
			// and its replies carry versions exactly when it watches.
			res, err := c.Query("SELECT count(*) FROM accounts")
			if err != nil {
				t.Fatal(err)
			}
			if (res.Versions != nil) != tc.wantWatch {
				t.Fatalf("reply versions = %v, want carried = %v", res.Versions, tc.wantWatch)
			}
		})
	}
}

// TestVersionWatch: a watched session's replies — ad hoc, prepared and
// batch — carry the watched tables' versions as they stood after the
// statement, the watch registration is a probe (and only that), and an
// unwatched session's replies carry none.
func TestVersionWatch(t *testing.T) {
	s := startServer(t)
	c := dialV2(t, s)
	plain := dialV2(t, s)
	queriesBefore := s.QueriesServed()
	initial, err := c.(client.VersionWatchConn).WatchVersions("accounts", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if s.VersionProbesServed() != 1 || s.QueriesServed() != queriesBefore {
		t.Fatalf("registration: %d probes, %d statements; want 1 probe, 0 statements",
			s.VersionProbesServed(), s.QueriesServed()-queriesBefore)
	}
	probe := func() uint64 {
		t.Helper()
		vs, err := plain.(client.TableVersionConn).TableVersions("accounts")
		if err != nil {
			t.Fatal(err)
		}
		return vs[0]
	}
	check := func(name string, got []uint64) {
		t.Helper()
		if want := probe(); len(got) != 2 || got[0] != want || got[1] != 0 {
			t.Fatalf("%s reply carries %v, want [%d 0]", name, got, want)
		}
	}

	res, err := c.Exec("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Versions[0] <= initial[0] {
		t.Fatalf("an UPDATE's reply carries %v, the watch started at %v: read before the write", res.Versions, initial)
	}
	check("exec", res.Versions)

	st, err := c.(client.StmtConn).Prepare("UPDATE accounts SET balance = balance + 1 WHERE id = $id")
	if err != nil {
		t.Fatal(err)
	}
	if res, err = st.Exec(sqlmini.Args{"id": 2}); err != nil {
		t.Fatal(err)
	}
	check("exec-stmt", res.Versions)

	rs, err := c.(client.BatchConn).ExecBatch(true, []client.Statement{
		{SQL: "UPDATE accounts SET balance = 0 WHERE id = 1"},
		{SQL: "SELECT count(*) FROM accounts"},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("batch", rs[1].Versions)

	if res, err = plain.Query("SELECT count(*) FROM accounts"); err != nil || res.Versions != nil {
		t.Fatalf("unwatched reply carries %v (err %v), want none", res.Versions, err)
	}
}

// TestNegotiatedDownDisablesCapabilities: a v2 driver downgraded to a
// v1 session gets ErrNotSupported from capability methods without any
// wire traffic, so pooled stores can fall back cheaply.
func TestNegotiatedDownDisablesCapabilities(t *testing.T) {
	s := startServer(t, WithProtocolVersion(1))
	d := NewNativeDriver(dbver.V(2, 0, 0), 2, WithProtocolFloor(1))
	c, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	queriesBefore := s.QueriesServed()
	if _, err := c.(client.StmtConn).Prepare("SELECT 1"); !errors.Is(err, client.ErrNotSupported) {
		t.Fatalf("Prepare on v1 session: err = %v, want ErrNotSupported", err)
	}
	if _, err := c.(client.TableVersionConn).TableVersions("accounts"); !errors.Is(err, client.ErrNotSupported) {
		t.Fatalf("TableVersions on v1 session: err = %v, want ErrNotSupported", err)
	}
	if got := s.QueriesServed() - queriesBefore; got != 0 {
		t.Fatalf("capability refusal cost %d server statements, want 0", got)
	}
}

// TestPreparedEquivalence: a remote prepared handle returns exactly
// what the same SQL returns ad hoc — results and errors — while the
// server parses once, not per call.
func TestPreparedEquivalence(t *testing.T) {
	s := startServer(t)
	c := dialV2(t, s)
	sc := c.(client.StmtConn)

	st, err := sc.Prepare("SELECT balance FROM accounts WHERE id = $id")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2, 1} {
		pr, err := st.Exec(sqlmini.Args{"id": id})
		if err != nil {
			t.Fatal(err)
		}
		ar, err := c.Query("SELECT balance FROM accounts WHERE id = $id", sqlmini.Args{"id": id})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Rows[0][0].Int() != ar.Rows[0][0].Int() {
			t.Fatalf("id %d: prepared %v != ad hoc %v", id, pr.Rows[0][0], ar.Rows[0][0])
		}
	}
	if got := s.PreparesServed(); got != 1 {
		t.Fatalf("PreparesServed = %d, want 1", got)
	}
	if got := s.StmtExecsServed(); got != 3 {
		t.Fatalf("StmtExecsServed = %d, want 3", got)
	}

	// Errors surface in the same shape: a divide-by-zero style runtime
	// error through the handle matches the ad-hoc one.
	bad, err := sc.Prepare("SELECT balance FROM nowhere")
	if err != nil {
		t.Fatal(err)
	}
	_, prepErr := bad.Exec()
	_, adhocErr := c.Query("SELECT balance FROM nowhere")
	if prepErr == nil || adhocErr == nil {
		t.Fatalf("both paths must fail: prepared %v, ad hoc %v", prepErr, adhocErr)
	}
	if prepErr.Error() != adhocErr.Error() {
		t.Fatalf("error drift: prepared %q vs ad hoc %q", prepErr, adhocErr)
	}
}

// TestPrepareRejectsBadSQL: parse errors surface at prepare time.
func TestPrepareRejectsBadSQL(t *testing.T) {
	s := startServer(t)
	c := dialV2(t, s)
	if _, err := c.(client.StmtConn).Prepare("SELEKT 1"); err == nil {
		t.Fatal("prepare of invalid SQL must fail")
	}
	// Transaction control is session state and unpreparable.
	if _, err := c.(client.StmtConn).Prepare("BEGIN"); err == nil {
		t.Fatal("prepare of BEGIN must fail")
	}
}

// TestPreparedJoinsTransaction: a prepared mutation executed inside an
// open client transaction joins it — rollback reverts it, exactly as
// the same SQL sent ad hoc would behave.
func TestPreparedJoinsTransaction(t *testing.T) {
	s := startServer(t)
	c := dialV2(t, s)
	st, err := c.(client.StmtConn).Prepare("INSERT INTO accounts (id, balance) VALUES ($id, $b)")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(sqlmini.Args{"id": 77, "b": 700}); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT count(*) FROM accounts WHERE id = 77")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("rolled-back prepared INSERT must not survive")
	}

	// And commit publishes.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(sqlmini.Args{"id": 78, "b": 800}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res, _ = c.Query("SELECT count(*) FROM accounts WHERE id = 78")
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("committed prepared INSERT must survive")
	}
}

// TestPreparedReplicates: mutations through a prepared handle reach
// attached replicas like their ad-hoc equivalents (replication ships
// the statement text recorded at prepare time).
func TestPreparedReplicates(t *testing.T) {
	master := startServer(t)
	replicaDB := fixtureDB()
	replica := NewServer("replica")
	replica.AddDatabase("app", replicaDB)
	master.AttachReplica(replica)

	c := dialV2(t, master)
	st, err := c.(client.StmtConn).Prepare("UPDATE accounts SET balance = balance + $d WHERE id = $id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(sqlmini.Args{"d": 11, "id": 1}); err != nil {
		t.Fatal(err)
	}
	res, err := replicaDB.Exec("SELECT balance FROM accounts WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 111 {
		t.Fatalf("replica balance = %d, want 111", res.Rows[0][0].Int())
	}
}

// TestCloseStmt: a closed handle is gone server-side (bad-handle error
// on reuse through a fresh frame), re-closing is a no-op, and closing
// an unknown handle does not kill the session.
func TestCloseStmt(t *testing.T) {
	s := startServer(t)
	c := dialV2(t, s)
	st, err := c.(client.StmtConn).Prepare("SELECT count(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// The handle id is dead on the server: replay its exec frame raw.
	nc := c.(*nativeConn)
	handle := st.(*nativeStmt).handle
	f := rawExchange(t, nc, msgExecStmt, encoded(t, func(e *wire.Encoder) error { return encodeExecStmt(e, handle, nil) }))
	if f.Type != msgError {
		t.Fatalf("exec of closed handle answered 0x%04x, want msgError", f.Type)
	}
	var se serverError
	if derr := wire.Unmarshal(f.Payload, &se); derr != nil || se.code != codeBadHandle {
		t.Fatalf("code = %d (%v), want codeBadHandle", se.code, derr)
	}
	// The session survived and still serves.
	if _, err := c.Query("SELECT count(*) FROM accounts"); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStmtLimit: the per-session handle table is bounded.
func TestSessionStmtLimit(t *testing.T) {
	s := startServer(t)
	c := dialV2(t, s)
	sc := c.(client.StmtConn)
	for i := 0; i < maxSessionStmts; i++ {
		if _, err := sc.Prepare(fmt.Sprintf("SELECT %d FROM accounts", i)); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
	}
	if _, err := sc.Prepare("SELECT count(*) FROM accounts"); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Fatalf("prepare beyond the session limit: err = %v", err)
	}
}

// TestSessionStmtLimitFreesOnClose: closing a handle makes room.
func TestSessionStmtLimitFreesOnClose(t *testing.T) {
	s := startServer(t)
	c := dialV2(t, s)
	sc := c.(client.StmtConn)
	handles := make([]client.ConnStmt, 0, maxSessionStmts)
	for i := 0; i < maxSessionStmts; i++ {
		h, err := sc.Prepare(fmt.Sprintf("SELECT %d FROM accounts", i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := handles[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Prepare("SELECT count(*) FROM accounts"); err != nil {
		t.Fatalf("prepare after a close must fit again: %v", err)
	}
}

// TestTableVersionsProbe: the probe reports live per-table counters,
// moves with mutations, costs zero SQL statements, and reports 0 for
// unknown tables.
func TestTableVersionsProbe(t *testing.T) {
	s := startServer(t)
	c := dialV2(t, s)
	tvc := c.(client.TableVersionConn)

	queriesBefore := s.QueriesServed()
	v1, err := tvc.TableVersions("accounts", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if v1[1] != 0 {
		t.Fatalf("unknown table version = %d, want 0", v1[1])
	}
	if _, err := c.Exec("UPDATE accounts SET balance = balance + 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	v2, err := tvc.TableVersions("accounts", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if v2[0] <= v1[0] {
		t.Fatalf("accounts version must move: %d then %d", v1[0], v2[0])
	}
	if got := s.VersionProbesServed(); got != 2 {
		t.Fatalf("VersionProbesServed = %d, want 2", got)
	}
	// Probes are not statements: only the UPDATE counted.
	if got := s.QueriesServed() - queriesBefore; got != 1 {
		t.Fatalf("probes leaked into QueriesServed: %d statements, want 1", got)
	}
}

// TestServerGatesUnnegotiatedFrames: a session that negotiated v1 on
// the wire cannot smuggle v2 frames past the handshake — the server
// enforces the capability mask, not just the client library.
func TestServerGatesUnnegotiatedFrames(t *testing.T) {
	s := startServer(t)
	conn, err := wire.Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A v1 hello: no capability bits.
	hello := helloMsg{ProtocolVersion: 1, MinProtocolVersion: 1, Database: "app",
		User: "alice", Password: "secret", ClientInfo: "raw"}
	if err := conn.Send(msgHello, wire.Marshal(&hello)); err != nil {
		t.Fatal(err)
	}
	f, err := conn.RecvTimeout(2 * time.Second)
	if err != nil || f.Type != msgHelloOK {
		t.Fatalf("handshake: %v / 0x%04x", err, f.Type)
	}
	for _, probe := range []struct {
		name string
		typ  uint16
		body []byte
	}{
		{"prepare", msgPrepare, wire.Marshal(&prepareMsg{SQL: "SELECT 1"})},
		{"execStmt", msgExecStmt, encoded(t, func(e *wire.Encoder) error { return encodeExecStmt(e, 1, nil) })},
		{"closeStmt", msgCloseStmt, wire.Marshal(&closeStmtMsg{Handle: 1})},
		{"tableVersions", msgTableVersions, wire.Marshal(&tableVersionsMsg{Names: []string{"accounts"}})},
	} {
		if err := conn.Send(probe.typ, probe.body); err != nil {
			t.Fatal(err)
		}
		f, err := conn.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != msgError {
			t.Fatalf("%s on v1 session answered 0x%04x, want msgError", probe.name, f.Type)
		}
		var se serverError
		if derr := wire.Unmarshal(f.Payload, &se); derr != nil || se.code != codeNotSupported {
			t.Fatalf("%s: code = %d (%v), want codeNotSupported", probe.name, se.code, derr)
		}
	}
	// The session is still alive for negotiated traffic.
	if err := conn.Send(msgPing, nil); err != nil {
		t.Fatal(err)
	}
	if f, err := conn.RecvTimeout(2 * time.Second); err != nil || f.Type != msgPong {
		t.Fatalf("ping after refusals: %v / 0x%04x", err, f.Type)
	}
}

// TestHandleSweepOnDisconnect: handles do not outlive their session —
// a new connection starts with a fresh handle space (handle ids
// restart, and the old session's table was dropped with it).
func TestHandleSweepOnDisconnect(t *testing.T) {
	s := startServer(t)
	c1 := dialV2(t, s)
	st, err := c1.(client.StmtConn).Prepare("SELECT count(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	h1 := st.(*nativeStmt).handle
	c1.Close()

	c2 := dialV2(t, s)
	st2, err := c2.(client.StmtConn).Prepare("SELECT count(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.(*nativeStmt).handle; got != h1 {
		t.Fatalf("fresh session's first handle = %d, want %d (per-session id space)", got, h1)
	}
	if _, err := st2.Exec(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedMessagesOutliveTheirFrame: wire.Conn.Recv reuses one
// payload buffer, so decoded values must not alias it. A Result with
// VARCHAR and BLOB columns and execs carrying BLOB arguments, named and
// positional, are each decoded from frame k; frame k+1, as long and all
// 0xFF, then arrives in one write, received through Recv (into the
// buffer frame k lay in) and through RecvBody (over the Conn's
// read-ahead); every decoded value must still be what was sent.
func TestDecodedMessagesOutliveTheirFrame(t *testing.T) {
	blob := []byte{0, 1, 2, 3, 0xfe}
	res := &sqlmini.Result{
		Cols:     []string{"name", "code"},
		Rows:     [][]sqlmini.Value{{sqlmini.NewString("driver-v2"), sqlmini.NewBytes(blob)}},
		Affected: 1,
	}
	args := []sqlmini.Value{sqlmini.NewBytes(blob), sqlmini.NewString("tail")}
	same := func(a, b []sqlmini.Value) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Type() != b[i].Type() || a[i].Str() != b[i].Str() {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) (check func() bool, err error)
	}{
		{"Result", wire.Marshal(res), func(b []byte) (func() bool, error) {
			got, err := sqlmini.DecodeResult(wire.NewDecoder(b))
			return func() bool {
				return strings.Join(got.Cols, ",") == "name,code" && len(got.Rows) == 1 &&
					same(got.Rows[0], res.Rows[0]) && got.Affected == 1
			}, err
		}},
		{"exec(named)", encoded(t, func(e *wire.Encoder) error {
			return sqlmini.EncodeStatement(e, "INSERT INTO t VALUES ($code, $tail)", []any{sqlmini.Args{"code": args[0], "tail": args[1]}})
		}), func(b []byte) (func() bool, error) {
			got, err := decodeExecOn(b)
			return func() bool {
				return same([]sqlmini.Value{got.named("code"), got.named("tail")}, args)
			}, err
		}},
		{"exec(positional)", encoded(t, func(e *wire.Encoder) error {
			return sqlmini.EncodeStatement(e, "INSERT INTO t VALUES (?, ?)", []any{args[0], args[1]})
		}), func(b []byte) (func() bool, error) {
			got, err := decodeExecOn(b)
			return func() bool {
				first, _ := got.params.Value(0)
				second, _ := got.params.Value(1)
				return same([]sqlmini.Value{first, second}, args)
			}, err
		}},
	} {
		for _, viaBody := range []bool{false, true} {
			a, b := net.Pipe()
			next := wire.Frame{Type: 2, Payload: bytes.Repeat([]byte{0xff}, len(tc.payload))}
			go func() {
				defer a.Close()
				_ = wire.WriteFrame(a, wire.Frame{Type: 1, Payload: tc.payload})
				var buf bytes.Buffer
				_ = wire.WriteFrame(&buf, next)
				_, _ = a.Write(buf.Bytes())
			}()
			conn := wire.NewConn(b)
			f, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			check, err := tc.decode(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			var typ uint16
			var n int // payload bytes of frame k+1 read
			if viaBody {
				err = conn.RecvBody(time.Second, func(ft uint16, size int, body io.Reader) error {
					typ = ft
					var rerr error
					n, rerr = io.ReadFull(body, make([]byte, size))
					return rerr
				})
			} else {
				f, err = conn.Recv()
				typ, n = f.Type, len(f.Payload)
			}
			if err != nil || typ != next.Type || n != len(next.Payload) {
				t.Fatalf("%s: frame k+1: type %d, %d bytes, err %v; want type %d, %d bytes (RecvBody: %v)",
					tc.name, typ, n, err, next.Type, len(next.Payload), viaBody)
			}
			if !check() {
				t.Fatalf("%s decoded from frame k changed when frame k+1 arrived (RecvBody: %v)", tc.name, viaBody)
			}
			conn.Close()
		}
	}
}

// TestMixedArgumentBlockRefused: an argument block carrying named AND
// positional values binds neither way, so msgExec, msgExecStmt and the
// statements of a batch (atomic or not) refuse it with codeQueryError
// and execute nothing — none of them may run on the named half and drop
// the rest. The frames are built by hand, field by field.
func TestMixedArgumentBlockRefused(t *testing.T) {
	s := startServer(t)
	conn, err := wire.Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(typ uint16, payload []byte) wire.Frame {
		t.Helper()
		if err := conn.Send(typ, payload); err != nil {
			t.Fatal(err)
		}
		f, err := conn.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	hello := helloMsg{ProtocolVersion: ProtocolV2, MinProtocolVersion: ProtocolV2, Database: "app",
		User: "alice", Password: "secret", ClientInfo: "raw", Capabilities: CapPreparedStatements}
	if f := exchange(msgHello, wire.Marshal(&hello)); f.Type != msgHelloOK {
		t.Fatalf("handshake answered 0x%04x", f.Type)
	}
	const sql = "UPDATE accounts SET balance = 0 WHERE id = $id"
	f := exchange(msgPrepare, wire.Marshal(&prepareMsg{SQL: sql}))
	var ok prepareOKMsg
	if err := wire.Unmarshal(f.Payload, &ok); f.Type != msgPrepareOK || err != nil {
		t.Fatalf("prepare answered 0x%04x (%v)", f.Type, err)
	}

	mixed := func(e *wire.Encoder) {
		e.Uint32(1) // one named value: $id = 1
		e.String("id")
		sqlmini.EncodeValue(e, sqlmini.NewInt(1))
		e.Uint32(1) // and one positional value
		sqlmini.EncodeValue(e, sqlmini.NewInt(2))
	}
	exec := wire.NewEncoder(64)
	exec.String(sql)
	mixed(exec)
	stmt := wire.NewEncoder(64)
	stmt.Uint64(ok.Handle)
	mixed(stmt)
	batch := func(atomic bool) []byte {
		e := wire.NewEncoder(64)
		e.Bool(atomic)
		e.Uint32(1)
		e.Bytes32(exec.Bytes())
		return e.Bytes()
	}
	for _, tc := range []struct {
		name    string
		typ     uint16
		payload []byte
	}{
		{"exec", msgExec, exec.Bytes()},
		{"execStmt", msgExecStmt, stmt.Bytes()},
		{"batch", msgExecBatch, batch(false)},
		{"atomic batch", msgExecBatch, batch(true)},
	} {
		f := exchange(tc.typ, tc.payload)
		if f.Type != msgError {
			t.Fatalf("%s with a mixed argument block answered 0x%04x, want msgError", tc.name, f.Type)
		}
		var se serverError
		if err := wire.Unmarshal(f.Payload, &se); err != nil || se.code != codeQueryError {
			t.Fatalf("%s: code %d %q (%v), want codeQueryError", tc.name, se.code, se.msg, err)
		}
	}
	res := s.Database("app").MustExec("SELECT balance FROM accounts WHERE id = 1")
	if got := res.Rows[0][0].Int(); got != 100 {
		t.Fatalf("a refused frame executed: balance %d, want 100", got)
	}
	if f := exchange(msgPing, nil); f.Type != msgPong {
		t.Fatalf("ping after refusals answered 0x%04x", f.Type)
	}
}

// TestDoubleValueArgumentRefused: an argument block carrying value tag
// 4, DOUBLE's until the dialect dropped it, is refused with
// codeQueryError, executes nothing, and leaves the session usable. The
// frame is built by hand, field by field.
func TestDoubleValueArgumentRefused(t *testing.T) {
	s := startServer(t)
	conn, err := wire.Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(typ uint16, payload []byte) wire.Frame {
		t.Helper()
		if err := conn.Send(typ, payload); err != nil {
			t.Fatal(err)
		}
		f, err := conn.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	hello := helloMsg{ProtocolVersion: 1, MinProtocolVersion: 1, Database: "app",
		User: "alice", Password: "secret", ClientInfo: "raw"}
	if f := exchange(msgHello, wire.Marshal(&hello)); f.Type != msgHelloOK {
		t.Fatalf("handshake answered 0x%04x", f.Type)
	}
	exec := wire.NewEncoder(64)
	exec.String("UPDATE accounts SET balance = ? WHERE id = 1")
	exec.Uint32(0) // no named values
	exec.Uint32(1) // one positional value: tag 4 and a float's eight bytes
	exec.Uint8(4)
	exec.Uint64(0x4000000000000000) // 2.0
	f := exchange(msgExec, exec.Bytes())
	if f.Type != msgError {
		t.Fatalf("an argument of value tag 4 answered 0x%04x, want msgError", f.Type)
	}
	var se serverError
	if err := wire.Unmarshal(f.Payload, &se); err != nil || se.code != codeQueryError {
		t.Fatalf("code %d %q (%v), want codeQueryError", se.code, se.msg, err)
	}
	if got := s.Database("app").MustExec("SELECT balance FROM accounts WHERE id = 1").Rows[0][0].Int(); got != 100 {
		t.Fatalf("the refused statement executed: balance %d, want 100", got)
	}
	if f := exchange(msgPing, nil); f.Type != msgPong {
		t.Fatalf("ping after the refusal answered 0x%04x", f.Type)
	}
	ok := wire.NewEncoder(64)
	if err := sqlmini.EncodeStatement(ok, "SELECT balance FROM accounts WHERE id = ?", []any{1}); err != nil {
		t.Fatal(err)
	}
	if f := exchange(msgExec, ok.Bytes()); f.Type != msgResult {
		t.Fatalf("a well-formed statement after the refusal answered 0x%04x, want msgResult", f.Type)
	}
}
