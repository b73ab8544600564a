package sequoia

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

func TestHelloRoundTripProperty(t *testing.T) {
	prop := func(proto uint16, db, user, pw, info string) bool {
		in := helloMsg{ProtocolVersion: proto, Database: db, User: user, Password: pw, ClientInfo: info}
		var out helloMsg
		err := wire.Unmarshal(wire.Marshal(&in), &out)
		return err == nil && out == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// statement is a msgExec payload as the driver encodes it.
func statement(t testing.TB, sql string, args ...any) []byte {
	t.Helper()
	e := wire.NewEncoder(64)
	if err := sqlmini.EncodeStatement(e, sql, args); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// TestExecRoundTrip: the controller reads the SQL, and keeps the
// argument block in the bytes the driver wrote, to relay as it stands.
func TestExecRoundTrip(t *testing.T) {
	for _, args := range [][]any{{sqlmini.Args{"k": "key", "v": 42}}, {"key", 42}, nil} {
		sql := "INSERT INTO kv (k, v) VALUES ($k, $v)"
		b := statement(t, sql, args...)
		var m execMsg
		if err := m.decode(b); err != nil {
			t.Fatal(err)
		}
		if m.SQL != sql || !bytes.Equal(m.Args, b[4+len(sql):]) {
			t.Fatalf("decoded %q %x from %x", m.SQL, []byte(m.Args), b)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &sqlmini.Result{Cols: []string{"a", "b"}, Rows: [][]sqlmini.Value{
		{sqlmini.NewInt(1), sqlmini.NewString("x")},
		{sqlmini.Null, sqlmini.NewBool(true)},
	}, Affected: 7}
	got, err := sqlmini.DecodeResult(wire.NewDecoder(wire.Marshal(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 2 || got.Cols[0] != "a" || got.Affected != 7 || len(got.Rows) != 2 || got.Versions != nil {
		t.Fatalf("decoded %+v", got)
	}
	if got.Rows[0][0].Int() != 1 || !got.Rows[1][1].Bool() || !got.Rows[1][0].IsNull() {
		t.Fatalf("rows = %v", got.Rows)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	var out errorMsg
	err := wire.Unmarshal(wire.Marshal(&errorMsg{Code: codeNoBackends, Message: "none left"}), &out)
	if err != nil || out.Code != codeNoBackends || out.Message != "none left" {
		t.Fatalf("decoded %+v, err=%v", out, err)
	}
	if fmtCode(codeQueryError, "boom") == "" {
		t.Fatal("fmtCode empty")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := wire.Marshal(&helloMsg{ProtocolVersion: 1, Database: "db"})
	if err := wire.Unmarshal(full[:3], &helloMsg{}); err == nil {
		t.Fatal("truncated hello accepted")
	}
	e := statement(t, "SELECT 1")
	if err := (&execMsg{}).decode(e[:2]); err == nil {
		t.Fatal("truncated exec accepted")
	}
}

// TestMalformedRefusalSurfaces: a controller that answers the hello
// with a truncated msgError gets its decode error back to the caller,
// not an empty refusal with code 0.
func TestMalformedRefusalSurfaces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(nc)
		defer c.Close()
		if _, err := c.Recv(); err != nil {
			return
		}
		full := wire.Marshal(&errorMsg{Code: codeAuthFailed, Message: "bad password"})
		_ = c.Send(msgError, full[:len(full)-4])
		_, _ = c.Recv() // until the driver hangs up
	}()
	d := NewDriver(dbver.V(1, 0, 0), 1)
	_, err = d.Connect("sequoia://"+ln.Addr().String()+"/vdb", client.Props{"user": "app", "password": "pw"})
	if err == nil {
		t.Fatal("connect succeeded against a malformed refusal")
	}
	if errors.Is(err, client.ErrAuth) || strings.Contains(err.Error(), "[0]") || !strings.Contains(err.Error(), ln.Addr().String()) {
		t.Fatalf("err = %v, want the refusal's decode error", err)
	}
}

// TestDecodeResultColumnCountChecked: a 17-byte result whose one row
// claims 0xFFFFFFF0 columns is refused before the row is sized.
func TestDecodeResultColumnCountChecked(t *testing.T) {
	b := []byte{
		0, 0, 0, 0, // no column names
		0, 0, 0, 1, // one row
		0xff, 0xff, 0xff, 0xf0, // claiming 0xFFFFFFF0 columns
		0, 0, 0, 0, 0,
	}
	if _, err := sqlmini.DecodeResult(wire.NewDecoder(b)); !errors.Is(err, wire.ErrShortBuffer) {
		t.Fatalf("err = %v, want wire.ErrShortBuffer", err)
	}
}

// TestDecodeExecNamedCountChecked: a 16-byte exec claiming 0x7FFFFFF0
// named arguments is refused before anything is sized from the count.
func TestDecodeExecNamedCountChecked(t *testing.T) {
	b := []byte{
		0, 0, 0, 0, // empty SQL
		0x7f, 0xff, 0xff, 0xf0, // claiming 0x7FFFFFF0 named arguments
		0, 0, 0, 0, 0, 0, 0, 0,
	}
	if err := (&execMsg{}).decode(b); !errors.Is(err, wire.ErrShortBuffer) {
		t.Fatalf("err = %v, want wire.ErrShortBuffer", err)
	}
}

// FuzzSequoiaFrames feeds arbitrary bytes to every decoder either side
// of a controller session runs on its peer's input: hello, exec and
// result (the shared dbms payload decoders), and error. None may panic, and none may size an allocation from a
// count the payload cannot back, so what one payload makes the decoders
// allocate stays within a constant factor of its length.
func FuzzSequoiaFrames(f *testing.F) {
	for _, seed := range [][]byte{
		wire.Marshal(&helloMsg{ProtocolVersion: 1, Database: "db", User: "u", Password: "p", ClientInfo: "sequoia"}),
		statement(f, "SELECT $k", sqlmini.Args{"k": sqlmini.NewInt(1)}),
		statement(f, "SELECT 1", sqlmini.NewString("x")),
		wire.Marshal(&sqlmini.Result{Cols: []string{"n"}, Rows: [][]sqlmini.Value{{sqlmini.NewInt(3)}}, Affected: 1}),
		wire.Marshal(&errorMsg{Code: codeQueryError, Message: "boom"}),
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		f.Add(seed)
	}
	decoders := []func([]byte) error{
		func(b []byte) error { return wire.Unmarshal(b, &helloMsg{}) },
		func(b []byte) error { return (&execMsg{}).decode(b) },
		func(b []byte) error { _, err := sqlmini.DecodeResult(wire.NewDecoder(b)); return err },
		func(b []byte) error { return wire.Unmarshal(b, &errorMsg{}) },
	}
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, b []byte) {
		runtime.ReadMemStats(&before)
		for _, decode := range decoders {
			_ = decode(b)
		}
		runtime.ReadMemStats(&after)
		// The bound FuzzDbmsFrames applies: 64 bytes of bookkeeping per
		// payload byte per decoder is far above what any element costs
		// and far below what a trusted count sizes.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+4096)*uint64(len(decoders)); got > limit {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes (limit %d)", len(b), got, limit)
		}
	})
}
