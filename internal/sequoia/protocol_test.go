package sequoia

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sqlmini"
	"repro/internal/wire"
)

func TestHelloRoundTripProperty(t *testing.T) {
	prop := func(proto uint16, db, user, pw, info string) bool {
		in := helloMsg{ProtocolVersion: proto, Database: db, User: user, Password: pw, ClientInfo: info}
		out, err := decodeHello(in.encode())
		return err == nil && out == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExecRoundTrip(t *testing.T) {
	in := execMsg{
		SQL: "INSERT INTO kv (k, v) VALUES ($k, $v)",
		Named: map[string]sqlmini.Value{
			"k": sqlmini.NewString("key"),
			"v": sqlmini.NewInt(42),
		},
	}
	out, err := decodeExec(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.SQL != in.SQL || len(out.Named) != 2 {
		t.Fatalf("out = %+v", out)
	}
	if out.Named["k"].Str() != "key" || out.Named["v"].Int() != 42 {
		t.Fatalf("named = %v", out.Named)
	}

	in2 := execMsg{SQL: "SELECT 1", Positional: []sqlmini.Value{sqlmini.NewBool(true), sqlmini.Null}}
	out2, err := decodeExec(in2.encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Positional) != 2 || !out2.Positional[0].Bool() || !out2.Positional[1].IsNull() {
		t.Fatalf("positional = %v", out2.Positional)
	}
}

func TestResultRoundTrip(t *testing.T) {
	cols := []string{"a", "b"}
	rows := [][]sqlmini.Value{
		{sqlmini.NewInt(1), sqlmini.NewString("x")},
		{sqlmini.Null, sqlmini.NewFloat(2.5)},
	}
	gc, gr, aff, err := decodeResult(encodeResult(cols, rows, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(gc) != 2 || gc[0] != "a" || aff != 7 || len(gr) != 2 {
		t.Fatalf("cols=%v aff=%d rows=%d", gc, aff, len(gr))
	}
	if gr[0][0].Int() != 1 || gr[1][1].Float() != 2.5 || !gr[1][0].IsNull() {
		t.Fatalf("rows = %v", gr)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	code, msg, err := decodeError(encodeError(codeNoBackends, "none left"))
	if err != nil || code != codeNoBackends || msg != "none left" {
		t.Fatalf("code=%d msg=%q err=%v", code, msg, err)
	}
	if fmtCode(codeQueryError, "boom") == "" {
		t.Fatal("fmtCode empty")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := helloMsg{ProtocolVersion: 1, Database: "db"}.encode()
	if _, err := decodeHello(full[:3]); err == nil {
		t.Fatal("truncated hello accepted")
	}
	e := execMsg{SQL: "SELECT 1"}.encode()
	if _, err := decodeExec(e[:2]); err == nil {
		t.Fatal("truncated exec accepted")
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
	if _, _, _, err := decodeResult(b); !errors.Is(err, wire.ErrShortBuffer) {
		t.Fatalf("err = %v, want wire.ErrShortBuffer", err)
	}
}

// TestDecodeExecNamedCountChecked: a 16-byte exec claiming 0x7FFFFFF0
// named arguments is refused before the argument map is sized.
func TestDecodeExecNamedCountChecked(t *testing.T) {
	b := []byte{
		0, 0, 0, 0, // empty SQL
		0x7f, 0xff, 0xff, 0xf0, // claiming 0x7FFFFFF0 named arguments
		0, 0, 0, 0, 0, 0, 0, 0,
	}
	if _, err := decodeExec(b); !errors.Is(err, wire.ErrShortBuffer) {
		t.Fatalf("err = %v, want wire.ErrShortBuffer", err)
	}
}

// FuzzSequoiaFrames feeds arbitrary bytes to every decoder either side
// of a controller session runs on its peer's input: hello, exec, result
// and error. None may panic, and none may size an allocation from a
// count the payload cannot back, so what one payload makes the decoders
// allocate stays within a constant factor of its length.
func FuzzSequoiaFrames(f *testing.F) {
	for _, seed := range [][]byte{
		helloMsg{ProtocolVersion: 1, Database: "db", User: "u", Password: "p", ClientInfo: "sequoia"}.encode(),
		execMsg{SQL: "SELECT $k", Named: map[string]sqlmini.Value{"k": sqlmini.NewInt(1)}}.encode(),
		execMsg{SQL: "SELECT 1", Positional: []sqlmini.Value{sqlmini.NewString("x")}}.encode(),
		encodeResult([]string{"n"}, [][]sqlmini.Value{{sqlmini.NewInt(3)}}, 1),
		encodeError(codeQueryError, "boom"),
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		f.Add(seed)
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := decodeHello(b); return err },
		func(b []byte) error { _, err := decodeExec(b); return err },
		func(b []byte) error { _, _, _, err := decodeResult(b); return err },
		func(b []byte) error { _, _, err := decodeError(b); return err },
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
