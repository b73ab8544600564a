package dbms

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// FuzzDbmsFrames feeds arbitrary bytes to every decoder either side of
// a session runs on its peer's input: the server's hello, exec,
// exec-stmt, batch, prepare, close-stmt and table-versions (with and
// without the watch flag), and the client's hello-OK, result and batch
// result (with and without trailing versions), prepare-OK,
// table-versions-OK and error. None may panic, and none may size an
// allocation from a count the payload cannot back: every count is
// checked against Remaining() first, so what one payload makes the
// decoders allocate stays within a constant factor of its length. A
// declared frame that decodes must re-encode to exactly the bytes it
// consumed, so each layout has one encoding.
func FuzzDbmsFrames(f *testing.F) {
	res := &sqlmini.Result{Cols: []string{"n"}, Rows: [][]sqlmini.Value{{sqlmini.NewInt(3)}}, Affected: 1}
	watched := *res
	watched.Versions = []uint64{5, 9}
	hello := goldenHello()
	for _, seed := range [][]byte{
		wire.Marshal(&hello),
		wire.Marshal(&helloOKMsg{ServerName: "db", ServerVersion: "1.0.0", ProtocolVersion: 2, SessionID: 7, Capabilities: 15}),
		encoded(f, func(e *wire.Encoder) error {
			return sqlmini.EncodeStatement(e, "SELECT $id", []any{sqlmini.Args{"id": sqlmini.NewInt(1)}})
		}),
		encoded(f, func(e *wire.Encoder) error { return encodeExecStmt(e, 3, []any{sqlmini.NewString("x")}) }),
		encoded(f, func(e *wire.Encoder) error {
			return encodeBatch(e, true, []client.Statement{{SQL: "DELETE FROM t"}})
		}),
		wire.Marshal(res),
		wire.Marshal(&watched),
		wire.Marshal(&batchResultMsg{Results: []*sqlmini.Result{res}, ErrIndex: -1}),
		wire.Marshal(&batchResultMsg{Results: []*sqlmini.Result{res}, ErrIndex: -1, Versions: []uint64{5, 9}}),
		wire.Marshal(&tableVersionsMsg{Names: []string{"drivers", "driver_permission"}}),
		wire.Marshal(&tableVersionsMsg{Names: []string{"drivers"}, Watch: true}),
		wire.Marshal(&tableVersionsOKMsg{Versions: []uint64{5, 9}}),
		wire.Marshal(&serverError{code: codeQueryError, msg: "boom"}),
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(seed)
	}
	decoders := []func([]byte) error{
		func(b []byte) error { return wire.Unmarshal(b, &helloMsg{}) },
		func(b []byte) error { return wire.Unmarshal(b, &helloOKMsg{}) },
		func(b []byte) error { var m execFrame; return m.decode(wire.NewDecoder(b), nil) },
		func(b []byte) error { var m execFrame; _, err := m.decodeStmt(wire.NewDecoder(b), nil); return err },
		func(b []byte) error { _, _, err := decodeBatch(b, nil); return err },
		func(b []byte) error { _, err := sqlmini.DecodeResult(wire.NewDecoder(b)); return err },
		func(b []byte) error { return wire.Unmarshal(b, &batchResultMsg{}) },
		func(b []byte) error { return wire.Unmarshal(b, &prepareMsg{}) },
		func(b []byte) error { return wire.Unmarshal(b, &prepareOKMsg{}) },
		func(b []byte) error { return wire.Unmarshal(b, &closeStmtMsg{}) },
		func(b []byte) error { return wire.Unmarshal(b, &tableVersionsMsg{}) },
		func(b []byte) error { return wire.Unmarshal(b, &tableVersionsOKMsg{}) },
		func(b []byte) error { return wire.Unmarshal(b, &serverError{}) },
	}
	// The payloads declared by Fields whose every field is canonical:
	// the hello, hello-OK and probe extensions read a legacy form that
	// writes back in the current one.
	declared := []func() wire.Message{
		func() wire.Message { return new(sqlmini.Result) },
		func() wire.Message { return new(batchResultMsg) },
		func() wire.Message { return new(tableVersionsOKMsg) },
		func() wire.Message { return new(prepareMsg) },
		func() wire.Message { return new(prepareOKMsg) },
		func() wire.Message { return new(closeStmtMsg) },
		func() wire.Message { return new(serverError) },
	}
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, b []byte) {
		runtime.ReadMemStats(&before)
		for _, decode := range decoders {
			_ = decode(b)
		}
		runtime.ReadMemStats(&after)
		for _, fresh := range declared {
			m := fresh()
			d := wire.NewDecoder(b)
			m.Fields(wire.Reading(d))
			if d.Err() != nil {
				continue
			}
			if got, want := wire.Marshal(m), b[:len(b)-d.Remaining()]; !bytes.Equal(got, want) {
				t.Fatalf("%T %+v re-encodes as\n %x\nnot the bytes it decoded from\n %x", m, m, got, want)
			}
		}
		// A payload backs at most one decoded element per byte; 64 bytes
		// of bookkeeping per payload byte per decoder is far above what
		// any element costs and far below what a trusted count sizes.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+4096)*uint64(len(decoders)); got > limit {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes (limit %d)", len(b), got, limit)
		}
	})
}
