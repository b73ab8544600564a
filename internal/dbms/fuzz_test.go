package dbms

import (
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
// decoders allocate stays within a constant factor of its length.
func FuzzDbmsFrames(f *testing.F) {
	res := &sqlmini.Result{Cols: []string{"n"}, Rows: [][]sqlmini.Value{{sqlmini.NewInt(3)}}, Affected: 1}
	watched := *res
	watched.Versions = []uint64{5, 9}
	for _, seed := range [][]byte{
		goldenHello().encode(),
		helloOKMsg{ServerName: "db", ServerVersion: "1.0.0", ProtocolVersion: 2, SessionID: 7, Capabilities: 15}.encode(),
		encoded(f, func(e *wire.Encoder) error {
			return encodeExec(e, "SELECT $id", []any{sqlmini.Args{"id": sqlmini.NewInt(1)}})
		}),
		encoded(f, func(e *wire.Encoder) error { return encodeExecStmt(e, 3, []any{sqlmini.NewString("x")}) }),
		encoded(f, func(e *wire.Encoder) error {
			return encodeBatch(e, true, []client.Statement{{SQL: "DELETE FROM t"}})
		}),
		encodeResult(res),
		encodeResult(&watched),
		encoded(f, func(e *wire.Encoder) error {
			(&batchResultMsg{Results: []*sqlmini.Result{res}, ErrIndex: -1}).appendTo(e)
			return nil
		}),
		encoded(f, func(e *wire.Encoder) error {
			(&batchResultMsg{Results: []*sqlmini.Result{res}, ErrIndex: -1, Versions: []uint64{5, 9}}).appendTo(e)
			return nil
		}),
		tableVersionsMsg{Names: []string{"drivers", "driver_permission"}}.encode(),
		tableVersionsMsg{Names: []string{"drivers"}, Watch: true}.encode(),
		tableVersionsOKMsg{Versions: []uint64{5, 9}}.encode(),
		encodeError(codeQueryError, "boom"),
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(seed)
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := decodeHello(b); return err },
		func(b []byte) error { _, err := decodeHelloOK(b); return err },
		func(b []byte) error { var m execFrame; return m.decode(wire.NewDecoder(b), nil) },
		func(b []byte) error { var m execFrame; _, err := m.decodeStmt(wire.NewDecoder(b), nil); return err },
		func(b []byte) error { _, _, err := decodeBatch(b, nil); return err },
		func(b []byte) error { _, err := decodeResult(b); return err },
		func(b []byte) error { _, err := decodeBatchResult(b); return err },
		func(b []byte) error { _, err := decodePrepare(b); return err },
		func(b []byte) error { _, err := decodePrepareOK(b); return err },
		func(b []byte) error { _, err := decodeCloseStmt(b); return err },
		func(b []byte) error { _, err := decodeTableVersions(b); return err },
		func(b []byte) error { _, err := decodeTableVersionsOK(b); return err },
		func(b []byte) error { _, _, err := decodeError(b); return err },
	}
	var before, after runtime.MemStats
	f.Fuzz(func(t *testing.T, b []byte) {
		runtime.ReadMemStats(&before)
		for _, decode := range decoders {
			_ = decode(b)
		}
		runtime.ReadMemStats(&after)
		// A payload backs at most one decoded element per byte; 64 bytes
		// of bookkeeping per payload byte per decoder is far above what
		// any element costs and far below what a trusted count sizes.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+4096)*uint64(len(decoders)); got > limit {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes (limit %d)", len(b), got, limit)
		}
	})
}
