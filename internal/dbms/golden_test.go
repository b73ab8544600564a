package dbms

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Golden-frame fixtures: the byte-exact encoding of every protocol
// message. These pin the wire format itself — a change that re-orders
// fields, resizes an integer, or breaks the named-argument sort fails
// here in `make check` instead of in a live deployment talking to an
// already-shipped driver. When a frame legitimately grows, append
// trailing fields (old decoders ignore trailing bytes; see the hello
// extension) and update the fixture.

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	return b
}

func checkGolden(t *testing.T, name string, got []byte, wantHex string) {
	t.Helper()
	want := mustHex(t, wantHex)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s encoding drifted from the golden fixture:\n got  %s\n want %s",
			name, hex.EncodeToString(got), wantHex)
	}
}

// encoded runs one of the protocol's append encoders into a fresh
// encoder and returns the payload.
func encoded(t testing.TB, encode func(e *wire.Encoder) error) []byte {
	t.Helper()
	e := wire.NewEncoder(64)
	if err := encode(e); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// encodeResult is appendResult into a fresh encoder.
func encodeResult(r *sqlmini.Result) []byte {
	e := wire.NewEncoder(64)
	appendResult(e, r)
	return e.Bytes()
}

// decodeExecOn decodes a msgExec payload with its SQL resolved in a
// fresh database, so its named arguments bind into real slots.
func decodeExecOn(b []byte) (*execFrame, error) {
	m := &execFrame{}
	err := m.decode(wire.NewDecoder(b), sqlmini.NewDB())
	if err == nil {
		err = m.perr
	}
	return m, err
}

// named reads the value a decoded frame bound under $name.
func (m *execFrame) named(name string) sqlmini.Value {
	slot, ok := m.st.Slot([]byte(name))
	if !ok {
		return sqlmini.Null
	}
	v, _ := m.params.Value(slot)
	return v
}

func goldenHello() helloMsg {
	return helloMsg{
		ProtocolVersion: 2, Database: "prod", User: "svc", Password: "pw",
		ClientInfo: "dbms-native 1.0.0 (proto 2)", MinProtocolVersion: 1,
		Capabilities: CapPreparedStatements | CapTableVersions | CapAtomicBatch,
	}
}

func TestGoldenHello(t *testing.T) {
	m := goldenHello()
	enc := wire.Marshal(&m)
	checkGolden(t, "hello", enc,
		"00020000000470726f64000000037376630000000270770000001b64626d732d6e617469766520312e302e30202870726f746f203229000100000007")
	var got helloMsg
	err := wire.Unmarshal(enc, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
}

// TestGoldenHelloLegacyForm: a v1 (5-field) hello — what an
// already-shipped driver emits — still decodes, defaulting the
// extension to an exact version pin with no capabilities.
func TestGoldenHelloLegacyForm(t *testing.T) {
	legacy := mustHex(t,
		// ProtocolVersion=1, "prod", "svc", "pw", "legacy 1.0"
		"00010000000470726f6400000003737663000000027077"+
			"0000000a6c656761637920312e30")
	var got helloMsg
	err := wire.Unmarshal(legacy, &got)
	if err != nil {
		t.Fatal(err)
	}
	want := helloMsg{ProtocolVersion: 1, Database: "prod", User: "svc",
		Password: "pw", ClientInfo: "legacy 1.0",
		MinProtocolVersion: 1, Capabilities: 0}
	if got != want {
		t.Fatalf("legacy hello decoded as %+v, want %+v", got, want)
	}
}

func TestGoldenHelloOK(t *testing.T) {
	m := helloOKMsg{ServerName: "legacy-db", ServerVersion: "1.0.0",
		ProtocolVersion: 2, SessionID: 7, Capabilities: 7}
	enc := wire.Marshal(&m)
	checkGolden(t, "helloOK", enc,
		"000000096c65676163792d646200000005312e302e300002000000000000000700000007")
	var got helloOKMsg
	err := wire.Unmarshal(enc, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
}

func TestGoldenExecNamed(t *testing.T) {
	sql := "SELECT v FROM t WHERE id = $id AND x = $x"
	enc := encoded(t, func(e *wire.Encoder) error {
		return encodeExec(e, sql, []any{sqlmini.Args{
			"x":  sqlmini.NewString("a"),
			"id": sqlmini.NewInt(42),
		}})
	})
	// Named keys encode in sorted order ("id" before "x") — the fixture
	// pins the determinism the map would otherwise not give.
	checkGolden(t, "exec(named)", enc,
		"0000002953454c45435420762046524f4d2074205748455245206964203d2024696420414e442078203d2024780000000200000002696403000000000000002a000000017805000000016100000000")
	got, err := decodeExecOn(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.sql != sql || got.named("id").Int() != 42 || got.named("x").Str() != "a" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestGoldenExecPositional(t *testing.T) {
	sql := "SELECT v FROM t WHERE id = ?"
	enc := encoded(t, func(e *wire.Encoder) error {
		return encodeExec(e, sql, []any{sqlmini.NewInt(7), sqlmini.NewBool(true)})
	})
	checkGolden(t, "exec(positional)", enc,
		"0000001c53454c45435420762046524f4d2074205748455245206964203d203f0000000000000002030000000000000007080000000000000001")
	got, err := decodeExecOn(enc)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := got.params.Value(0)
	second, _ := got.params.Value(1)
	if _, extra := got.params.Value(2); got.sql != sql || extra || first.Int() != 7 || !second.Bool() {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestGoldenResult(t *testing.T) {
	r := &sqlmini.Result{
		Cols:     []string{"id", "name"},
		Rows:     [][]sqlmini.Value{{sqlmini.NewInt(1), sqlmini.NewString("widget")}},
		Affected: 0,
	}
	enc := encodeResult(r)
	checkGolden(t, "result", enc,
		"00000002000000026964000000046e616d65000000010000000203000000000000000105000000067769646765740000000000000000")
	got, err := decodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cols, r.Cols) || got.Affected != 0 ||
		len(got.Rows) != 1 || got.Rows[0][0].Int() != 1 || got.Rows[0][1].Str() != "widget" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestGoldenBatch(t *testing.T) {
	stmts := []client.Statement{
		{SQL: "INSERT INTO t (id) VALUES (?)", Args: []any{sqlmini.NewInt(1)}},
		{SQL: "DELETE FROM t WHERE id = ?", Args: []any{sqlmini.NewInt(2)}},
	}
	enc := encoded(t, func(e *wire.Encoder) error { return encodeBatch(e, true, stmts) })
	checkGolden(t, "batch", enc,
		"0100000002000000320000001d494e5345525420494e544f207420286964292056414c55455320283f2900000000000000010300000000000000010000002f0000001a44454c4554452046524f4d2074205748455245206964203d203f0000000000000001030000000000000002")
	atomic, got, err := decodeBatch(enc, sqlmini.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got[1].params.Value(0); !atomic || len(got) != 2 || got[1].sql != stmts[1].SQL || v.Int() != 2 {
		t.Fatalf("round trip: %v %+v", atomic, got)
	}
}

func TestGoldenBatchResult(t *testing.T) {
	m := batchResultMsg{
		Results:  []*sqlmini.Result{{Cols: []string{"n"}, Rows: [][]sqlmini.Value{{sqlmini.NewInt(3)}}, Affected: 1}},
		ErrIndex: -1,
	}
	enc := encoded(t, func(e *wire.Encoder) error { m.appendTo(e); return nil })
	checkGolden(t, "batchResult", enc,
		"000000010000002200000001000000016e00000001000000010300000000000000030000000000000001ffffffff000000000000")
	got, err := decodeBatchResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.ErrIndex != -1 || got.ErrCode != 0 ||
		got.Results[0].Rows[0][0].Int() != 3 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestGoldenError(t *testing.T) {
	m := serverError{code: codeQueryError, msg: "boom"}
	enc := wire.Marshal(&m)
	checkGolden(t, "error", enc, "000400000004626f6f6d")
	var got serverError
	if err := wire.Unmarshal(enc, &got); err != nil || got != m {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestGoldenPrepare(t *testing.T) {
	m := prepareMsg{SQL: "SELECT 1"}
	enc := wire.Marshal(&m)
	checkGolden(t, "prepare", enc, "0000000853454c4543542031")
	var got prepareMsg
	err := wire.Unmarshal(enc, &got)
	if err != nil || got != m {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestGoldenPrepareOK(t *testing.T) {
	m := prepareOKMsg{Handle: 3}
	enc := wire.Marshal(&m)
	checkGolden(t, "prepareOK", enc, "0000000000000003")
	var got prepareOKMsg
	err := wire.Unmarshal(enc, &got)
	if err != nil || got != m {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestGoldenExecStmt(t *testing.T) {
	enc := encoded(t, func(e *wire.Encoder) error {
		return encodeExecStmt(e, 3, []any{sqlmini.Args{"id": sqlmini.NewInt(1)}})
	})
	checkGolden(t, "execStmt", enc,
		"00000000000000030000000100000002696403000000000000000100000000")
	checkExecStmtRoundTrip(t, enc, 3, "SELECT $id", map[string]sqlmini.Value{"id": sqlmini.NewInt(1)})
}

// checkExecStmtRoundTrip decodes an exec-stmt payload against a handle
// prepared from sql and checks that each named value landed in its slot.
func checkExecStmtRoundTrip(t *testing.T, enc []byte, handle uint64, sql string, want map[string]sqlmini.Value) {
	t.Helper()
	p, err := sqlmini.NewDB().Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	var m execFrame
	got, err := m.decodeStmt(wire.NewDecoder(enc), map[uint64]*sqlmini.Prepared{handle: p})
	if err != nil || got != handle || m.p != p {
		t.Fatalf("round trip: handle %d (%v), %v", got, m.p, err)
	}
	for name, w := range want {
		slot, _ := p.Slot([]byte(name))
		if v, ok := m.params.Value(slot); !ok || v.Type() != w.Type() || !sqlmini.Equal(v, w) {
			t.Fatalf("round trip: $%s = %v, want %v", name, v, w)
		}
	}
}

// TestGoldenExecStmtThreeKeys pins the renewal's argument shape: three
// named keys of three value kinds, given in unsorted order, encoded
// straight from a sqlmini.Args map. The fixture was recorded from the
// map-based encoder this one replaced, so the bytes on the wire did not
// move.
func TestGoldenExecStmtThreeKeys(t *testing.T) {
	exp := time.Date(2026, 3, 1, 12, 0, 30, 0, time.UTC)
	enc := encoded(t, func(e *wire.Encoder) error {
		return encodeExecStmt(e, 5, []any{sqlmini.Args{"id": int64(7), "exp": exp, "drv": "dbms-native"}})
	})
	checkGolden(t, "execStmt(three keys)", enc,
		"0000000000000005"+"00000003"+
			"00000003647276"+"05"+"0000000b64626d732d6e6174697665"+
			"00000003657870"+"07"+"1898b5e0affa2c00"+
			"000000026964"+"03"+"0000000000000007"+
			"00000000")
	checkExecStmtRoundTrip(t, enc, 5, "UPDATE t SET exp = $exp, drv = $drv WHERE id = $id",
		map[string]sqlmini.Value{"id": sqlmini.NewInt(7), "exp": sqlmini.NewTime(exp), "drv": sqlmini.NewString("dbms-native")})
}

func TestGoldenCloseStmt(t *testing.T) {
	m := closeStmtMsg{Handle: 3}
	enc := wire.Marshal(&m)
	checkGolden(t, "closeStmt", enc, "0000000000000003")
	var got closeStmtMsg
	err := wire.Unmarshal(enc, &got)
	if err != nil || got != m {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestGoldenTableVersions(t *testing.T) {
	m := tableVersionsMsg{Names: []string{"drivers", "driver_permission"}}
	enc := wire.Marshal(&m)
	checkGolden(t, "tableVersions", enc,
		"000000020000000764726976657273000000116472697665725f7065726d697373696f6e")
	var got tableVersionsMsg
	err := wire.Unmarshal(enc, &got)
	if err != nil || !reflect.DeepEqual(got.Names, m.Names) {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestGoldenTableVersionsOK(t *testing.T) {
	m := tableVersionsOKMsg{Versions: []uint64{5, 9}}
	enc := m.encode()
	checkGolden(t, "tableVersionsOK", enc,
		"0000000200000000000000050000000000000009")
	got, err := decodeTableVersionsOK(enc)
	if err != nil || !reflect.DeepEqual(got.Versions, m.Versions) {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

// TestMalformedCountsRejected: decoders must validate wire counts
// against the remaining payload BEFORE sizing allocations — a tiny
// frame claiming 2^32-1 entries errors instead of OOMing the process.
func TestMalformedCountsRejected(t *testing.T) {
	huge := "ffffffff"
	cases := map[string]func([]byte) error{
		// exec with a huge named-arg count and no entries.
		"exec named":      func(b []byte) error { _, err := decodeExecOn(b); return err },
		"execStmt named":  func(b []byte) error { var m execFrame; _, err := m.decodeStmt(wire.NewDecoder(b), nil); return err },
		"result cols":     func(b []byte) error { _, err := decodeResult(b); return err },
		"tableVersionsOK": func(b []byte) error { _, err := decodeTableVersionsOK(b); return err },
	}
	payloads := map[string]string{
		"exec named":      "00000000" + huge,         // empty SQL, named count max
		"execStmt named":  "0000000000000001" + huge, // handle 1, named count max
		"result cols":     "0000000000000001" + huge, // 0 cols, 1 row claiming max cells
		"tableVersionsOK": huge,                      // max versions, no data
	}
	for name, decode := range cases {
		if err := decode(mustHex(t, payloads[name])); err == nil {
			t.Errorf("%s: malformed count must be rejected", name)
		}
	}
}

// TestGoldenFrameTypes pins the frame-type and error-code NUMBERS: a
// renumbering (say, an inserted iota) would break every shipped peer
// while still passing encode/decode round trips.
func TestGoldenFrameTypes(t *testing.T) {
	types := map[string][2]uint16{
		"hello":           {msgHello, 0x0101},
		"helloOK":         {msgHelloOK, 0x0102},
		"exec":            {msgExec, 0x0103},
		"result":          {msgResult, 0x0104},
		"ping":            {msgPing, 0x0105},
		"pong":            {msgPong, 0x0106},
		"execBatch":       {msgExecBatch, 0x0107},
		"batchResult":     {msgBatchResult, 0x0108},
		"prepare":         {msgPrepare, 0x0109},
		"prepareOK":       {msgPrepareOK, 0x010A},
		"execStmt":        {msgExecStmt, 0x010B},
		"closeStmt":       {msgCloseStmt, 0x010C},
		"closeStmtOK":     {msgCloseStmtOK, 0x010D},
		"tableVersions":   {msgTableVersions, 0x010E},
		"tableVersionsOK": {msgTableVersionsOK, 0x010F},
		"error":           {msgError, 0x01FF},
	}
	for name, v := range types {
		if v[0] != v[1] {
			t.Errorf("frame type %s = 0x%04x, golden 0x%04x", name, v[0], v[1])
		}
	}
	codes := map[string][2]uint16{
		"protocolMismatch": {codeProtocolMismatch, 1},
		"authFailed":       {codeAuthFailed, 2},
		"noDatabase":       {codeNoDatabase, 3},
		"queryError":       {codeQueryError, 4},
		"shutdown":         {codeShutdown, 6},
		"badHandle":        {codeBadHandle, 7},
		"notSupported":     {codeNotSupported, 8},
	}
	for name, v := range codes {
		if v[0] != v[1] {
			t.Errorf("error code %s = %d, golden %d", name, v[0], v[1])
		}
	}
	caps := map[string][2]uint32{
		"preparedStatements": {CapPreparedStatements, 1},
		"tableVersions":      {CapTableVersions, 2},
		"atomicBatch":        {CapAtomicBatch, 4},
	}
	for name, v := range caps {
		if v[0] != v[1] {
			t.Errorf("capability %s = %d, golden %d", name, v[0], v[1])
		}
	}
}

// TestGoldenVersionWatch pins the watch extension: the watch flag
// trails a probe's names, the counter list trails a watched session's
// result and batch result, and the capability bit is 8. The plain forms
// above are unchanged by it.
func TestGoldenVersionWatch(t *testing.T) {
	if CapWatchVersions != 8 {
		t.Fatalf("capability watchVersions = %d, golden 8", CapWatchVersions)
	}
	m := tableVersionsMsg{Names: []string{"drivers", "driver_permission"}, Watch: true}
	enc := wire.Marshal(&m)
	checkGolden(t, "tableVersions(watch)", enc,
		"000000020000000764726976657273000000116472697665725f7065726d697373696f6e01")
	var got tableVersionsMsg
	err := wire.Unmarshal(enc, &got)
	if err != nil || !got.Watch || !reflect.DeepEqual(got.Names, m.Names) {
		t.Fatalf("round trip: %+v %v", got, err)
	}

	r := &sqlmini.Result{Cols: []string{"n"}, Rows: [][]sqlmini.Value{{sqlmini.NewInt(3)}},
		Affected: 1, Versions: []uint64{5, 9}}
	enc = encodeResult(r)
	checkGolden(t, "result(versions)", enc,
		"00000001000000016e0000000100000001030000000000000003"+"0000000000000001"+
			"00000002"+"0000000000000005"+"0000000000000009")
	res, err := decodeResult(enc)
	if err != nil || !reflect.DeepEqual(res.Versions, r.Versions) || res.Affected != 1 {
		t.Fatalf("round trip: %+v %v", res, err)
	}

	br := batchResultMsg{Results: []*sqlmini.Result{{Affected: 1}}, ErrIndex: -1, Versions: []uint64{5, 9}}
	enc = encoded(t, func(e *wire.Encoder) error { br.appendTo(e); return nil })
	checkGolden(t, "batchResult(versions)", enc,
		"00000001"+"00000010"+"00000000"+"00000000"+"0000000000000001"+
			"ffffffff"+"0000"+"00000000"+
			"00000002"+"0000000000000005"+"0000000000000009")
	gotBR, err := decodeBatchResult(enc)
	if err != nil || !reflect.DeepEqual(gotBR.Versions, br.Versions) || gotBR.Results[0].Versions != nil {
		t.Fatalf("round trip: %+v %v", gotBR, err)
	}
}
