package sequoia

import (
	"encoding/hex"
	"testing"

	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// TestGoldenControllerFrames pins the controller protocol byte for
// byte: its frame type numbers and error codes, and one hello and one
// error payload whose fields all hold distinct, non-zero values, so a
// declaration that swaps, resizes or drops a field fails here.
func TestGoldenControllerFrames(t *testing.T) {
	numbers := map[string][2]uint16{
		"hello": {msgHello, 0x0301}, "helloOK": {msgHelloOK, 0x0302},
		"exec": {msgExec, 0x0303}, "result": {msgResult, 0x0304},
		"ping": {msgPing, 0x0305}, "pong": {msgPong, 0x0306}, "error": {msgError, 0x03FF},
		"protocolMismatch": {codeProtocolMismatch, 1}, "authFailed": {codeAuthFailed, 2},
		"noDatabase": {codeNoDatabase, 3}, "queryError": {codeQueryError, 4}, "noBackends": {codeNoBackends, 5},
	}
	for name, v := range numbers {
		if v[0] != v[1] {
			t.Errorf("%s = 0x%04x, golden 0x%04x", name, v[0], v[1])
		}
	}

	hello := helloMsg{ProtocolVersion: 1, Database: "db", User: "u", Password: "pw", ClientInfo: "seq 1"}
	const helloHex = "0001" + // ProtocolVersion
		"000000026462" + "0000000175" + "000000027077" + // Database "db", User "u", Password "pw"
		"000000057365712031" // ClientInfo "seq 1"
	if got := hex.EncodeToString(wire.Marshal(&hello)); got != helloHex {
		t.Errorf("hello encoding drifted from the golden fixture:\n got  %s\n want %s", got, helloHex)
	}
	b, _ := hex.DecodeString(helloHex)
	var got helloMsg
	if err := wire.Unmarshal(b, &got); err != nil || got != hello {
		t.Errorf("golden hello decodes as %+v, %v", got, err)
	}

	const errorHex = "0005" + "000000096e6f6e65206c656674" // NO_BACKENDS, "none left"
	em := errorMsg{Code: codeNoBackends, Message: "none left"}
	if got := hex.EncodeToString(wire.Marshal(&em)); got != errorHex {
		t.Errorf("error encoding drifted from the golden fixture:\n got  %s\n want %s", got, errorHex)
	}
	b, _ = hex.DecodeString(errorHex)
	var gotErr errorMsg
	if err := wire.Unmarshal(b, &gotErr); err != nil || gotErr != em {
		t.Errorf("golden error decodes as %+v, %v", gotErr, err)
	}
}

// TestGoldenExecNamedSorted: an exec's named arguments go out in key
// order, so one statement has one wire form whatever order the map
// yields its keys in. Encoded many times, the two-key exec below must
// match the golden bytes every time.
func TestGoldenExecNamedSorted(t *testing.T) {
	args := sqlmini.Args{"b": sqlmini.NewInt(2), "a": sqlmini.NewString("x")}
	const want = "0000000d53454c4543542024622c202461" + // SQL "SELECT $b, $a"
		"00000002" + // two named arguments
		"0000000161" + "05" + "0000000178" + // a = 'x'
		"0000000162" + "03" + "0000000000000002" + // b = 2
		"00000000" // no positional arguments
	for i := 0; i < 32; i++ {
		if got := hex.EncodeToString(statement(t, "SELECT $b, $a", args)); got != want {
			t.Fatalf("encoding %d drifted from the golden fixture:\n got  %s\n want %s", i, got, want)
		}
	}
}
