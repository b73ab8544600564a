package sqlmini

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// TestDecodeValueRefusesNonCanonicalBoolean: a BOOLEAN's payload is 0
// or 1, so a result or an argument has exactly one encoding.
func TestDecodeValueRefusesNonCanonicalBoolean(t *testing.T) {
	for payload, want := range map[uint64]bool{0: true, 1: true, 2: false, 1 << 63: false} {
		e := wire.NewEncoder(16)
		e.Uint8(uint8(TypeBoolean))
		e.Uint64(payload)
		v, err := DecodeValue(wire.NewDecoder(e.Bytes()))
		if (err == nil) != want || err == nil && v.Bool() != (payload == 1) {
			t.Errorf("BOOLEAN payload %d decodes as %v, %v", payload, v, err)
		}
	}
}

// TestArgBlockRelays: an argument block passed on as an ArgBlock is
// written as it stands.
func TestArgBlockRelays(t *testing.T) {
	for _, args := range [][]any{{Args{"K": "a", "v": 1}}, {"b", 2}, nil} {
		e := wire.NewEncoder(64)
		if err := EncodeArgs(e, args); err != nil {
			t.Fatal(err)
		}
		block := ArgBlock(bytes.Clone(e.Bytes()))
		relayed := wire.NewEncoder(64)
		if err := EncodeArgs(relayed, []any{block}); err != nil || !bytes.Equal(relayed.Bytes(), block) {
			t.Fatalf("%v relayed as %x (%v), not %x", args, relayed.Bytes(), err, []byte(block))
		}
	}
}
