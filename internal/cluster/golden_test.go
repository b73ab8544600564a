package cluster

import (
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestGoldenClusterFrames pins the member-to-member and operator
// frames byte for byte: the type numbers, and one gossip and one status
// payload whose fields all hold distinct, non-zero values, so a
// declaration that swaps, resizes or drops a field fails here and not
// only when an older member or drivoctl misreads a newer one.
func TestGoldenClusterFrames(t *testing.T) {
	types := map[string][2]uint16{
		"ping": {msgPing, 0x0301}, "pong": {msgPong, 0x0302},
		"statusReq": {msgStatusReq, 0x0305}, "status": {msgStatus, 0x0306},
	}
	for name, v := range types {
		if v[0] != v[1] {
			t.Errorf("frame type %s = 0x%04x, golden 0x%04x", name, v[0], v[1])
		}
	}

	gossip := &gossipMsg{From: 3, Alive: []uint32{5, 9}}
	status := &Status{Name: "m-1", Index: 2, Quorate: true, Shards: 48, Peers: []PeerStatus{
		{Name: "m-0", ClientAddr: "a:1", Alive: true, SinceSeen: 40 * time.Millisecond, OwnedShards: 16},
		{Name: "m-2", ClientAddr: "a:2", Self: true, SinceSeen: 3 * time.Second, OwnedShards: 12},
	}}
	for _, g := range []struct {
		name    string
		msg     wire.Message
		wantHex string
	}{
		{"gossip", gossip,
			"00000003" + // From
				"00000002" + "00000005" + "00000009"}, // Alive: 5, 9
		{"status", status,
			"000000036d2d31" + "00000002" + "01" + "00000030" + // Name "m-1", Index 2, Quorate, Shards 48
				"00000002" + // two peers
				"000000036d2d30" + "00000003613a31" + "00" + "01" + "0000000002625a00" + "00000010" + // m-0, a:1, not self, alive, 40 ms, 16 shards
				"000000036d2d32" + "00000003613a32" + "01" + "00" + "00000000b2d05e00" + "0000000c"}, // m-2, a:2, self, not alive, 3 s, 12 shards
	} {
		if got := hex.EncodeToString(wire.Marshal(g.msg)); got != g.wantHex {
			t.Errorf("%s encoding drifted from the golden fixture:\n got  %s\n want %s", g.name, got, g.wantHex)
			continue
		}
		want, _ := hex.DecodeString(g.wantHex)
		got := reflect.New(reflect.TypeOf(g.msg).Elem()).Interface().(wire.Message)
		if err := wire.Unmarshal(want, got); err != nil || !reflect.DeepEqual(got, g.msg) {
			t.Errorf("%s: golden bytes decode as %+v, %v; want %+v", g.name, got, err, g.msg)
		}
	}
}
