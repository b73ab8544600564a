package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// FuzzClusterFrames feeds arbitrary bytes to the two decoders of frames
// a peer or a member sends: gossip (PING/PONG) and status. Neither may
// panic or return more than maxClusterSize entries, and a frame either
// accepts survives encode then decode unchanged. The seed corpus (a
// 3-member gossip frame, a 3-member status frame and their truncations)
// runs as part of plain `go test`.
func FuzzClusterFrames(f *testing.F) {
	gossip := wire.Marshal(&gossipMsg{From: 1, Alive: []uint32{0, 2}})
	status := wire.Marshal(&Status{Name: "m-0", Index: 0, Quorate: true, Shards: 48, Peers: []PeerStatus{
		{Name: "m-0", ClientAddr: "127.0.0.1:7070", Self: true, Alive: true, OwnedShards: 16},
		{Name: "m-1", ClientAddr: "127.0.0.1:7071", Alive: true, SinceSeen: 40 * time.Millisecond, OwnedShards: 16},
		{Name: "m-2", ClientAddr: "127.0.0.1:7072", SinceSeen: time.Second, OwnedShards: 16},
	}})
	for _, frame := range [][]byte{gossip, status} {
		for n := 0; n <= len(frame); n += 3 {
			f.Add(frame[:n])
		}
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		var g, gAgain gossipMsg
		if err := wire.Unmarshal(b, &g); err == nil {
			if len(g.Alive) > maxClusterSize {
				t.Fatalf("gossip accepted %d members", len(g.Alive))
			}
			err := wire.Unmarshal(wire.Marshal(&g), &gAgain)
			if err != nil || !reflect.DeepEqual(gAgain, g) {
				t.Fatalf("gossip round trip: %+v, %v; want %+v", gAgain, err, g)
			}
		}
		var s, sAgain Status
		if err := wire.Unmarshal(b, &s); err == nil {
			if len(s.Peers) > maxClusterSize {
				t.Fatalf("status accepted %d peers", len(s.Peers))
			}
			err := wire.Unmarshal(wire.Marshal(&s), &sAgain)
			if err != nil || !reflect.DeepEqual(sAgain, s) {
				t.Fatalf("status round trip: %+v, %v; want %+v", sAgain, err, s)
			}
		}
	})
}
