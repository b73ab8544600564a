package cluster

import (
	"reflect"
	"testing"
	"time"
)

// FuzzClusterFrames feeds arbitrary bytes to the two decoders of frames
// a peer or a member sends: gossip (PING/PONG) and status. Neither may
// panic or return more than maxClusterSize entries, and a frame either
// accepts survives encode then decode unchanged. The seed corpus (a
// 3-member gossip frame, a 3-member status frame and their truncations)
// runs as part of plain `go test`.
func FuzzClusterFrames(f *testing.F) {
	gossip := gossipMsg{From: 1, Alive: []uint32{0, 2}}.encode()
	status := Status{Name: "m-0", Index: 0, Quorate: true, Shards: 48, Peers: []PeerStatus{
		{Name: "m-0", ClientAddr: "127.0.0.1:7070", Self: true, Alive: true, OwnedShards: 16},
		{Name: "m-1", ClientAddr: "127.0.0.1:7071", Alive: true, SinceSeen: 40 * time.Millisecond, OwnedShards: 16},
		{Name: "m-2", ClientAddr: "127.0.0.1:7072", SinceSeen: time.Second, OwnedShards: 16},
	}}.encode()
	for _, frame := range [][]byte{gossip, status} {
		for n := 0; n <= len(frame); n += 3 {
			f.Add(frame[:n])
		}
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if g, err := decodeGossip(b); err == nil {
			if len(g.Alive) > maxClusterSize {
				t.Fatalf("gossip accepted %d members", len(g.Alive))
			}
			again, err := decodeGossip(g.encode())
			if err != nil || !reflect.DeepEqual(again, g) {
				t.Fatalf("gossip round trip: %+v, %v; want %+v", again, err, g)
			}
		}
		if s, err := decodeStatus(b); err == nil {
			if len(s.Peers) > maxClusterSize {
				t.Fatalf("status accepted %d peers", len(s.Peers))
			}
			again, err := decodeStatus(s.encode())
			if err != nil || !reflect.DeepEqual(again, s) {
				t.Fatalf("status round trip: %+v, %v; want %+v", again, err, s)
			}
		}
	})
}
