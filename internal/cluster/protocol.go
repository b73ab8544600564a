package cluster

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// Cluster-internal frames ride the same length-prefixed wire framing
// as the bootstrap protocol but live in their own 0x03xx range so a
// misdirected client is rejected instead of misparsed. 0x0303 and
// 0x0304 are retired; never reuse them.
const (
	msgPing      uint16 = 0x0301 // gossip ping    (member → member)
	msgPong      uint16 = 0x0302 // gossip reply   (member → member)
	msgStatusReq uint16 = 0x0305 // status probe   (operator → member)
	msgStatus    uint16 = 0x0306 // status report  (member → operator)
)

// gossipMsg is the payload of PING and PONG. Alive carries the
// sender's view of recently-heard-from members, so liveness spreads
// transitively even across a half-broken mesh.
type gossipMsg struct {
	From  uint32
	Alive []uint32
}

func (g gossipMsg) encode() []byte {
	e := wire.GetEncoder(8 + 4*len(g.Alive))
	defer wire.PutEncoder(e)
	e.Uint32(g.From)
	e.Uint32(uint32(len(g.Alive)))
	for _, a := range g.Alive {
		e.Uint32(a)
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodeGossip(b []byte) (gossipMsg, error) {
	d := wire.NewDecoder(b)
	g := gossipMsg{From: d.Uint32()}
	n := d.Count(4)
	if n > maxClusterSize {
		return gossipMsg{}, fmt.Errorf("cluster: gossip names %d members", n)
	}
	for i := 0; i < n; i++ {
		g.Alive = append(g.Alive, d.Uint32())
	}
	if err := d.Err(); err != nil {
		return gossipMsg{}, err
	}
	return g, nil
}

// maxClusterSize caps decoded member counts above what any real
// cluster holds. Count already bounds each by the payload; this
// refuses a large frame that is well formed but absurd.
const maxClusterSize = 1 << 10

// PeerStatus is one member's view of one peer (or of itself).
type PeerStatus struct {
	Name        string
	ClientAddr  string
	Self        bool
	Alive       bool          // heard from within FailAfter
	SinceSeen   time.Duration // time since last contact; 0 for self
	OwnedShards uint32        // shards this peer owns in the reporter's view
}

// Status is a member's self-report, served to drivoctl and examples.
type Status struct {
	Name    string
	Index   uint32
	Quorate bool
	Shards  uint32
	Peers   []PeerStatus
}

func (s Status) encode() []byte {
	e := wire.GetEncoder(64)
	defer wire.PutEncoder(e)
	e.String(s.Name)
	e.Uint32(s.Index)
	e.Bool(s.Quorate)
	e.Uint32(s.Shards)
	e.Uint32(uint32(len(s.Peers)))
	for _, p := range s.Peers {
		e.String(p.Name)
		e.String(p.ClientAddr)
		e.Bool(p.Self)
		e.Bool(p.Alive)
		e.Duration(p.SinceSeen)
		e.Uint32(p.OwnedShards)
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodeStatus(b []byte) (Status, error) {
	d := wire.NewDecoder(b)
	s := Status{Name: d.String(), Index: d.Uint32(), Quorate: d.Bool(), Shards: d.Uint32()}
	n := d.Count(22) // a peer takes at least two string lengths, two flags, a duration and a count
	if n > maxClusterSize {
		return Status{}, fmt.Errorf("cluster: status names %d peers", n)
	}
	for i := 0; i < n; i++ {
		s.Peers = append(s.Peers, PeerStatus{
			Name: d.String(), ClientAddr: d.String(), Self: d.Bool(),
			Alive: d.Bool(), SinceSeen: d.Duration(), OwnedShards: d.Uint32(),
		})
	}
	if err := d.Err(); err != nil {
		return Status{}, err
	}
	return s, nil
}

// FetchStatus asks the member listening on the given cluster address
// for its Status. It is the probe behind `drivoctl cluster-status`.
func FetchStatus(addr string, timeout time.Duration) (Status, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := wire.Dial(addr, timeout)
	if err != nil {
		return Status{}, err
	}
	defer conn.Close()
	conn.SetWriteTimeout(timeout)
	if err := conn.Send(msgStatusReq, nil); err != nil {
		return Status{}, err
	}
	f, err := conn.RecvTimeout(timeout)
	if err != nil {
		return Status{}, err
	}
	if f.Type != msgStatus {
		return Status{}, fmt.Errorf("cluster: unexpected frame 0x%04x to status probe", f.Type)
	}
	return decodeStatus(f.Payload)
}
