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

func (g *gossipMsg) Fields(w wire.Walker) {
	w.Uint32(&g.From)
	wire.Slice(w, &g.Alive, 4, maxClusterSize, wire.Walker.Uint32)
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

// Fields declares one peer's entry in the STATUS layout.
func (p *PeerStatus) Fields(w wire.Walker) {
	w.String(&p.Name)
	w.String(&p.ClientAddr)
	w.Bool(&p.Self)
	w.Bool(&p.Alive)
	w.Duration(&p.SinceSeen)
	w.Uint32(&p.OwnedShards)
}

// Status is a member's self-report, served to drivoctl and examples.
type Status struct {
	Name    string
	Index   uint32
	Quorate bool
	Shards  uint32
	Peers   []PeerStatus
}

// Fields declares the STATUS layout.
func (s *Status) Fields(w wire.Walker) {
	w.String(&s.Name)
	w.Uint32(&s.Index)
	w.Bool(&s.Quorate)
	w.Uint32(&s.Shards)
	// A peer takes at least two string lengths, two flags, a duration
	// and a count.
	wire.Slice(w, &s.Peers, 22, maxClusterSize, func(w wire.Walker, p *PeerStatus) { p.Fields(w) })
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
	var s Status
	if err := wire.Unmarshal(f.Payload, &s); err != nil {
		return Status{}, err
	}
	return s, nil
}
