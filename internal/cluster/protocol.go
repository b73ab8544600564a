package cluster

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// Cluster-internal frames ride the same length-prefixed wire framing
// as the bootstrap protocol but live in their own 0x03xx range so a
// misdirected client is rejected instead of misparsed.
const (
	msgPing       uint16 = 0x0301 // gossip ping            (member → member)
	msgPong       uint16 = 0x0302 // gossip reply           (member → member)
	msgTransfer   uint16 = 0x0303 // shard override push    (member → member)
	msgTransferOK uint16 = 0x0304 // override acknowledged  (member → member)
	msgStatusReq  uint16 = 0x0305 // status probe           (operator → member)
	msgStatus     uint16 = 0x0306 // status report          (member → operator)
)

// OverrideEntry pins one shard to one member, superseding the ring.
type OverrideEntry struct {
	Shard  uint32
	Member uint32
}

// gossipMsg is the payload of PING, PONG and TRANSFER. Alive carries
// the sender's view of recently-heard-from members (so liveness
// spreads transitively even across a half-broken mesh); Epoch and
// Overrides carry the shard override table, replaced wholesale on a
// higher epoch. TRANSFER sends an empty Alive set: it asserts
// ownership, not liveness.
type gossipMsg struct {
	From      uint32
	Epoch     uint64
	Alive     []uint32
	Overrides []OverrideEntry
}

func (g gossipMsg) encode() []byte {
	e := wire.GetEncoder(16 + 4*len(g.Alive) + 8*len(g.Overrides))
	defer wire.PutEncoder(e)
	e.Uint32(g.From)
	e.Uint64(g.Epoch)
	e.Uint32(uint32(len(g.Alive)))
	for _, a := range g.Alive {
		e.Uint32(a)
	}
	e.Uint32(uint32(len(g.Overrides)))
	for _, o := range g.Overrides {
		e.Uint32(o.Shard)
		e.Uint32(o.Member)
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodeGossip(b []byte) (gossipMsg, error) {
	d := wire.NewDecoder(b)
	g := gossipMsg{From: d.Uint32(), Epoch: d.Uint64()}
	n := d.Count(4)
	if n > maxClusterSize {
		return gossipMsg{}, fmt.Errorf("cluster: gossip names %d members", n)
	}
	for i := 0; i < n; i++ {
		g.Alive = append(g.Alive, d.Uint32())
	}
	n = d.Count(8)
	if n > maxShards {
		return gossipMsg{}, fmt.Errorf("cluster: gossip carries %d overrides", n)
	}
	for i := 0; i < n; i++ {
		g.Overrides = append(g.Overrides, OverrideEntry{Shard: d.Uint32(), Member: d.Uint32()})
	}
	if err := d.Err(); err != nil {
		return gossipMsg{}, err
	}
	return g, nil
}

// Caps on decoded counts, above what any real cluster holds. Count
// already bounds each by the payload; these refuse a large frame
// that is well formed but absurd.
const (
	maxClusterSize = 1 << 10
	maxShards      = 1 << 20
)

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
	Name      string
	Index     uint32
	Epoch     uint64
	Quorate   bool
	Shards    uint32
	Peers     []PeerStatus
	Overrides []OverrideEntry
}

func (s Status) encode() []byte {
	e := wire.GetEncoder(64)
	defer wire.PutEncoder(e)
	e.String(s.Name)
	e.Uint32(s.Index)
	e.Uint64(s.Epoch)
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
	e.Uint32(uint32(len(s.Overrides)))
	for _, o := range s.Overrides {
		e.Uint32(o.Shard)
		e.Uint32(o.Member)
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodeStatus(b []byte) (Status, error) {
	d := wire.NewDecoder(b)
	s := Status{Name: d.String(), Index: d.Uint32(), Epoch: d.Uint64(),
		Quorate: d.Bool(), Shards: d.Uint32()}
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
	n = d.Count(8)
	if n > maxShards {
		return Status{}, fmt.Errorf("cluster: status carries %d overrides", n)
	}
	for i := 0; i < n; i++ {
		s.Overrides = append(s.Overrides, OverrideEntry{Shard: d.Uint32(), Member: d.Uint32()})
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
