package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

//lint:latch-leaf Member.mu

// MemberConfig describes one member's place in the cluster. Names and
// ClientAddrs are indexed by member and identical on every member —
// the map is static; only liveness is dynamic.
type MemberConfig struct {
	Index       int      // this member's slot
	Names       []string // display names, one per member
	ClientAddrs []string // bootstrap-protocol addresses, one per member

	Shards   int  // shard count; default 16 per member
	ByDriver bool // shard by driver id (required in license mode)

	ListenAddr string // cluster listener; default 127.0.0.1:0

	// HeartbeatInterval paces pings to every peer (default 250ms).
	// FailAfter is the takeover deadline: a peer silent this long is
	// dead and its shards move (default 8× heartbeat). FenceAfter is
	// the self-fencing deadline: without majority contact this recent,
	// the member stops claiming ownership (default 4× heartbeat). The
	// constructor enforces FenceAfter + 2×heartbeat < FailAfter so a
	// cut-off member fences before any peer takes over.
	HeartbeatInterval time.Duration
	FailAfter         time.Duration
	FenceAfter        time.Duration

	DialTimeout time.Duration   // per-exchange deadline; default 2s
	Backoff     faultnet.Policy // pacing after failed peer exchanges

	// Dial overrides how cluster links are opened; chaos tests route
	// them through faultnet proxies. Nil means wire.Dial.
	Dial func(to int, addr string, timeout time.Duration) (*wire.Conn, error)

	Logf func(format string, args ...any)
}

// Member is the membership/health half of a cluster node: it
// heartbeats peers, tracks who is alive, and turns that into routing
// decisions for the colocated core.Server via Route.
type Member struct {
	cfg   MemberConfig
	n     int
	ln    *listener
	start sync.Once
	stop  sync.Once

	stopCh chan struct{}
	wg     sync.WaitGroup

	mu    sync.Mutex
	peers []string // cluster addresses, fixed at Start
	seen  []time.Time
}

// NewMember validates the config and binds the cluster listener, so
// the member's ClusterAddr is known before any peer starts.
func NewMember(cfg MemberConfig) (*Member, error) {
	n := len(cfg.Names)
	if n == 0 || len(cfg.ClientAddrs) != n {
		return nil, fmt.Errorf("cluster: need matching Names and ClientAddrs, got %d/%d",
			n, len(cfg.ClientAddrs))
	}
	if cfg.Index < 0 || cfg.Index >= n {
		return nil, fmt.Errorf("cluster: member index %d outside [0,%d)", cfg.Index, n)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16 * n
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 250 * time.Millisecond
	}
	if cfg.FenceAfter <= 0 {
		cfg.FenceAfter = 4 * cfg.HeartbeatInterval
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 8 * cfg.HeartbeatInterval
	}
	if cfg.FenceAfter+2*cfg.HeartbeatInterval >= cfg.FailAfter {
		return nil, fmt.Errorf(
			"cluster: fencing must precede takeover: FenceAfter(%v) + 2×heartbeat(%v) must stay below FailAfter(%v)",
			cfg.FenceAfter, cfg.HeartbeatInterval, cfg.FailAfter)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	m := &Member{
		cfg:    cfg,
		n:      n,
		stopCh: make(chan struct{}),
		seen:   make([]time.Time, n),
	}
	ln, err := m.bind(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	m.ln = ln
	return m, nil
}

// ClusterAddr is the member's cluster-protocol address (heartbeats and
// status probes) — distinct from its client address.
func (m *Member) ClusterAddr() string { return m.ln.addr() }

// Name returns the member's own display name.
func (m *Member) Name() string { return m.cfg.Names[m.cfg.Index] }

// Start records the peers' cluster addresses (indexed like Names) and
// launches the accept loop plus one heartbeat loop per peer.
func (m *Member) Start(clusterAddrs []string) error {
	if len(clusterAddrs) != m.n {
		return fmt.Errorf("cluster: %d cluster addrs for %d members", len(clusterAddrs), m.n)
	}
	m.start.Do(func() {
		now := time.Now()
		m.mu.Lock()
		m.peers = append([]string(nil), clusterAddrs...)
		// Grace period: every peer starts "just seen" so a booting
		// cluster is quorate immediately instead of fencing until the
		// first full heartbeat round completes.
		for i := range m.seen {
			m.seen[i] = now
		}
		m.mu.Unlock()
		m.wg.Add(1)
		go m.acceptLoop()
		for p := 0; p < m.n; p++ {
			if p == m.cfg.Index {
				continue
			}
			m.wg.Add(1)
			go m.heartbeatLoop(p)
		}
	})
	return nil
}

// Stop halts heartbeats and the listener and waits for both.
func (m *Member) Stop() {
	m.stop.Do(func() {
		close(m.stopCh)
		m.ln.close()
		m.wg.Wait()
	})
}

// Route implements core.ShardRouter: it decides, per grant, whether
// this member serves it, redirects to the owner, or — fenced — returns
// the zero Route so the server declines and the bootloader fails over.
func (m *Member) Route(driverID int64, clientID string) core.Route {
	shard := ShardMap{Shards: m.cfg.Shards, ByDriver: m.cfg.ByDriver}.Shard(driverID, clientID)
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.quorateLocked(now) {
		return core.Route{}
	}
	owner := m.ownerLocked(shard, now)
	if owner == m.cfg.Index {
		return core.Route{Local: true}
	}
	return core.Route{Addr: m.cfg.ClientAddrs[owner], Server: m.cfg.Names[owner]}
}

// Quorate reports whether the member currently sees a majority.
func (m *Member) Quorate() bool {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quorateLocked(now)
}

// Status snapshots the member's view for operators.
func (m *Member) Status() Status {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Name:    m.Name(),
		Index:   uint32(m.cfg.Index),
		Quorate: m.quorateLocked(now),
		Shards:  uint32(m.cfg.Shards),
	}
	owned := make([]uint32, m.n)
	for s := 0; s < m.cfg.Shards; s++ {
		owned[m.ownerLocked(uint32(s), now)]++
	}
	for i := 0; i < m.n; i++ {
		p := PeerStatus{
			Name:        m.cfg.Names[i],
			ClientAddr:  m.cfg.ClientAddrs[i],
			Self:        i == m.cfg.Index,
			Alive:       m.aliveLocked(i, now),
			OwnedShards: owned[i],
		}
		if !p.Self {
			p.SinceSeen = now.Sub(m.seen[i])
		}
		st.Peers = append(st.Peers, p)
	}
	return st
}

// ownerLocked resolves a shard to its current owner: the first live
// member walking the ring from the shard's home.
func (m *Member) ownerLocked(shard uint32, now time.Time) int {
	home := ShardMap{Shards: m.cfg.Shards}.Home(shard, m.n)
	for i := 0; i < m.n; i++ {
		cand := (home + i) % m.n
		if m.aliveLocked(cand, now) {
			return cand
		}
	}
	return m.cfg.Index // everyone looks dead; moot, the member is fenced
}

func (m *Member) aliveLocked(i int, now time.Time) bool {
	return i == m.cfg.Index || now.Sub(m.seen[i]) < m.cfg.FailAfter
}

// quorateLocked: majority contact within FenceAfter, counting self.
func (m *Member) quorateLocked(now time.Time) bool {
	fresh := 1
	for i := range m.seen {
		if i != m.cfg.Index && now.Sub(m.seen[i]) < m.cfg.FenceAfter {
			fresh++
		}
	}
	return 2*fresh > m.n
}

// gossipLocked builds the sender's liveness advertisement.
// Only peers heard from very recently (2×heartbeat) are advertised, so
// staleness gains at most one gossip window per relay hop.
func (m *Member) gossipLocked(now time.Time) gossipMsg {
	g := gossipMsg{From: uint32(m.cfg.Index)}
	for i := range m.seen {
		if i != m.cfg.Index && now.Sub(m.seen[i]) < 2*m.cfg.HeartbeatInterval {
			g.Alive = append(g.Alive, uint32(i))
		}
	}
	return g
}

// merge folds a received gossip payload in. direct marks payloads read
// off a connection from the sender itself: only those update the
// sender's seen time to now. Relayed liveness is backdated by the
// gossip window, so it can keep a reachable-via-relay member alive but
// can never outrank direct contact.
func (m *Member) merge(g gossipMsg, direct bool) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(g.From) < m.n && int(g.From) != m.cfg.Index && direct {
		m.seen[g.From] = now
	}
	relayed := now.Add(-2 * m.cfg.HeartbeatInterval)
	for _, a := range g.Alive {
		i := int(a)
		if i >= m.n || i == m.cfg.Index {
			continue
		}
		if m.seen[i].Before(relayed) {
			m.seen[i] = relayed
		}
	}
}

// heartbeatLoop pings one peer every HeartbeatInterval over a cached
// connection. Failed exchanges drop the connection and consult the
// backoff schedule: ticks inside the backoff window are skipped, so a
// dead peer is probed at the (jittered, growing) backoff cadence
// instead of every interval.
func (m *Member) heartbeatLoop(peer int) {
	defer m.wg.Done()
	pol := m.cfg.Backoff
	if pol == (faultnet.Policy{}) {
		pol = faultnet.Policy{Initial: m.cfg.HeartbeatInterval,
			Max: 4 * m.cfg.HeartbeatInterval, Factor: 2, Jitter: 0.5}
	}
	pol.MaxAttempts, pol.Budget = 0, 0 // probing a dead peer never gives up
	bo := faultnet.NewBackoff(pol)
	t := time.NewTicker(m.cfg.HeartbeatInterval)
	defer t.Stop()
	var conn *wire.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	var holdUntil time.Time
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
		}
		if !holdUntil.IsZero() && time.Now().Before(holdUntil) {
			continue
		}
		if conn == nil {
			c, err := m.dialPeer(peer)
			if err != nil {
				if d, ok := bo.Next(); ok {
					holdUntil = time.Now().Add(d)
				}
				continue
			}
			conn = c
		}
		if err := m.exchange(conn, peer); err != nil {
			conn.Close()
			conn = nil
			if d, ok := bo.Next(); ok {
				holdUntil = time.Now().Add(d)
			}
			continue
		}
		bo.Reset()
		holdUntil = time.Time{}
	}
}

// exchange runs one PING→PONG round and merges the reply.
func (m *Member) exchange(conn *wire.Conn, peer int) error {
	m.mu.Lock()
	g := m.gossipLocked(time.Now())
	m.mu.Unlock()
	if err := conn.Send(msgPing, wire.Marshal(&g)); err != nil {
		return err
	}
	f, err := conn.RecvTimeout(m.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if f.Type != msgPong {
		return fmt.Errorf("cluster: unexpected frame 0x%04x to ping", f.Type)
	}
	var reply gossipMsg
	if err := wire.Unmarshal(f.Payload, &reply); err != nil {
		return err
	}
	m.merge(reply, int(reply.From) == peer)
	return nil
}

func (m *Member) dialPeer(peer int) (*wire.Conn, error) {
	m.mu.Lock()
	var addr string
	if m.peers != nil {
		addr = m.peers[peer]
	}
	m.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("cluster: no address for member %d", peer)
	}
	if m.cfg.Dial != nil {
		return m.cfg.Dial(peer, addr, m.cfg.DialTimeout)
	}
	conn, err := wire.Dial(addr, m.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetWriteTimeout(m.cfg.DialTimeout)
	return conn, nil
}

func (m *Member) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}
