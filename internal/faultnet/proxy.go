package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Direction names one leg of a proxied connection.
type Direction int

const (
	// Up is client → server.
	Up Direction = iota
	// Down is server → client.
	Down
)

// Plan programs the faults for one proxied connection, drawn by the
// proxy's Planner when the connection is accepted.
type Plan struct {
	// Reject closes the client connection immediately on accept.
	Reject bool
	// Up and Down fault each leg independently; a reset fired by
	// either leg kills the whole connection.
	Up, Down Faults
}

// seedStride spaces the per-connection rng seeds derived from the
// proxy seed (an arbitrary large odd constant).
const seedStride int64 = 0x5851F42D4C957F2D

// Planner decides the Plan for the i-th accepted connection
// (0-based). rng is derived deterministically from the proxy seed and
// i, so a plan is a pure function of (seed, accept index) no matter
// how goroutines interleave.
type Planner func(i int, rng *rand.Rand) Plan

// Proxy is an in-process fault-injecting TCP proxy. It listens on a
// loopback port and forwards to a target address; pointing any wire
// client at Addr instead of the real server routes all traffic
// through the fault planner with no client changes. The zero number
// of faults (default planner) forwards faithfully, so a Proxy can sit
// in a test permanently and only misbehave when told to.
type Proxy struct {
	target string
	seed   int64
	ln     net.Listener

	mu       sync.Mutex
	planner  Planner
	conns    map[*proxyConn]struct{}
	accepted int
	closed   bool

	// gates[d] is non-nil while direction d is partitioned; pumps
	// block on it until Heal closes it.
	gmu   sync.Mutex
	gates [2]chan struct{}

	resets atomic.Int64
	frames [2]atomic.Int64 // complete wire frames forwarded, per Direction
	wg     sync.WaitGroup
}

// NewProxy starts a proxy on 127.0.0.1:0 forwarding to target. seed
// fixes the fault schedule: the same seed and accept order reproduce
// the same per-connection plans.
func NewProxy(target string, seed int64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		seed:   seed,
		ln:     ln,
		conns:  map[*proxyConn]struct{}{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial in
// place of the real target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetPlanner installs the fault planner; nil restores faithful
// forwarding. It applies to connections accepted afterwards.
func (p *Proxy) SetPlanner(fn Planner) {
	p.mu.Lock()
	p.planner = fn
	p.mu.Unlock()
}

// Accepted reports how many connections the proxy has accepted.
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// Resets reports how many connections were killed by injected cuts or
// DropAll.
func (p *Proxy) Resets() int64 { return p.resets.Load() }

// Frames reports how many complete wire frames the proxy has forwarded
// in direction d, over all connections — what a test counts to pin how
// many messages one protocol exchange costs.
func (p *Proxy) Frames(d Direction) int64 { return p.frames[d].Load() }

// Active reports how many proxied connections are currently live.
func (p *Proxy) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Partition stalls both directions of every current and future
// proxied connection, like a network partition between client and
// server: packets vanish, connections stay "established", and only
// the endpoints' own deadlines fire. Heal releases the traffic.
func (p *Proxy) Partition() {
	p.partition(Up)
	p.partition(Down)
}

// PartitionOneWay stalls only the given direction — the asymmetric
// partition where (say) requests arrive but replies never return.
func (p *Proxy) PartitionOneWay(d Direction) { p.partition(d) }

func (p *Proxy) partition(d Direction) {
	p.gmu.Lock()
	if p.gates[d] == nil {
		p.gates[d] = make(chan struct{})
	}
	p.gmu.Unlock()
}

// Heal ends any partition; stalled traffic resumes (what TCP
// retransmission delivers after a real partition heals).
func (p *Proxy) Heal() {
	p.gmu.Lock()
	for d := range p.gates {
		if p.gates[d] != nil {
			close(p.gates[d])
			p.gates[d] = nil
		}
	}
	p.gmu.Unlock()
}

// gateWait blocks while dir is partitioned; it returns false when the
// connection died while waiting.
func (p *Proxy) gateWait(dir Direction, done <-chan struct{}) bool {
	for {
		p.gmu.Lock()
		ch := p.gates[dir]
		p.gmu.Unlock()
		if ch == nil {
			return true
		}
		select {
		case <-ch:
			// healed; re-check (a new partition may have started)
		case <-done:
			return false
		}
	}
}

// DropAll hard-resets every live proxied connection (server crash as
// seen from the network, without restarting the real server).
func (p *Proxy) DropAll() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for pc := range p.conns {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	for _, pc := range conns {
		pc.reset()
	}
}

// Close stops the proxy and kills all proxied connections.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	_ = p.ln.Close()
	p.Heal() // release stalled pumps so they can observe their done channels
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for pc := range p.conns {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	for _, pc := range conns {
		pc.close(false)
	}
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		i := p.accepted
		p.accepted++
		planner := p.planner
		closed := p.closed
		p.mu.Unlock()
		if closed {
			_ = nc.Close()
			return
		}
		plan := Plan{}
		if planner != nil {
			// A per-connection rng keyed on (seed, index) keeps plans
			// reproducible regardless of accept-goroutine interleaving.
			rng := rand.New(rand.NewSource(p.seed + int64(i)*seedStride))
			plan = planner(i, rng)
		}
		if plan.Reject {
			_ = nc.Close()
			continue
		}
		p.wg.Add(1)
		go p.serve(nc, plan)
	}
}

func (p *Proxy) serve(client net.Conn, plan Plan) {
	defer p.wg.Done()
	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		_ = client.Close()
		return
	}
	pc := &proxyConn{p: p, client: client, server: server, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.close(false)
		return
	}
	p.conns[pc] = struct{}{}
	p.mu.Unlock()

	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() { defer pumps.Done(); pc.pump(Up, client, server, plan.Up) }()
	go func() { defer pumps.Done(); pc.pump(Down, server, client, plan.Down) }()
	pumps.Wait()
	pc.close(false)
	p.mu.Lock()
	delete(p.conns, pc)
	p.mu.Unlock()
}

// proxyConn is one client↔server pairing and its lifecycle: closing
// either leg (gracefully or by injected reset) tears down both.
type proxyConn struct {
	p              *Proxy
	client, server net.Conn
	once           sync.Once
	done           chan struct{}
}

// reset kills the connection abruptly: linger 0 turns the close into
// an RST, so the endpoints see "connection reset by peer", not EOF.
func (pc *proxyConn) reset() {
	pc.p.resets.Add(1)
	pc.close(true)
}

func (pc *proxyConn) close(rst bool) {
	pc.once.Do(func() {
		if rst {
			if tc, ok := pc.client.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			if tc, ok := pc.server.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
		}
		_ = pc.client.Close()
		_ = pc.server.Close()
		close(pc.done)
	})
}

// pump forwards one direction, applying its Faults. It returns when
// the source drains, the connection dies, or an injected cut fires.
func (pc *proxyConn) pump(dir Direction, src, dst net.Conn, f Faults) {
	if f.BlackHole {
		// Accept-then-stall: forward nothing, error nothing. The peer's
		// reads hang until its own deadline (or our teardown) fires.
		<-pc.done
		return
	}
	var tr frameTracker
	var forwarded int64
	buf := make([]byte, 32<<10)
	for {
		if !pc.p.gateWait(dir, pc.done) {
			return
		}
		n, rerr := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			cut := false
			if f.CutAfterBytes > 0 {
				if rem := f.CutAfterBytes - forwarded; int64(len(chunk)) >= rem {
					chunk = chunk[:rem]
					cut = true
				}
			}
			framesBefore := tr.frames
			a := tr.admit(chunk, f.CutAfterFrames)
			if f.CutAfterFrames > 0 && (a < len(chunk) || tr.frames >= f.CutAfterFrames) {
				chunk = chunk[:a]
				cut = true
			}
			// The pump may have been parked in Read when the partition
			// started; bytes arriving mid-partition are held here and
			// delivered after Heal, like TCP retransmission.
			if !pc.p.gateWait(dir, pc.done) {
				return
			}
			if f.Latency > 0 && !sleepOrDone(f.Latency, pc.done) {
				return
			}
			if f.Bandwidth > 0 {
				d := time.Duration(float64(len(chunk)) / float64(f.Bandwidth) * float64(time.Second))
				if !sleepOrDone(d, pc.done) {
					return
				}
			}
			// Counted before the write, so a peer holding a frame finds it
			// in Frames.
			pc.p.frames[dir].Add(int64(tr.frames - framesBefore))
			if !writeChunked(dst, chunk, f.MaxChunk) {
				pc.close(false)
				return
			}
			forwarded += int64(len(chunk))
			if cut {
				pc.reset()
				return
			}
		}
		if rerr != nil {
			// Half-close toward dst so a graceful FIN propagates as one;
			// the other pump keeps draining until its own side ends.
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			} else {
				pc.close(false)
			}
			return
		}
	}
}

func writeChunked(dst net.Conn, b []byte, maxChunk int) bool {
	if maxChunk <= 0 {
		_, err := dst.Write(b)
		return err == nil
	}
	for len(b) > 0 {
		n := maxChunk
		if n > len(b) {
			n = len(b)
		}
		if _, err := dst.Write(b[:n]); err != nil {
			return false
		}
		b = b[n:]
	}
	return true
}

func sleepOrDone(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}
