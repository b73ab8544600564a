package cluster

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// listener wraps the cluster-protocol listener so close is idempotent
// (Stop can race the accept loop's own error path).
type listener struct {
	ln   net.Listener
	once sync.Once
}

func (m *Member) bind(addr string) (*listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &listener{ln: ln}, nil
}

func (l *listener) addr() string { return l.ln.Addr().String() }

func (l *listener) close() { l.once.Do(func() { _ = l.ln.Close() }) }

// acceptLoop serves cluster-protocol connections: peer heartbeats and
// operator status probes.
func (m *Member) acceptLoop() {
	defer m.wg.Done()
	for {
		nc, err := m.ln.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-m.stopCh:
				return
			default:
				m.logf("cluster %s: accept: %v", m.Name(), err)
				continue
			}
		}
		m.wg.Add(1)
		go m.serveConn(nc)
	}
}

func (m *Member) serveConn(nc net.Conn) {
	defer m.wg.Done()
	conn := wire.NewConn(nc)
	defer conn.Close()
	conn.SetWriteTimeout(m.cfg.DialTimeout)
	// A healthy peer pings every HeartbeatInterval; a connection idle
	// for several FailAfter windows is abandoned (the peer will redial).
	idle := 4 * m.cfg.FailAfter
	for {
		select {
		case <-m.stopCh:
			return
		default:
		}
		f, err := conn.RecvTimeout(idle)
		if err != nil {
			return
		}
		switch f.Type {
		case msgPing:
			var g gossipMsg
			if wire.Unmarshal(f.Payload, &g) != nil {
				return
			}
			m.merge(g, true)
			m.mu.Lock()
			reply := m.gossipLocked(time.Now())
			m.mu.Unlock()
			if err := conn.Send(msgPong, wire.Marshal(&reply)); err != nil {
				return
			}
		case msgStatusReq:
			st := m.Status()
			if err := conn.Send(msgStatus, wire.Marshal(&st)); err != nil {
				return
			}
		default:
			return
		}
	}
}
