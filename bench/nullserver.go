package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// exchange is one recorded request frame and the frames the real
// server answered it with.
type exchange struct {
	request wire.Frame
	replies []wire.Frame
}

// teeProxy forwards one TCP connection to a real server and keeps the
// bytes of both directions, so a caller that runs one exchange at a
// time can cut the streams into exchanges afterwards.
type teeProxy struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup

	mu       sync.Mutex
	toServer bytes.Buffer
	toClient bytes.Buffer
}

func newTeeProxy(target string) (*teeProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &teeProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

func (p *teeProxy) addr() string { return p.ln.Addr().String() }

// serve handles the single connection a recording needs.
func (p *teeProxy) serve() {
	defer p.wg.Done()
	client, err := p.ln.Accept()
	if err != nil {
		return
	}
	defer client.Close()
	server, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		return
	}
	defer server.Close()
	// A recording is four exchanges; neither side may hang the run.
	deadline := time.Now().Add(4 * opTimeout)
	if client.SetDeadline(deadline) != nil || server.SetDeadline(deadline) != nil {
		return
	}
	pump := func(dst, src net.Conn, keep *bytes.Buffer) {
		defer p.wg.Done()
		buf := make([]byte, 64<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				p.mu.Lock()
				keep.Write(buf[:n])
				p.mu.Unlock()
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				// Half-close so the peer's pump ends too.
				_ = dst.Close()
				return
			}
		}
	}
	p.wg.Add(2)
	go pump(server, client, &p.toServer)
	pump(client, server, &p.toClient)
}

// cut returns, as frames, what passed in each direction since the
// last cut. The caller's exchange has returned, so both streams are
// on a frame boundary.
func (p *teeProxy) cut() (exchange, error) {
	p.mu.Lock()
	up := append([]byte(nil), p.toServer.Bytes()...)
	down := append([]byte(nil), p.toClient.Bytes()...)
	p.toServer.Reset()
	p.toClient.Reset()
	p.mu.Unlock()
	req, err := wire.ReadFrame(bytes.NewReader(up))
	if err != nil {
		return exchange{}, fmt.Errorf("recorded request: %w", err)
	}
	ex := exchange{request: req}
	r := bytes.NewReader(down)
	for r.Len() > 0 {
		f, err := wire.ReadFrame(r)
		if err != nil {
			return exchange{}, fmt.Errorf("recorded reply: %w", err)
		}
		ex.replies = append(ex.replies, f)
	}
	if len(ex.replies) == 0 {
		return exchange{}, errors.New("recorded exchange has no reply")
	}
	return ex, nil
}

func (p *teeProxy) close() {
	_ = p.ln.Close()
	p.wg.Wait()
}

// canned is what one recording yields: a bootstrap, the FILE_DATA
// transfer it staged, a no-change renewal and a discover, each with
// the real server's answer, plus the identity the answers speak of.
type canned struct {
	exchanges []exchange
	leaseID   uint64
	checksum  string
	blobBytes int
	lease     time.Duration
}

// renewalRequest is the recorded no-change renewal's request frame,
// the message the wire micro-measurements are sized to.
func (c *canned) renewalRequest() wire.Frame { return c.exchanges[2].request }

// recordCanned boots a throwaway in-database server holding img with
// the given lease time, runs one bootstrap, one FILE_DATA transfer,
// one no-change renewal and one discover through a tee, and returns
// the recorded frames.
func recordCanned(img *driverimg.Image, lease time.Duration, opts ...core.ServerOption) (*canned, error) {
	opts = append([]core.ServerOption{core.WithDefaultLease(lease)}, opts...)
	srv, err := core.NewServer("recorded", core.NewLocalStore(sqlmini.NewDB()), opts...)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer srv.Stop()
	if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
		return nil, err
	}
	tee, err := newTeeProxy(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer tee.close()
	lc, err := core.DialLeaseClient(tee.addr(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer lc.Close()

	c := &canned{lease: lease}
	keep := func() error {
		ex, err := tee.cut()
		if err != nil {
			return err
		}
		c.exchanges = append(c.exchanges, ex)
		return nil
	}
	req := baseRequest("recorded-client")
	offer, err := lc.Request(req)
	if err != nil {
		return nil, fmt.Errorf("record bootstrap: %w", err)
	}
	if err := keep(); err != nil {
		return nil, err
	}
	c.leaseID, c.checksum = offer.LeaseID, offer.DriverChecksum
	if c.blobBytes, err = lc.FetchFile(offer.LeaseID); err != nil {
		return nil, fmt.Errorf("record transfer: %w", err)
	}
	if err := keep(); err != nil {
		return nil, err
	}
	req.LeaseID, req.CurrentChecksum = offer.LeaseID, offer.DriverChecksum
	if _, err := lc.Request(req); err != nil {
		return nil, fmt.Errorf("record renewal: %w", err)
	}
	if err := keep(); err != nil {
		return nil, err
	}
	if _, err := lc.Discover(req); err != nil {
		return nil, fmt.Errorf("record discover: %w", err)
	}
	if err := keep(); err != nil {
		return nil, err
	}
	return c, nil
}

// nullServer answers every frame with the replies recorded for the
// most similar request: same frame type, nearest payload length (a
// bootstrap carries no checksum, so it is 64 bytes shorter than a
// renewal). It runs no store, no catalog and no dispatch, so a client
// driven against it measures harness + wire alone — the floor run.
type nullServer struct {
	ln        net.Listener
	exchanges []exchange
	wg        sync.WaitGroup

	mu    sync.Mutex
	conns map[*wire.Conn]struct{}
}

func newNullServer(c *canned) (*nullServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &nullServer{ln: ln, exchanges: c.exchanges, conns: make(map[*wire.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *nullServer) addr() string { return s.ln.Addr().String() }

func (s *nullServer) accept() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		conn := wire.NewConn(nc)
		conn.SetWriteTimeout(opTimeout)
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *nullServer) serve(conn *wire.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	for {
		f, err := conn.Recv()
		if err != nil {
			return // EOF, close, or a broken client: its session ends
		}
		ex := s.match(f)
		if ex == nil {
			return
		}
		for _, r := range ex.replies {
			if err := conn.Send(r.Type, r.Payload); err != nil {
				return
			}
		}
	}
}

func (s *nullServer) match(f wire.Frame) *exchange {
	var best *exchange
	bestDist := -1
	for i := range s.exchanges {
		ex := &s.exchanges[i]
		if ex.request.Type != f.Type {
			continue
		}
		d := len(ex.request.Payload) - len(f.Payload)
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = ex, d
		}
	}
	return best
}

func (s *nullServer) close() {
	_ = s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
