package core

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
)

// TestServerHandshakeTimeoutCutsBlackHole pins the server half of the
// failure contract: a client that connects and then never speaks (a
// black-holed uplink — the TCP accept succeeded but every byte is
// swallowed) is cut off by the handshake read deadline instead of
// holding a serveConn goroutine forever, and the server keeps serving
// well-behaved clients throughout.
func TestServerHandshakeTimeoutCutsBlackHole(t *testing.T) {
	f := newFixture(t, 9, WithHandshakeTimeout(80*time.Millisecond))
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 9, 256))

	// Route a client through a faultnet proxy that swallows everything
	// it sends: the server sees a live connection that never produces a
	// first frame.
	p, err := faultnet.NewProxy(f.drv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetPlanner(func(i int, rng *rand.Rand) faultnet.Plan {
		return faultnet.Plan{Up: faultnet.Faults{BlackHole: true}}
	})

	nc, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("hello that never arrives")); err != nil {
		t.Fatal(err)
	}

	// The server must close the silent connection once the handshake
	// deadline passes; the close propagates back through the proxy as
	// EOF on our read side.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("black-holed connection was not cut by the server")
	}
	cut := time.Since(start)
	if cut > time.Second {
		t.Fatalf("server took %v to cut a silent connection; handshake deadline is 80ms", cut)
	}

	// The stalled connection must not have wedged the server: a normal
	// bootstrap still completes.
	b := f.bootloader(t)
	conn := mustConnect(t, b, f.appURL())
	if _, err := conn.Query("SELECT 1"); err != nil {
		t.Fatalf("server unhealthy after cutting black-holed client: %v", err)
	}
}

// TestRecvErrorsCounted: a session that ends on a receive error is
// counted in ServerCounters.RecvErrors, so an operator can see a peer
// that sends malformed frames or stalls past the handshake deadline. A
// peer that closes cleanly ends its session uncounted.
func TestRecvErrorsCounted(t *testing.T) {
	srv, err := NewServer("recv", NewLocalStore(sqlmini.NewDB()), WithHandshakeTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// waitOpen waits until the server holds want connections.
	waitOpen := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			srv.connsMu.Lock()
			open := len(srv.conns)
			srv.connsMu.Unlock()
			if open == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("the server holds %d connections, want %d", open, want)
			}
		}
	}
	// session dials, runs act once the server has registered the
	// connection, and reads the counter once the server has ended the
	// session.
	session := func(act func(net.Conn)) int64 {
		t.Helper()
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		waitOpen(1)
		act(nc)
		waitOpen(0)
		return srv.Counters().RecvErrors
	}
	if got := session(func(nc net.Conn) { nc.Close() }); got != 0 {
		t.Fatalf("a clean close counted %d receive errors, want 0", got)
	}
	if got := session(func(nc net.Conn) {
		if _, err := nc.Write([]byte{0xBA, 0xD0, 0, 1, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("a bad-magic header left RecvErrors at %d, want 1", got)
	}
	if got := session(func(net.Conn) {}); got != 2 {
		t.Fatalf("a peer silent past the handshake timeout left RecvErrors at %d, want 2", got)
	}
}
