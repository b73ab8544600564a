package faultnet

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// echoServer accepts connections and echoes bytes back until EOF.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(nc, nc)
				_ = nc.Close()
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return nc
}

func TestFrameTrackerMatchesWire(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), nil, bytes.Repeat([]byte("x"), 3000), []byte("z")}
	for i, p := range payloads {
		if err := wire.WriteFrame(&buf, wire.Frame{Type: uint16(i), Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	// Feed the exact byte stream wire produced, in awkward chunk sizes.
	var tr frameTracker
	stream := buf.Bytes()
	step := 1
	for off := 0; off < len(stream); {
		end := off + step
		if end > len(stream) {
			end = len(stream)
		}
		if n := tr.admit(stream[off:end], 0); n != end-off {
			t.Fatalf("admit consumed %d of %d", n, end-off)
		}
		off = end
		step = step*2 + 1
	}
	if tr.frames != len(payloads) {
		t.Fatalf("tracker counted %d frames, wire wrote %d", tr.frames, len(payloads))
	}
	if !tr.boundary() {
		t.Fatal("tracker not at a boundary after consuming whole frames")
	}
}

func TestProxyForwardsFaithfully(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	nc := dialProxy(t, p)
	msg := []byte("through the proxy and back")
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	if p.Accepted() != 1 {
		t.Fatalf("accepted %d, want 1", p.Accepted())
	}
}

func TestProxyCutAfterBytes(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetPlanner(func(i int, rng *rand.Rand) Plan {
		return Plan{Up: Faults{CutAfterBytes: 10}}
	})
	nc := dialProxy(t, p)
	if _, err := nc.Write(bytes.Repeat([]byte("a"), 64)); err != nil {
		t.Fatal(err)
	}
	// At most 10 bytes echo back before the injected reset kills the
	// connection.
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := io.ReadFull(nc, make([]byte, 64))
	if err == nil {
		t.Fatal("read past an injected cut")
	}
	if n > 10 {
		t.Fatalf("%d bytes delivered, cut was after 10", n)
	}
	if p.Resets() == 0 {
		t.Fatal("no reset recorded")
	}
}

// TestProxyCutOnFrameBoundary drives real wire frames through a
// frame-cutting proxy and asserts the peer sees only complete frames:
// the stream dies between frames, never inside one.
func TestProxyCutOnFrameBoundary(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		frames int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var r result
		for {
			_, err := wire.ReadFrame(nc)
			if err != nil {
				r.err = err
				break
			}
			r.frames++
		}
		resCh <- r
	}()

	p, err := NewProxy(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetPlanner(func(i int, rng *rand.Rand) Plan {
		return Plan{Up: Faults{CutAfterFrames: 2}}
	})
	conn, err := wire.Dial(p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		if err := conn.Send(uint16(i), bytes.Repeat([]byte("p"), 500)); err != nil {
			break // reset arrived; earlier frames are through
		}
	}
	select {
	case r := <-resCh:
		if r.frames != 2 || p.Frames(Up) != 2 || p.Frames(Down) != 0 {
			t.Fatalf("server decoded %d frames, proxy counted %d up and %d down; cut was after 2",
				r.frames, p.Frames(Up), p.Frames(Down))
		}
		// A torn frame fails inside the payload read; a boundary cut
		// fails reading the next header.
		if r.err != io.EOF && !strings.Contains(r.err.Error(), "read header") {
			t.Fatalf("stream died mid-frame: %v", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the cut")
	}
}

// TestProxyCutLosesTheAnswer: a cut after a request's frame loses the
// answer to it, however fast the peer replies — here an echo server,
// which answers as soon as the frame arrives, raced by the reset on
// each of 200 connections.
func TestProxyCutLosesTheAnswer(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetPlanner(func(int, *rand.Rand) Plan { return Plan{Up: Faults{CutAfterFrames: 1}} })
	for i := 0; i < 200; i++ {
		conn, err := wire.Dial(p.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(1, []byte("request")); err != nil {
			t.Fatal(err)
		}
		_, err = conn.Recv()
		conn.Close()
		if err == nil {
			t.Fatalf("connection %d: the answer to the cut frame got through", i)
		}
	}
	if n := p.Frames(Down); n != 0 {
		t.Fatalf("%d answers forwarded past a cut, want 0", n)
	}
}

func TestProxyBlackHole(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetPlanner(func(i int, rng *rand.Rand) Plan {
		return Plan{Up: Faults{BlackHole: true}, Down: Faults{BlackHole: true}}
	})
	nc := dialProxy(t, p)
	if _, err := nc.Write([]byte("into the void")); err != nil {
		t.Fatal(err) // accepted and swallowed, not refused
	}
	_ = nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("black-holed connection produced data")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want a deadline timeout, got %v", err)
	}
}

func TestProxyPartitionAndHeal(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	nc := dialProxy(t, p)

	p.Partition()
	if _, err := nc.Write([]byte("stalled")); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("data crossed a partition")
	}

	p.Heal()
	got := make([]byte, len("stalled"))
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatalf("stalled traffic not delivered after heal: %v", err)
	}
	if string(got) != "stalled" {
		t.Fatalf("got %q after heal", got)
	}
}

func TestProxyOneWayPartition(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	nc := dialProxy(t, p)
	// Prime the echo before partitioning Down: requests still arrive,
	// replies never return.
	p.PartitionOneWay(Down)
	if _, err := nc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("reply crossed a one-way partition")
	}
	p.Heal()
	_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != nil {
		t.Fatalf("reply not delivered after heal: %v", err)
	}
}

func TestProxyDeterministicPlans(t *testing.T) {
	ln := echoServer(t)
	draw := func(seed int64) []int64 {
		p, err := NewProxy(ln.Addr().String(), seed)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		vals := make(chan int64, 5)
		p.SetPlanner(func(i int, rng *rand.Rand) Plan {
			vals <- rng.Int63()
			return Plan{}
		})
		for i := 0; i < 5; i++ {
			nc := dialProxy(t, p)
			// One echoed byte proves the connection (and its plan draw)
			// completed before the next dial.
			if _, err := nc.Write([]byte{1}); err != nil {
				t.Fatal(err)
			}
			_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := io.ReadFull(nc, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			_ = nc.Close()
		}
		out := make([]int64, 5)
		for i := range out {
			out[i] = <-vals
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan rng %d not reproducible under one seed: %d vs %d", i, a[i], b[i])
		}
	}
}
