package core

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// scriptedServer listens on loopback and runs script on every accepted
// connection (closing it when script returns), so a test can make the
// "server" answer a LeaseClient with exactly the frames — or the
// silence — it wants. done is closed at cleanup for scripts that hold
// a connection open.
func scriptedServer(t *testing.T, script func(nc net.Conn, done <-chan struct{})) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				script(nc, done)
			}()
		}
	}()
	t.Cleanup(func() {
		close(done)
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

func dialTestClient(t *testing.T, addr string, opTimeout time.Duration) *LeaseClient {
	t.Helper()
	c, err := DialLeaseClient(addr, opTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestLeaseClientCleanErrorsKeepClientUsable: DRIVOLUTION_ERROR and
// REDIRECT are complete exchanges — typed errors, and the very same
// connection serves the next call.
func TestLeaseClientCleanErrorsKeepClientUsable(t *testing.T) {
	addr := scriptedServer(t, func(nc net.Conn, _ <-chan struct{}) {
		conn := wire.NewConn(nc)
		replies := []struct {
			typ     uint16
			payload []byte
		}{
			{msgError, encodeProtocolError(ErrCodeNoDriver, "nothing matches")},
			{msgRedirect, (&Redirect{Addr: "10.0.0.7:7070", Server: "owner"}).encode()},
			{msgOffer, Offer{LeaseID: 42, LeaseTime: time.Minute}.encode()},
			{msgReleaseOK, nil},
		}
		for _, r := range replies {
			if _, err := conn.Recv(); err != nil {
				return
			}
			if err := conn.Send(r.typ, r.payload); err != nil {
				return
			}
		}
	})
	c := dialTestClient(t, addr, 2*time.Second)

	var pe *ProtocolError
	if _, err := c.Request(Request{}); !errors.As(err, &pe) || pe.Code != ErrCodeNoDriver {
		t.Fatalf("first request: err = %v, want NO_DRIVER protocol error", err)
	}
	var re *Redirect
	if _, err := c.Request(Request{}); !errors.As(err, &re) || re.Addr != "10.0.0.7:7070" {
		t.Fatalf("second request: err = %v, want redirect to 10.0.0.7:7070", err)
	}
	offer, err := c.Request(Request{})
	if err != nil || offer.LeaseID != 42 {
		t.Fatalf("third request on the same connection: offer = %+v, err = %v", offer, err)
	}
	if err := c.Release(42); err != nil {
		t.Fatalf("release on the same connection: %v", err)
	}
}

// TestLeaseClientPoisonedByFramingFailures: whenever the client cannot
// prove the stream is on a frame boundary it reports the failure once
// and refuses every later call, without touching the connection again.
func TestLeaseClientPoisonedByFramingFailures(t *testing.T) {
	request := func(c *LeaseClient) error { _, err := c.Request(Request{}); return err }
	fetch := func(c *LeaseClient) error { _, err := c.FetchFile(7); return err }
	cases := []struct {
		name  string
		reply func(nc net.Conn, conn *wire.Conn) // runs after the first message is read
		call  func(c *LeaseClient) error
	}{
		{"reset mid-frame", func(nc net.Conn, _ *wire.Conn) {
			// A frame header promising 64 payload bytes, 3 of which arrive.
			nc.Write([]byte{byte(wire.Magic >> 8), byte(wire.Magic & 0xff), 0x02, 0x03, 0, 0, 0, 64, 1, 2, 3})
		}, request},
		{"undecodable payload", func(_ net.Conn, conn *wire.Conn) {
			conn.Send(msgOffer, []byte{0xff})
		}, request},
		{"unexpected frame type", func(_ net.Conn, conn *wire.Conn) {
			conn.Send(msgNotify, nil)
		}, request},
		{"transfer offset gap", func(_ net.Conn, conn *wire.Conn) {
			conn.Send(msgFileData, fileChunk{Offset: 0, Total: 12, Data: []byte("abcd")}.encode())
			conn.Send(msgFileData, fileChunk{Offset: 8, Total: 12, Last: true, Data: []byte("ijkl")}.encode())
		}, fetch},
		{"transfer past its own total", func(_ net.Conn, conn *wire.Conn) {
			conn.Send(msgFileData, fileChunk{Offset: 0, Total: 6, Data: []byte("abcd")}.encode())
			conn.Send(msgFileData, fileChunk{Offset: 4, Total: 6, Last: true, Data: []byte("efgh")}.encode())
		}, fetch},
		{"transfer ended short", func(_ net.Conn, conn *wire.Conn) {
			conn.Send(msgFileData, fileChunk{Offset: 0, Total: 12, Last: true, Data: []byte("abcd")}.encode())
		}, fetch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedServer(t, func(nc net.Conn, _ <-chan struct{}) {
				conn := wire.NewConn(nc)
				if _, err := conn.Recv(); err != nil {
					return
				}
				tc.reply(nc, conn)
			})
			c := dialTestClient(t, addr, 2*time.Second)
			err := tc.call(c)
			var pe *ProtocolError
			if err == nil || errors.As(err, &pe) || errors.Is(err, ErrLeaseClientPoisoned) {
				t.Fatalf("first call: err = %v, want the transport/framing failure itself", err)
			}
			for _, again := range []func(*LeaseClient) error{request, fetch,
				func(c *LeaseClient) error { return c.Release(7) },
				func(c *LeaseClient) error { _, err := c.Discover(Request{}); return err }} {
				if err := again(c); !errors.Is(err, ErrLeaseClientPoisoned) {
					t.Fatalf("call on a poisoned client: err = %v, want ErrLeaseClientPoisoned", err)
				}
			}
		})
	}
}

// TestTransferBoundedByOffer: the destination is sized from the OFFER,
// and a stream that would not fit it exactly is refused at the chunk
// head that says so — before a byte of that chunk's data is read, so a
// buggy or hostile server cannot make a bootloader take in more than it
// was offered. Every refusal poisons the client.
func TestTransferBoundedByOffer(t *testing.T) {
	const offered = 8
	chunk := func(off, total uint32, last bool, data string) []byte {
		return fileChunk{Offset: off, Total: total, Last: last, Data: []byte(data)}.encode()
	}
	cases := []struct {
		name    string
		frames  [][]byte // FILE_DATA payloads, sent in order
		wantErr string   // "" = the transfer succeeds
	}{
		{"exact", [][]byte{chunk(0, 8, false, "abcd"), chunk(4, 8, true, "efgh")}, ""},
		{"total larger than offered", [][]byte{chunk(0, 12, false, "abcd")}, "size mismatch"},
		{"total smaller than offered", [][]byte{chunk(0, 4, true, "abcd")}, "size mismatch"},
		{"total changes mid-stream", [][]byte{chunk(0, 8, false, "abcd"), chunk(4, 9, true, "efghi")}, "size mismatch"},
		{"chunk overruns the offer", [][]byte{chunk(0, 8, false, "abcd"), chunk(4, 8, true, "efghij")}, "overruns"},
		{"chunk overlaps the previous", [][]byte{chunk(0, 8, false, "abcd"), chunk(2, 8, true, "cdefgh")}, "overlap"},
		{"gap", [][]byte{chunk(0, 8, false, "ab"), chunk(4, 8, true, "efgh")}, "gap"},
		{"short stream", [][]byte{chunk(0, 8, false, "abcd"), chunk(4, 8, true, "ef")}, "short"},
		{"empty chunk that is not the last", [][]byte{chunk(0, 8, false, "")}, "empty"},
		{"head disagrees with the frame length", [][]byte{append(chunk(0, 8, true, "abcdefgh"), 'x')}, "declares"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedServer(t, func(nc net.Conn, _ <-chan struct{}) {
				conn := wire.NewConn(nc)
				if _, err := conn.Recv(); err != nil {
					return
				}
				for _, p := range tc.frames {
					conn.Send(msgFileData, p)
				}
			})
			c := dialTestClient(t, addr, 2*time.Second)
			dst := make([]byte, offered)
			n, err := c.fetchFile(7, dst)
			if tc.wantErr == "" {
				if err != nil || n != offered || string(dst) != "abcdefgh" {
					t.Fatalf("n=%d err=%v dst=%q, want the 8 offered bytes", n, err, dst)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
			}
			if !c.poisoned {
				t.Fatal("client not poisoned by a stream that broke its offer")
			}
		})
	}

	// The refusal comes from the head alone: a server that announces a
	// 32 MiB chunk for an 8-byte offer and then sends none of it is
	// refused at once, not when the reply deadline runs out.
	t.Run("refused before the data is read", func(t *testing.T) {
		const huge = 32 << 20
		addr := scriptedServer(t, func(nc net.Conn, done <-chan struct{}) {
			if _, err := wire.NewConn(nc).Recv(); err != nil {
				return
			}
			e := wire.NewEncoder(32)
			e.Uint16(wire.Magic)
			e.Uint16(msgFileData)
			e.Uint32(fileChunkHeadLen + huge) // the frame's payload length
			fileChunkHead{Offset: 0, Total: huge, Last: true, Len: huge}.encodeTo(e)
			nc.Write(e.Bytes())
			<-done // the data never comes
		})
		c := dialTestClient(t, addr, 30*time.Second)
		start := time.Now()
		_, err := c.fetchFile(7, make([]byte, offered))
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) || !strings.Contains(err.Error(), "size mismatch") {
			t.Fatalf("err = %v, want an immediate size-mismatch refusal", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("refusal took %v: the client waited for data it should never have read", took)
		}
	})
}

// TestLeaseClientNoReplyClassification pins what the bootloader's
// re-send rule keys on: a connection that was dead on arrival says
// "no reply" (the server cannot have seen the message), a reply
// timeout does not (it may have).
func TestLeaseClientNoReplyClassification(t *testing.T) {
	t.Run("dead on arrival", func(t *testing.T) {
		closed := make(chan struct{})
		addr := scriptedServer(t, func(net.Conn, <-chan struct{}) { close(closed) })
		c := dialTestClient(t, addr, 2*time.Second)
		<-closed // the script returned; its deferred Close is at most moments away
		_, err := c.Request(Request{})
		if err == nil || !isNoReply(err) {
			t.Fatalf("err = %v, want a no-reply failure", err)
		}
		if !c.poisoned {
			t.Fatal("client not poisoned by a dead connection")
		}
	})
	t.Run("reply timeout", func(t *testing.T) {
		addr := scriptedServer(t, func(nc net.Conn, done <-chan struct{}) {
			wire.NewConn(nc).Recv() // take the request, never answer
			<-done
		})
		c := dialTestClient(t, addr, 50*time.Millisecond)
		_, err := c.Request(Request{})
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("err = %v, want a timeout", err)
		}
		if isNoReply(err) {
			t.Fatal("a reply timeout was classified as no-reply: the request may have been applied")
		}
		if !c.poisoned {
			t.Fatal("client not poisoned by a timed-out exchange")
		}
	})
}

// TestTransferCountedBeforeLastChunk: a client that holds the last
// chunk of its transfer finds that transfer in Counters() at once —
// the server counts before it sends, not after.
func TestTransferCountedBeforeLastChunk(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 300<<10)) // two chunks
	c := dialTestClient(t, f.drv.Addr(), 2*time.Second)
	offer, err := c.Request(Request{Database: "prod", User: "app", Password: "app-pw",
		API: dbver.APIOf("JDBC", 3, 0), ClientPlatform: dbver.PlatformLinuxAMD64, ClientID: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.FetchFile(offer.LeaseID)
	sc := f.drv.Counters()
	if err != nil || uint32(n) != offer.Size {
		t.Fatalf("fetched %d of %d bytes, err = %v", n, offer.Size, err)
	}
	if sc.Transfers != 1 || sc.BytesOut != int64(n) {
		t.Fatalf("counters right after the last chunk: transfers=%d bytesOut=%d, want 1 and %d",
			sc.Transfers, sc.BytesOut, n)
	}
}

// proxiedBootloader bootstraps a bootloader whose only server address
// is a faultnet proxy in front of the fixture's server, so the test
// can break the cached renewal connection in chosen ways.
func proxiedBootloader(t *testing.T) (*fixture, *faultnet.Proxy, *Bootloader) {
	t.Helper()
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	p, err := faultnet.NewProxy(f.drv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{p.Addr()}, f.rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(150*time.Millisecond)) // the lease is an hour: no renewals but the test's own
	t.Cleanup(b.Close)
	mustConnect(t, b, f.appURL())
	return f, p, b
}

// TestRenewalNotResentAfterTimeout is the safety half of fetchLocked's
// rule: the REQUEST reached the server and only the OFFER was lost, so
// the bootloader must report the failure and not send it again.
func TestRenewalNotResentAfterTimeout(t *testing.T) {
	f, p, b := proxiedBootloader(t)
	before := f.drv.Counters().Requests
	p.PartitionOneWay(faultnet.Down) // requests get through, replies do not
	err := b.ForceRenew("prod")
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("renewal over a reply-swallowing link: err = %v, want a timeout", err)
	}
	p.Heal()
	if got := f.drv.Counters().Requests - before; got != 1 {
		t.Fatalf("server saw %d REQUESTs for one timed-out renewal, want exactly 1", got)
	}
	// The poisoned client was dropped: the next renewal dials afresh.
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatalf("renewal after heal: %v", err)
	}
}

// TestRenewalResentAfterDeadConnection is the liveness half: a cached
// connection that a server restart closed under the bootloader fails
// before any reply, so the same renewal is re-sent once on a fresh
// dial and succeeds.
func TestRenewalResentAfterDeadConnection(t *testing.T) {
	f, p, b := proxiedBootloader(t)
	before := f.drv.Counters().Requests
	p.DropAll() // what a restart does to every established connection
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatalf("renewal over a dead cached connection: %v", err)
	}
	if got := f.drv.Counters().Requests - before; got != 1 {
		t.Fatalf("server saw %d REQUESTs, want exactly 1 (the re-sent one)", got)
	}
	if m := b.Stats(); m.Renewals != 1 || m.RenewFailures != 0 {
		t.Fatalf("metrics = %+v, want one clean renewal", m)
	}
}
