package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
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
			{msgError, wire.Marshal(&ProtocolError{Code: ErrCodeNoDriver, Message: "nothing matches"})},
			{msgRedirect, wire.Marshal(&Redirect{Addr: "10.0.0.7:7070", Server: "owner"})},
			{msgOffer, wire.Marshal(&Offer{LeaseID: 42, LeaseTime: time.Minute})},
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

// TestFetchAllocatesWhatArrives: a frame other than FILE_DATA in a file
// stream is read whole for the frame classifier, but with the bytes
// that arrive, not the length its header declares. A server answering
// FILE_REQUEST with a DRIVOLUTION_ERROR header declaring MaxPayload,
// 100 bytes and a close makes FetchFile fail — a transport failure,
// not a protocol error — having allocated less than 1 MiB. (It
// allocated the declared 64 MiB before reading a payload byte.)
func TestFetchAllocatesWhatArrives(t *testing.T) {
	addr := scriptedServer(t, func(nc net.Conn, _ <-chan struct{}) {
		if _, err := wire.NewConn(nc).Recv(); err != nil {
			return
		}
		hdr := binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(nil, wire.Magic), msgError)
		nc.Write(append(binary.BigEndian.AppendUint32(hdr, wire.MaxPayload), make([]byte, 100)...))
	})
	c := dialTestClient(t, addr, 2*time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.FetchFile(7)
	runtime.ReadMemStats(&after)
	var pe *ProtocolError
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &pe) {
		t.Fatalf("FetchFile: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 108-byte reply made the client allocate %d bytes", got)
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
			head := fileChunkHead{Offset: 0, Total: huge, Last: true, Len: huge}
			head.Fields(wire.Writing(e))
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

// FuzzFileSink drives fileSink.frame with arbitrary FILE_DATA chunk
// heads and frame lengths against an offered size, in its three modes:
// into an offer-sized destination (mode 0), discarding a pushed file
// held to its OFFER (1), discarding a requested file held to its first
// chunk's Total (2). Each record of stream is a 13-byte chunk head and
// the frame's payload length; the frame's data is a byte that names
// the frame. Whatever arrives, the sink reads no data it refuses and
// none at all when discarding, never takes the stream past the size it
// holds it to, and accepts a chunk only where the previous one ended,
// with its data landing exactly there.
func FuzzFileSink(f *testing.F) {
	const recLen = fileChunkHeadLen + 4
	rec := func(off, total uint32, last bool, n, frameLen uint32) []byte {
		e := wire.NewEncoder(recLen)
		head := fileChunkHead{Offset: off, Total: total, Last: last, Len: n}
		head.Fields(wire.Writing(e))
		e.Uint32(frameLen)
		return e.Bytes()
	}
	f.Add(uint16(8), uint8(0), append(rec(0, 8, false, 4, 17), rec(4, 8, true, 4, 17)...))
	f.Add(uint16(8), uint8(1), append(rec(0, 8, false, 4, 17), rec(2, 8, true, 6, 19)...)) // overlap
	f.Add(uint16(8), uint8(2), append(rec(0, 8, false, 2, 15), rec(4, 8, true, 4, 17)...)) // gap
	f.Add(uint16(8), uint8(1), rec(0, 1<<25, true, 1<<25, fileChunkHeadLen+1<<25))         // not the offer
	f.Add(uint16(8), uint8(0), rec(0, 8, true, 8, 20))                                     // frame disagrees
	f.Add(uint16(0), uint8(2), rec(0, 0, true, 0, fileChunkHeadLen))                       // empty file
	f.Fuzz(func(t *testing.T, offered uint16, mode uint8, stream []byte) {
		sink := fileSink{c: &LeaseClient{}, total: int64(offered)}
		switch mode % 3 {
		case 0:
			sink.dst = make([]byte, offered)
		case 2:
			sink.total = -1
		}
		for k := byte(1); len(stream) >= recLen && !sink.last; k++ {
			head := stream[:fileChunkHeadLen]
			size := int(binary.BigEndian.Uint32(stream[fileChunkHeadLen:recLen]) % (wire.MaxPayload + 1))
			stream = stream[recLen:]
			var h fileChunkHead
			herr := wire.Unmarshal(head, &h)
			body := &io.LimitedReader{R: io.MultiReader(bytes.NewReader(head), fillReader(k)), N: int64(size)}
			from := sink.got
			err := sink.frame(msgFileData, size, body)
			if data := int64(size) - body.N - min(fileChunkHeadLen, int64(size)); data > 0 && (err != nil || sink.dst == nil) {
				t.Fatalf("read %d data bytes of a chunk it refused (%v) or was discarding", data, err)
			}
			if err != nil {
				return // the client is poisoned: nothing further is read
			}
			if herr != nil {
				t.Fatalf("accepted a chunk whose head does not decode: %v", herr)
			}
			if int64(h.Offset) != from || sink.got != from+int64(h.Len) {
				t.Fatalf("accepted a chunk at %d+%d with %d bytes held", h.Offset, h.Len, from)
			}
			if sink.total >= 0 && sink.got > sink.total || sink.last && sink.got != sink.total {
				t.Fatalf("stream at %d of %d, last=%v", sink.got, sink.total, sink.last)
			}
			if sink.dst != nil && !bytes.Equal(sink.dst[from:sink.got], bytes.Repeat([]byte{k}, int(h.Len))) {
				t.Fatalf("chunk %d's data did not land at %d", k, from)
			}
		}
	})
}

// fillReader is an endless stream of one byte.
type fillReader byte

func (b fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// pushedOffer is the payload of an OFFER whose file follows it.
func pushedOffer(o Offer) []byte { return append(wire.Marshal(&o), 1) }

// upgradePending takes a LeaseClient through a bootstrap, its transfer
// and a checksum-acking renewal against the fixture's server, publishes
// a two-chunk v2 and runs the upgrade renewal: the client returns with
// v2's file pending behind the returned OFFER.
func upgradePending(t *testing.T) (*LeaseClient, Request, Offer) {
	t.Helper()
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	c := dialTestClient(t, f.drv.Addr(), 2*time.Second)
	req := catalogRequest()
	boot, err := c.Request(req)
	if err != nil {
		t.Fatal(err)
	}
	if c.pushed != nil {
		t.Fatal("a bootstrap's file was pushed: Table 3 asks for it with FILE_REQUEST")
	}
	if _, err := c.FetchFile(boot.LeaseID); err != nil {
		t.Fatal(err)
	}
	req.LeaseID, req.CurrentChecksum = boot.LeaseID, boot.DriverChecksum
	if _, err := c.Request(req); err != nil {
		t.Fatal(err)
	}
	f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 300<<10))
	up, err := c.Request(req)
	if err != nil || !up.HasDriver || c.pushed == nil || c.pushed.size != up.Size {
		t.Fatalf("upgrade renewal: offer %+v, err %v, pushed %+v", up, err, c.pushed)
	}
	return c, req, up
}

// TestPushedFileDrainedByNextCall: a caller that does not fetch the
// file pushed behind an upgrade OFFER pays only for reading it off the
// connection — the next Request or Release drains it, runs its own
// exchange on a frame boundary, and the client stays usable.
func TestPushedFileDrainedByNextCall(t *testing.T) {
	t.Run("request", func(t *testing.T) {
		c, req, up := upgradePending(t)
		req.CurrentChecksum = up.DriverChecksum
		o, err := c.Request(req)
		if err != nil || o.HasDriver || c.poisoned || c.pushed != nil {
			t.Fatalf("renewal after an unfetched push: offer %+v, err %v, poisoned %v", o, err, c.poisoned)
		}
		if _, err := c.Request(req); err != nil {
			t.Fatalf("the call after that: %v", err)
		}
	})
	t.Run("release", func(t *testing.T) {
		c, req, _ := upgradePending(t)
		if err := c.Release(req.LeaseID); err != nil || c.poisoned {
			t.Fatalf("release after an unfetched push: err %v, poisoned %v", err, c.poisoned)
		}
		if _, err := c.Discover(catalogRequest()); err != nil {
			t.Fatalf("the call after that: %v", err)
		}
	})
}

// TestPushedFileCutPoisons: a connection that dies inside a pushed file
// leaves the stream mid-frame, whichever call was reading it — the
// FetchFile for its lease or the drain before any other call — and the
// client refuses every later call.
func TestPushedFileCutPoisons(t *testing.T) {
	for name, call := range map[string]func(c *LeaseClient) error{
		"fetch": func(c *LeaseClient) error { _, err := c.FetchFile(7); return err },
		"drain": func(c *LeaseClient) error { _, err := c.Request(Request{}); return err },
	} {
		t.Run(name, func(t *testing.T) {
			addr := scriptedServer(t, func(nc net.Conn, _ <-chan struct{}) {
				if _, err := wire.NewConn(nc).Recv(); err != nil {
					return
				}
				var b bytes.Buffer
				wire.WriteFrame(&b, wire.Frame{Type: msgOffer, Payload: pushedOffer(Offer{LeaseID: 7, HasDriver: true, Size: 8})})
				wire.WriteFrame(&b, wire.Frame{Type: msgFileData, Payload: fileChunk{Total: 8, Last: true, Data: []byte("abcdefgh")}.encode()})
				nc.Write(b.Bytes()[:b.Len()-5]) // the connection dies five bytes short
			})
			c := dialTestClient(t, addr, 2*time.Second)
			if _, err := c.Request(Request{}); err != nil {
				t.Fatal(err)
			}
			err := call(c)
			var pe *ProtocolError
			if err == nil || errors.As(err, &pe) || errors.Is(err, ErrLeaseClientPoisoned) || !c.poisoned {
				t.Fatalf("err = %v, poisoned %v: want the transport failure itself, and poisoned", err, c.poisoned)
			}
			if _, err := c.FetchFile(7); !errors.Is(err, ErrLeaseClientPoisoned) {
				t.Fatalf("call on a poisoned client: err = %v", err)
			}
		})
	}
}

// TestPushedFileHeldToOffer: a pushed file is held to its OFFER's Size
// in both modes — into an offer-sized destination, and discarding,
// where a requested file would take its size from the first chunk —
// and a chunk naming another file size is refused at its head, before
// any of its data is read.
func TestPushedFileHeldToOffer(t *testing.T) {
	const offered, huge = 8, 32 << 20
	for name, fetch := range map[string]func(c *LeaseClient) error{
		"dst":     func(c *LeaseClient) error { _, err := c.fetchFile(7, make([]byte, offered)); return err },
		"discard": func(c *LeaseClient) error { _, err := c.FetchFile(7); return err },
	} {
		t.Run(name, func(t *testing.T) {
			addr := scriptedServer(t, func(nc net.Conn, done <-chan struct{}) {
				if _, err := wire.NewConn(nc).Recv(); err != nil {
					return
				}
				var b bytes.Buffer
				wire.WriteFrame(&b, wire.Frame{Type: msgOffer, Payload: pushedOffer(Offer{LeaseID: 7, HasDriver: true, Size: offered})})
				e := wire.NewEncoder(32)
				e.Uint16(wire.Magic)
				e.Uint16(msgFileData)
				e.Uint32(fileChunkHeadLen + huge) // the frame's payload length
				head := fileChunkHead{Offset: 0, Total: huge, Last: true, Len: huge}
				head.Fields(wire.Writing(e))
				b.Write(e.Bytes())
				nc.Write(b.Bytes())
				<-done // the data never comes
			})
			c := dialTestClient(t, addr, 30*time.Second)
			if _, err := c.Request(Request{}); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err := fetch(c)
			var ne net.Error
			if err == nil || (errors.As(err, &ne) && ne.Timeout()) || !strings.Contains(err.Error(), "size mismatch") {
				t.Fatalf("err = %v, want an immediate size-mismatch refusal", err)
			}
			if took := time.Since(start); took > 5*time.Second || !c.poisoned {
				t.Fatalf("refusal took %v, poisoned %v", took, c.poisoned)
			}
		})
	}
}

// TestPushFallsBackToFileRequest: a server that ignores the capability
// byte — any server from before the push — answers with an OFFER that
// ends at ServerName; nothing is pending, and FetchFile asks with
// FILE_REQUEST as it always did.
func TestPushFallsBackToFileRequest(t *testing.T) {
	type seen struct {
		typ  uint16
		caps uint8
	}
	frames := make(chan seen, 8)
	addr := scriptedServer(t, func(nc net.Conn, _ <-chan struct{}) {
		conn := wire.NewConn(nc)
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			switch f.Type {
			case msgRequest:
				_, caps, _ := decodeRequest(f.Payload, Request{})
				frames <- seen{f.Type, caps}
				conn.Send(msgOffer, wire.Marshal(&Offer{LeaseID: 7, HasDriver: true, Size: 8}))
			case msgFileRequest:
				frames <- seen{typ: f.Type}
				conn.Send(msgFileData, fileChunk{Total: 8, Last: true, Data: []byte("abcdefgh")}.encode())
			}
		}
	})
	c := dialTestClient(t, addr, 2*time.Second)
	offer, err := c.Request(Request{LeaseID: 7, CurrentChecksum: "v1"})
	if err != nil || !offer.HasDriver || c.pushed != nil {
		t.Fatalf("offer %+v, err %v, pushed %+v", offer, err, c.pushed)
	}
	if n, err := c.FetchFile(7); err != nil || n != 8 {
		t.Fatalf("fetched %d bytes, err %v", n, err)
	}
	if got := []seen{<-frames, <-frames}; got[0] != (seen{msgRequest, capFilePush}) || got[1] != (seen{typ: msgFileRequest}) {
		t.Fatalf("server saw %+v, want the REQUEST declaring capFilePush, then a FILE_REQUEST", got)
	}
}

// TestCapabilityLessUpgradeGetsTwoExchanges: a client that never
// declared capFilePush — any client from before the push — gets the
// old flow from this server: its upgrade renewal's OFFER ends at
// ServerName, nothing follows it, and the file comes on FILE_REQUEST.
func TestCapabilityLessUpgradeGetsTwoExchanges(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	conn, err := wire.Dial(f.drv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	recv := func() wire.Frame {
		t.Helper()
		fr, err := conn.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	request := func(req Request) (Offer, bool) {
		t.Helper()
		if err := conn.Send(msgRequest, wire.Marshal(&req)); err != nil {
			t.Fatal(err)
		}
		fr := recv()
		o, fileFollows, err := decodeOffer(fr.Payload, Offer{})
		if fr.Type != msgOffer || err != nil || !bytes.Equal(fr.Payload, wire.Marshal(&o)) {
			t.Fatalf("frame 0x%04x (%v): want an OFFER that ends at ServerName", fr.Type, err)
		}
		return o, fileFollows
	}
	fetch := func(leaseID uint64) {
		t.Helper()
		if err := conn.Send(msgFileRequest, wire.Marshal(&fileRequest{LeaseID: leaseID})); err != nil {
			t.Fatal(err)
		}
		for {
			ch, err := decodeFileChunk(recv().Payload)
			if err != nil {
				t.Fatal(err)
			}
			if ch.Last {
				return
			}
		}
	}
	req := catalogRequest()
	boot, _ := request(req)
	fetch(boot.LeaseID)
	req.LeaseID, req.CurrentChecksum = boot.LeaseID, boot.DriverChecksum
	request(req)
	f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 256))
	if up, fileFollows := request(req); !up.HasDriver || fileFollows {
		t.Fatalf("upgrade renewal: %+v, file follows %v", up, fileFollows)
	}
	fetch(req.LeaseID)
	// Had the server pushed the file too, this RELEASE's answer would
	// queue behind a second FILE_DATA stream.
	if err := conn.Send(msgRelease, wire.Marshal(&releaseMsg{LeaseID: req.LeaseID})); err != nil {
		t.Fatal(err)
	}
	if fr := recv(); fr.Type != msgReleaseOK {
		t.Fatalf("frame 0x%04x after the transfer, want RELEASE_OK", fr.Type)
	}
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
