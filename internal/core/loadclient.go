package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
	"weak"

	"repro/internal/wire"
)

// LeaseClient is the client side of the Drivolution lease protocol —
// the only code that frames REQUEST, DISCOVER, FILE_REQUEST, RELEASE
// and SUBSCRIBE, arms the reply deadline and decodes the answers. It is a
// single-goroutine object that owns one connection and nothing else:
// no driver, no renewal timer, no goroutines. Bootloader layers
// discovery, failover, redirect hops and driver installation on top of
// it; load harnesses multiplex many *virtual* bootloaders over a
// bounded pool of these by handing each call whatever (lease, checksum)
// identity it is standing in for.
//
// Error contract: a *ProtocolError or *Redirect return means the
// exchange completed cleanly (the server answered with
// DRIVOLUTION_ERROR, or named the shard owner) and the connection
// remains usable. Any other error is a transport or framing failure:
// the stream may be mid-frame, so the client poisons itself — every
// later call fails fast with ErrLeaseClientPoisoned and the caller must
// Close and dial a replacement. That mirrors ConnStore's redial
// contract: never reuse a stream you cannot prove is on a frame
// boundary.
//
// Two transfer flows: a bootstrap's file is fetched with FILE_REQUEST
// (Table 3), an upgrade renewal's arrives behind its OFFER unasked
// (Table 4 "OFFER + FILE_DATA") — the client declares that it reads
// such a push with a capability byte on the first REQUEST or DISCOVER
// of its connection, and the OFFER says whether the file follows. A
// pushed file is read by the FetchFile for its lease; any other call
// first drains it off the connection, and a failed drain poisons.
type LeaseClient struct {
	conn     *wire.Conn
	addr     string        // as dialed; Bootloader matches its cached client by it
	timeout  time.Duration // bound on every reply wait; 0 = none
	poisoned bool
	declared bool         // capFilePush went out on this connection
	pushed   *pushedFile  // a file the server is streaming behind its OFFER, not yet read
	last     Offer        // the last OFFER decoded, whose strings the next reuses
	enc      wire.Encoder // REQUEST and DISCOVER payloads, reused: Send returns only once the frame is written
}

// pushedFile is the transfer an OFFER announced as following it.
type pushedFile struct {
	leaseID uint64
	size    uint32
}

// ErrLeaseClientPoisoned is returned by every call after a transport
// failure; the caller must Close and dial a fresh client.
var ErrLeaseClientPoisoned = fmt.Errorf("core: lease client poisoned by earlier transport failure")

// noReplyError wraps a transport failure that struck before a reply
// frame arrived and was not a timeout: the connection was dead on
// arrival (closed by a server restart, an idle drop), so the server
// cannot have processed the message and re-sending it on a fresh
// connection is safe. A timeout is never classified this way — the
// message may have been applied and only the answer lost.
type noReplyError struct{ error }

func (e noReplyError) Unwrap() error { return e.error }

func isNoReply(err error) bool {
	var e noReplyError
	return errors.As(err, &e)
}

// DialLeaseClient connects to a Drivolution server. opTimeout bounds
// every response wait (and is also the dial timeout when positive);
// zero means no response deadline.
func DialLeaseClient(addr string, opTimeout time.Duration) (*LeaseClient, error) {
	dial := opTimeout
	if dial <= 0 {
		dial = 5 * time.Second
	}
	conn, err := wire.Dial(addr, dial)
	if err != nil {
		return nil, err
	}
	return &LeaseClient{conn: conn, addr: addr, timeout: opTimeout}, nil
}

// Close releases the connection. Safe on a poisoned client.
func (c *LeaseClient) Close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// fail poisons the client and passes err through.
func (c *LeaseClient) fail(err error) error {
	c.poisoned = true
	return err
}

// failNoReply poisons the client over a transport failure that struck
// before any reply frame arrived: unless it was a timeout it is
// reported as a noReplyError.
func (c *LeaseClient) failNoReply(err error) error {
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		err = noReplyError{err}
	}
	return c.fail(err)
}

// send writes one message, after draining any pushed file the caller
// did not fetch. A failure here struck before the message left.
func (c *LeaseClient) send(typ uint16, payload []byte) error {
	if c.poisoned {
		return ErrLeaseClientPoisoned
	}
	if p := c.pushed; p != nil {
		c.pushed = nil
		if _, err := c.recvFile(nil, int64(p.size), true); err != nil {
			return c.fail(err) // even a clean error frame: the stream broke its OFFER
		}
	}
	if err := c.conn.Send(typ, payload); err != nil {
		return c.failNoReply(err)
	}
	return nil
}

// exchange sends one message and returns the payload of its first
// reply frame, which must be of type want (see payload).
func (c *LeaseClient) exchange(typ uint16, payload []byte, want uint16) ([]byte, error) {
	if err := c.send(typ, payload); err != nil {
		return nil, err
	}
	f, err := c.conn.RecvTimeout(c.timeout)
	if err != nil {
		return nil, c.failNoReply(err)
	}
	return c.payload(f, want)
}

// payload classifies one received frame. DRIVOLUTION_ERROR and
// REDIRECT come back as *ProtocolError and *Redirect and leave the
// client usable; a frame of type want yields its payload; an
// undecodable payload or any other frame type poisons.
func (c *LeaseClient) payload(f wire.Frame, want uint16) ([]byte, error) {
	switch f.Type {
	case want:
		return f.Payload, nil
	case msgError:
		pe := new(ProtocolError)
		if derr := wire.Unmarshal(f.Payload, pe); derr != nil {
			return nil, c.fail(derr)
		}
		return nil, pe
	case msgRedirect:
		re := new(Redirect)
		if derr := wire.Unmarshal(f.Payload, re); derr != nil {
			return nil, c.fail(derr)
		}
		return nil, re
	}
	return nil, c.fail(fmt.Errorf("core: unexpected frame 0x%04x (want 0x%04x)", f.Type, want))
}

// offer runs one exchange answered by an OFFER. The connection's first
// REQUEST or DISCOVER carries the capability byte; an OFFER that says
// its file follows leaves that file pending on the connection.
func (c *LeaseClient) offer(typ uint16, req Request) (Offer, error) {
	c.enc.Reset()
	req.Fields(wire.Writing(&c.enc))
	if !c.declared {
		c.enc.Uint8(capFilePush)
		c.declared = true
	}
	p, err := c.exchange(typ, c.enc.Bytes(), msgOffer)
	if err != nil {
		return Offer{}, err
	}
	o, fileFollows, err := decodeOffer(p, c.last)
	if err != nil {
		return Offer{}, c.fail(err)
	}
	c.last = o
	if fileFollows {
		c.pushed = &pushedFile{leaseID: o.LeaseID, size: o.Size}
	}
	return o, nil
}

// Request runs one REQUEST→OFFER exchange: a bootstrap when
// req.LeaseID is zero, a renewal otherwise (Table 3 / Table 4 flows).
// The returned Offer's HasDriver reports whether the server staged a
// transfer for the lease. After a bootstrap the caller may FetchFile
// it (FILE_REQUEST → FILE_DATA*) or let a later checksum-acking renewal
// drop it; after an upgrade renewal the file is normally already on
// its way behind the OFFER, and FetchFile reads it without a second
// round trip — a caller that does not want it pays only for reading
// it off the connection before its next call. A cluster member that
// does not own the request's shard answers with a *Redirect error: the
// caller repeats the request on a client connected to its Addr.
func (c *LeaseClient) Request(req Request) (Offer, error) {
	return c.offer(msgRequest, req)
}

// Discover runs one DISCOVER→OFFER matchmaking probe: the server
// answers with lease terms and the matched driver's identity but
// creates no lease (paper §3.1) — the bootloader's server discovery
// and drivoctl's "which driver would this client get?" check.
func (c *LeaseClient) Discover(req Request) (Offer, error) {
	return c.offer(msgDiscover, req)
}

// FetchFile downloads the driver blob staged for leaseID and returns
// its size, discarding the content (a load harness measures transfer
// cost; it does not run drivers). The checksum of what would have been
// installed is already in the Offer that staged the transfer.
func (c *LeaseClient) FetchFile(leaseID uint64) (int, error) {
	return c.fetchFile(leaseID, -1, nil)
}

// fetchFile reads the file staged for leaseID and returns the byte
// count: the one pushed behind the lease's OFFER if there is one, else
// through FILE_REQUEST → FILE_DATA*. Each chunk's data goes from the
// connection through a pooled scratch to dst (a
// bootloader's: the driverimg.Verifier that checks the image as it
// arrives); a nil dst discards it. The stream is
// held to the file size before any data is read (see fileSink.frame) —
// a pushed file's to its OFFER's Size, a requested one's to total or,
// when total is -1, to the first chunk's Total — so a server cannot
// make the client take in more than it was offered. dst's Write errors
// are not the transfer's: a file dst refuses is still read to its end,
// so the connection stays on a frame boundary, and dst keeps its own
// verdict (a Verifier reports it when closed).
func (c *LeaseClient) fetchFile(leaseID uint64, total int64, dst io.Writer) (int, error) {
	if p := c.pushed; p != nil && p.leaseID == leaseID && !c.poisoned {
		c.pushed = nil
		return c.recvFile(dst, int64(p.size), true)
	}
	if err := c.send(msgFileRequest, wire.Marshal(&fileRequest{LeaseID: leaseID})); err != nil {
		return 0, err
	}
	return c.recvFile(dst, total, false)
}

// transferScratch sizes the scratch a FILE_DATA stream's data is read
// through: a chunk's data takes one read per transferScratch, and the
// process keeps one scratch per transfer in flight. 16 KiB reads a
// 256 KiB chunk in sixteen reads, and a scratch the GC took back costs
// the next transfer a sixteenth of its image to allocate again.
const transferScratch = 16 << 10

// chunkBufs holds the scratches FILE_DATA streams are read through.
// The one given back last waits in idle, held only weakly, where the
// next transfer finds it on whichever P it runs (a sync.Pool keeps a
// buffer in the private slot of the P that put it, out of other Ps'
// reach); one given back while idle holds another, when transfers
// overlap, goes to the pool. The GC frees both once no transfer needs
// them, so a process keeps no scratch at rest.
var chunkBufs struct {
	sync.Mutex
	idle weak.Pointer[[transferScratch]byte]
	pool sync.Pool // of *[transferScratch]byte
}

func getChunkBuf() *[transferScratch]byte {
	chunkBufs.Lock()
	buf := chunkBufs.idle.Value()
	chunkBufs.idle = weak.Pointer[[transferScratch]byte]{}
	chunkBufs.Unlock()
	if buf == nil {
		buf, _ = chunkBufs.pool.Get().(*[transferScratch]byte)
	}
	if buf == nil {
		buf = new([transferScratch]byte)
	}
	return buf
}

func putChunkBuf(buf *[transferScratch]byte) {
	idle := weak.Make(buf)
	chunkBufs.Lock()
	if chunkBufs.idle.Value() == nil {
		chunkBufs.idle, buf = idle, nil
	}
	chunkBufs.Unlock()
	if buf != nil {
		chunkBufs.pool.Put(buf)
	}
}

// recvFile reads one FILE_DATA stream into dst (nil: discard), held to
// total bytes (-1: the first chunk's Total). answered reports that the
// exchange's reply already arrived — a pushed file follows its OFFER —
// so no failure inside the stream is "no reply".
func (c *LeaseClient) recvFile(dst io.Writer, total int64, answered bool) (int, error) {
	buf := getChunkBuf()
	defer putChunkBuf(buf)
	sink := fileSink{c: c, dst: dst, buf: buf[:], total: total}
	recv := sink.frame
	for first := true; ; first = false {
		sink.replied = false
		err := c.conn.RecvBody(c.timeout, recv)
		if err != nil {
			var pe *ProtocolError
			var re *Redirect
			switch {
			case errors.As(err, &pe), errors.As(err, &re):
				// A clean, complete exchange: the client stays usable.
			case first && !sink.replied && !answered:
				err = c.failNoReply(err)
			default:
				err = c.fail(err)
			}
			return int(sink.got), err
		}
		if sink.last {
			return int(sink.got), nil
		}
	}
}

// fileSink is the receiving end of one FILE_DATA stream.
type fileSink struct {
	c       *LeaseClient
	dst     io.Writer // nil: discard
	buf     []byte    // the scratch each chunk's data is read through
	total   int64     // file size the stream is held to; -1 until known
	got     int64
	replied bool // a frame header arrived on the current receive
	last    bool
}

// frame consumes one frame of the stream (wire.Conn.RecvBody's
// callback). A FILE_DATA chunk must name the expected file size as its
// Total, start where the previous chunk ended, end within the file,
// and — if it is the last — complete it; only then is its data read,
// through the scratch, into dst. Any other frame goes through the
// client's frame classifier.
func (s *fileSink) frame(typ uint16, size int, body io.Reader) error {
	s.replied = true
	if typ != msgFileData {
		p, err := wire.ReadPayload(body, size)
		if err != nil {
			return err
		}
		_, err = s.c.payload(wire.Frame{Type: typ, Payload: p}, msgFileData)
		return err
	}
	hb := s.buf[:fileChunkHeadLen] // read through the scratch too: a local array would escape
	if _, err := io.ReadFull(body, hb); err != nil {
		return fmt.Errorf("core: read FILE_DATA head: %w", err)
	}
	var h fileChunkHead
	d := wire.NewDecoder(hb)
	h.Fields(wire.Reading(d))
	if err := d.Err(); err != nil {
		return err
	}
	if int64(size) != fileChunkHeadLen+int64(h.Len) {
		return fmt.Errorf("core: FILE_DATA frame of %d bytes declares %d data bytes", size, h.Len)
	}
	if s.total < 0 {
		s.total = int64(h.Total)
	}
	switch end := int64(h.Offset) + int64(h.Len); {
	case int64(h.Total) != s.total:
		return fmt.Errorf("core: transfer size mismatch: chunk of a %d-byte file, offered %d", h.Total, s.total)
	case int64(h.Offset) != s.got:
		return fmt.Errorf("core: transfer gap or overlap: chunk at offset %d, have %d bytes", h.Offset, s.got)
	case end > s.total:
		return fmt.Errorf("core: transfer overruns its offer: chunk ends at byte %d of %d", end, s.total)
	case h.Last && end < s.total:
		return fmt.Errorf("core: transfer ended short: %d of %d bytes", end, s.total)
	case !h.Last && h.Len == 0:
		return fmt.Errorf("core: empty FILE_DATA chunk at offset %d", h.Offset)
	}
	for left := int(h.Len); left > 0; {
		n, err := io.ReadFull(body, s.buf[:min(left, len(s.buf))])
		if err != nil {
			return fmt.Errorf("wire: read payload: %w", err)
		}
		if s.dst != nil {
			_, _ = s.dst.Write(s.buf[:n]) // a refused file is read on; dst keeps its verdict
		}
		left -= n
	}
	s.got += int64(h.Len)
	s.last = h.Last
	return nil
}

// Subscribe turns the connection into a dedicated update channel for
// (database, api) (§3.2): the server answers nothing until it NOTIFYs.
// After it the client serves only WaitNotify.
func (c *LeaseClient) Subscribe(database, api string) error {
	return c.send(msgSubscribe, wire.Marshal(&subscribeMsg{Database: database, API: api}))
}

// WaitNotify blocks, with no deadline, until the server sends a NOTIFY
// on a subscribed connection. A nil return is one NOTIFY; any error
// means the channel is gone and the caller subscribes afresh on a new
// client. Close, from another goroutine, ends the wait.
func (c *LeaseClient) WaitNotify() error {
	if c.poisoned {
		return ErrLeaseClientPoisoned
	}
	f, err := c.conn.Recv()
	if err != nil {
		return c.fail(err)
	}
	_, err = c.payload(f, msgNotify)
	return err
}

// Release gives a lease back (msgRelease, license mode §5.4.2).
func (c *LeaseClient) Release(leaseID uint64) error {
	_, err := c.exchange(msgRelease, wire.Marshal(&releaseMsg{LeaseID: leaseID}), msgReleaseOK)
	return err
}
