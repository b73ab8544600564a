package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// LeaseClient is the client side of the Drivolution lease protocol —
// the only code that frames REQUEST, DISCOVER, FILE_REQUEST and
// RELEASE, arms the reply deadline and decodes the answers. It is a
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
type LeaseClient struct {
	conn     *wire.Conn
	addr     string        // as dialed; Bootloader matches its cached client by it
	timeout  time.Duration // bound on every reply wait; 0 = none
	poisoned bool
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

// send writes one message. A failure here struck before any reply.
func (c *LeaseClient) send(typ uint16, payload []byte) error {
	if c.poisoned {
		return ErrLeaseClientPoisoned
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
		pe, derr := decodeProtocolError(f.Payload)
		if derr != nil {
			return nil, c.fail(derr)
		}
		return nil, pe
	case msgRedirect:
		re, derr := decodeRedirect(f.Payload)
		if derr != nil {
			return nil, c.fail(derr)
		}
		return nil, re
	}
	return nil, c.fail(fmt.Errorf("core: unexpected frame 0x%04x (want 0x%04x)", f.Type, want))
}

// offer runs one exchange answered by an OFFER.
func (c *LeaseClient) offer(typ uint16, req Request) (Offer, error) {
	p, err := c.exchange(typ, req.encode(), msgOffer)
	if err != nil {
		return Offer{}, err
	}
	o, err := decodeOffer(p)
	if err != nil {
		return Offer{}, c.fail(err)
	}
	return o, nil
}

// Request runs one REQUEST→OFFER exchange: a bootstrap when
// req.LeaseID is zero, a renewal otherwise (Table 3 / Table 4 flows).
// The returned Offer's HasDriver reports whether the server staged an
// upgrade transfer for the lease; the caller may FetchFile it or let a
// later checksum-acking renewal drop it. A cluster member that does
// not own the request's shard answers with a *Redirect error: the
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
	return c.fetchFile(leaseID, nil)
}

// fetchFile runs FILE_REQUEST → FILE_DATA* and returns the byte count.
// dst is the whole file's destination, sized from the Offer that
// staged the transfer: each chunk's data is read off the connection
// straight into its place in dst. A nil dst discards the data unread
// and takes the file size from the first chunk. Either way the stream
// is held to that size before any data is read (see fileSink.frame): a
// server cannot make the client take in more than it was offered.
func (c *LeaseClient) fetchFile(leaseID uint64, dst []byte) (int, error) {
	if err := c.send(msgFileRequest, fileRequest{LeaseID: leaseID}.encode()); err != nil {
		return 0, err
	}
	sink := fileSink{c: c, dst: dst, total: int64(len(dst))}
	if dst == nil {
		sink.total = -1 // learned from the first chunk
	}
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
			case first && !sink.replied:
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
	dst     []byte // nil: discard
	total   int64  // file size the stream is held to; -1 until known
	got     int64
	replied bool // a frame header arrived on the current receive
	last    bool
}

// frame consumes one frame of the stream (wire.Conn.RecvBody's
// callback). A FILE_DATA chunk must name the expected file size as its
// Total, start where the previous chunk ended, end within the file,
// and — if it is the last — complete it; only then is its data read,
// directly into dst. Any other frame goes through the client's frame
// classifier.
func (s *fileSink) frame(typ uint16, size int, body io.Reader) error {
	s.replied = true
	if typ != msgFileData {
		p := make([]byte, size)
		if _, err := io.ReadFull(body, p); err != nil {
			return fmt.Errorf("wire: read payload: %w", err)
		}
		_, err := s.c.payload(wire.Frame{Type: typ, Payload: p}, msgFileData)
		return err
	}
	var hb [fileChunkHeadLen]byte
	if _, err := io.ReadFull(body, hb[:]); err != nil {
		return fmt.Errorf("core: read FILE_DATA head: %w", err)
	}
	h, err := decodeFileChunkHead(hb[:])
	if err != nil {
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
	if s.dst != nil {
		if _, err := io.ReadFull(body, s.dst[s.got:s.got+int64(h.Len)]); err != nil {
			return fmt.Errorf("wire: read payload: %w", err)
		}
	}
	s.got += int64(h.Len)
	s.last = h.Last
	return nil
}

// Release gives a lease back (msgRelease, license mode §5.4.2).
func (c *LeaseClient) Release(leaseID uint64) error {
	_, err := c.exchange(msgRelease, releaseMsg{LeaseID: leaseID}.encode(), msgReleaseOK)
	return err
}
