package core

import (
	"errors"
	"fmt"
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

// exchange sends one message and returns the payload of its first
// reply frame, which must be of type want (see payload). A transport
// failure here struck before any reply frame arrived: unless it was a
// timeout it is reported as a noReplyError.
func (c *LeaseClient) exchange(typ uint16, payload []byte, want uint16) ([]byte, error) {
	if c.poisoned {
		return nil, ErrLeaseClientPoisoned
	}
	err := c.conn.Send(typ, payload)
	var f wire.Frame
	if err == nil {
		f, err = c.conn.RecvTimeout(c.timeout)
	}
	if err != nil {
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			err = noReplyError{err}
		}
		return nil, c.fail(err)
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

// fetchFile runs FILE_REQUEST → FILE_DATA* and appends the chunks to
// *dst (nil discards them), returning the byte count. Chunks must
// arrive in order without gaps; whether the total matches what was
// offered is the caller's check.
func (c *LeaseClient) fetchFile(leaseID uint64, dst *[]byte) (int, error) {
	p, err := c.exchange(msgFileRequest, fileRequest{LeaseID: leaseID}.encode(), msgFileData)
	for got := 0; ; {
		if err != nil {
			return got, err
		}
		chunk, derr := decodeFileChunk(p)
		if derr != nil {
			return got, c.fail(derr)
		}
		if int(chunk.Offset) != got {
			return got, c.fail(fmt.Errorf("core: transfer gap at offset %d, have %d bytes", chunk.Offset, got))
		}
		if dst != nil {
			*dst = append(*dst, chunk.Data...)
		}
		got += len(chunk.Data)
		if chunk.Last {
			return got, nil
		}
		f, rerr := c.conn.RecvTimeout(c.timeout)
		if rerr != nil {
			return got, c.fail(rerr)
		}
		p, err = c.payload(f, msgFileData)
	}
}

// Release gives a lease back (msgRelease, license mode §5.4.2).
func (c *LeaseClient) Release(leaseID uint64) error {
	_, err := c.exchange(msgRelease, releaseMsg{LeaseID: leaseID}.encode(), msgReleaseOK)
	return err
}
