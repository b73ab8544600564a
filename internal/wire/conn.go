package wire

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Conn wraps a net.Conn with buffered, mutex-serialized frame I/O. Writes
// from multiple goroutines are safe; reads must come from a single
// goroutine (the usual pattern: one reader loop per connection).
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	wmu      sync.Mutex
	bw       *bufio.Writer
	wtimeout time.Duration // per-Send write deadline; 0 = none
	warmed   bool          // a write deadline is currently set on nc

	// SendBody's scatter list lives here so a transfer allocates
	// nothing per chunk; guarded by wmu like bw.
	whead []byte // frame header + payload head
	wvec  [2][]byte
	wbuf  net.Buffers

	body io.LimitedReader // RecvBody's view of the current payload
}

// connBufSize sizes the per-connection bufio buffers. Frames larger
// than the buffer bypass it in both directions (bufio reads/writes go
// straight to the socket once the buffer is empty/flushed), so big
// FILE_DATA chunks lose nothing while short-lived protocol connections
// stop allocating 64 KiB each.
const connBufSize = 8 << 10

// NewConn wraps nc for frame I/O. It is the repo's deadline trust
// root: the returned Conn arms per-operation deadlines lazily — Send
// under SetWriteTimeout, RecvTimeout per receive — so raw conns are
// bounded the moment they are wrapped.
//
//lint:deadline-arming
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, connBufSize),
		bw: bufio.NewWriterSize(nc, connBufSize),
	}
}

// SetWriteTimeout bounds every subsequent Send: the frame must be
// fully flushed to the socket within d or the Send fails with a
// timeout error. Zero disables the bound. Servers set this on every
// accepted connection so a stalled reader (a black-holed peer, a
// full receive window that never drains) cannot wedge broadcast or
// transfer paths; a timed-out connection must be closed — the stream
// position after a partial flush is unknown.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.wmu.Lock()
	c.wtimeout = d
	c.wmu.Unlock()
}

// armWrite applies the write timeout to the frame about to be sent;
// caller holds wmu.
func (c *Conn) armWrite() error {
	if c.wtimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.wtimeout)); err != nil {
			return fmt.Errorf("wire: set write deadline: %w", err)
		}
		c.warmed = true
	} else if c.warmed {
		_ = c.nc.SetWriteDeadline(time.Time{})
		c.warmed = false
	}
	return nil
}

// Send writes and flushes one frame.
func (c *Conn) Send(typ uint16, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.armWrite(); err != nil {
		return err
	}
	if err := WriteFrame(c.bw, Frame{Type: typ, Payload: payload}); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// SendBody writes one frame whose payload is head followed by body,
// without joining the two: the frame header, head and body go to the
// socket as one scatter list (a single writev on a TCP connection,
// consecutive writes on TLS or any other net.Conn). The bytes on the
// wire are exactly those of Send(typ, head+body). body is only read,
// and not retained past the call, so a caller may pass a slice of a
// buffer it shares with other senders.
func (c *Conn) SendBody(typ uint16, head, body []byte) error {
	if len(head)+len(body) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(head)+len(body))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.armWrite(); err != nil {
		return err
	}
	var hdr [headerLen]byte
	putHeader(hdr[:], typ, len(head)+len(body))
	c.whead = append(append(c.whead[:0], hdr[:]...), head...)
	c.wbuf = append(net.Buffers(c.wvec[:0]), c.whead, body)
	// Send leaves bw flushed, so nothing buffered can be overtaken.
	_, err := c.wbuf.WriteTo(c.nc)
	c.wvec = [2][]byte{} // a failed write leaves its unsent slices behind
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// Recv reads one frame.
func (c *Conn) Recv() (Frame, error) {
	return ReadFrame(c.br)
}

// armRead bounds the reads that follow by d (zero: unbounded);
// disarmRead lifts the bound again.
func (c *Conn) armRead(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if err := c.nc.SetReadDeadline(time.Now().Add(d)); err != nil {
		return fmt.Errorf("wire: set read deadline: %w", err)
	}
	return nil
}

func (c *Conn) disarmRead(d time.Duration) {
	if d > 0 {
		_ = c.nc.SetReadDeadline(time.Time{}) // best-effort reset
	}
}

// RecvTimeout reads one frame, failing if none arrives within d. A zero
// duration means no deadline.
func (c *Conn) RecvTimeout(d time.Duration) (Frame, error) {
	if err := c.armRead(d); err != nil {
		return Frame{}, err
	}
	defer c.disarmRead(d)
	return c.Recv()
}

// RecvBody reads one frame without buffering its payload: once the
// header has arrived and passed the magic and MaxPayload checks, fn is
// called with the frame type, the payload length and a reader limited
// to the payload, and reads as much of it as it wants straight off the
// connection — into a buffer of its own, or not at all. What fn leaves
// unread is discarded when it returns nil, so the stream is on a frame
// boundary again; when fn returns an error RecvBody returns it at once
// and reads nothing further (the caller is about to drop a connection
// it no longer trusts). One deadline of d (zero: none) covers header
// and payload together. Like Recv, it must be called from the
// connection's single reader goroutine.
func (c *Conn) RecvBody(d time.Duration, fn func(typ uint16, size int, body io.Reader) error) error {
	if err := c.armRead(d); err != nil {
		return err
	}
	defer c.disarmRead(d)
	typ, size, err := readHeader(c.br)
	if err != nil {
		return err
	}
	c.body = io.LimitedReader{R: c.br, N: int64(size)}
	if err := fn(typ, size, &c.body); err != nil {
		return err
	}
	if _, err := c.br.Discard(int(c.body.N)); err != nil {
		return fmt.Errorf("wire: read payload: %w", err)
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// IsTLS reports whether the connection runs over TLS; protocol layers
// use it to enforce secure-transfer policies.
func (c *Conn) IsTLS() bool {
	_, ok := c.nc.(*tls.Conn)
	return ok
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// LocalAddr returns the local address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// Dial connects to addr over TCP and wraps the connection. timeout bounds
// connection establishment; zero means the OS default.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewConn(nc), nil
}
