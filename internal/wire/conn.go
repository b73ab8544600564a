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

// Conn wraps a net.Conn with mutex-serialized frame I/O. Writes from
// multiple goroutines are safe; reads must come from a single goroutine
// (the usual pattern: one reader loop per connection).
type Conn struct {
	nc net.Conn

	wmu      sync.Mutex
	wtimeout time.Duration // per-Send write deadline; 0 = none
	warmed   bool          // a write deadline is currently set on nc

	// The send scratch, guarded by wmu: a small frame is built whole in
	// whead and written at once; a SendBody or SendAfter puts its
	// [lead frame +] frame header + payload head there and the body in
	// the second iovec, so a transfer allocates nothing per chunk.
	whead []byte
	wvec  [2][]byte
	wbuf  net.Buffers

	// Reader-side state, owned by the single reader goroutine: a small
	// bufio.Reader made on the first receive, the frame header, the
	// payload buffer Recv reuses, and RecvBody's view of the current
	// payload.
	br   *bufio.Reader
	rhdr [headerLen]byte
	rbuf []byte
	body io.LimitedReader
}

// connBufSize bounds what a Conn buffers in each direction: a frame of
// at most connBufSize is written with one Write, and a payload of at
// most connBufSize is received into the buffer Recv reuses, grown on
// demand. Larger ones go from the caller's bytes to the socket and from
// the socket to a slice of their own.
const connBufSize = 8 << 10

// readBufSize sizes a Conn's bufio.Reader. It only has to hold frame
// headers and small frames: a read at least this large bypasses it and
// goes straight to the socket, so a payload lands in its destination in
// one copy and RecvBody's discard of an unread remainder reads through
// io.Discard's 8 KiB buffer, not 512 bytes at a time.
const readBufSize = 512

// NewConn wraps nc for frame I/O. It is the repo's deadline trust
// root: the returned Conn arms per-operation deadlines lazily — Send
// under SetWriteTimeout, RecvTimeout per receive — so raw conns are
// bounded the moment they are wrapped.
//
//lint:deadline-arming
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc}
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

// Send writes one frame: a frame of at most connBufSize built whole in
// the Conn's scratch and written at once, a larger one as header and
// payload in one scatter list (see SendBody).
func (c *Conn) Send(typ uint16, payload []byte) error {
	if headerLen+len(payload) > connBufSize {
		return c.sendBody(nil, typ, nil, payload)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.armWrite(); err != nil {
		return err
	}
	c.whead = append(appendHeader(c.whead[:0], typ, len(payload)), payload...)
	if _, err := c.nc.Write(c.whead); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
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
	return c.sendBody(nil, typ, head, body)
}

// SendAfter writes lead as a whole frame and then one frame of head
// followed by body, in the same scatter list as SendBody: lead, the
// second frame's header and head share the small scratch buffer, body
// stays the second iovec. The bytes on the wire are exactly those of
// Send(lead.Type, lead.Payload) followed by SendBody(typ, head, body),
// in one write instead of two — a reply and the first frame of the
// stream behind it leave together.
func (c *Conn) SendAfter(lead Frame, typ uint16, head, body []byte) error {
	if len(lead.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(lead.Payload))
	}
	return c.sendBody(&lead, typ, head, body)
}

func (c *Conn) sendBody(lead *Frame, typ uint16, head, body []byte) error {
	if len(head)+len(body) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(head)+len(body))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.armWrite(); err != nil {
		return err
	}
	c.whead = c.whead[:0]
	if lead != nil {
		c.whead = append(appendHeader(c.whead, lead.Type, len(lead.Payload)), lead.Payload...)
	}
	c.whead = append(appendHeader(c.whead, typ, len(head)+len(body)), head...)
	c.wbuf = append(net.Buffers(c.wvec[:0]), c.whead, body)
	_, err := c.wbuf.WriteTo(c.nc)
	c.wvec = [2][]byte{} // a failed write leaves its unsent slices behind
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// Recv reads one frame. Its payload is valid only until the next
// receive on this Conn: a payload of up to connBufSize bytes lands in a
// buffer the Conn reuses, grown on demand, so a caller copies out what
// it keeps. Every decoder the repository runs on a received payload
// does — Decoder.String and Bytes32 copy, and no Bytes32View of one
// reaches a value that outlives the frame. ReadFrame, which allocates
// each payload afresh, is for callers that keep frames.
func (c *Conn) Recv() (Frame, error) {
	typ, n, err := readHeader(c.reader(), &c.rhdr)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: typ}
	switch {
	case n == 0:
		return f, nil
	case n > connBufSize:
		if f.Payload, err = ReadPayload(c.br, n); err != nil {
			return Frame{}, err
		}
		return f, nil
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, min(max(n, 2*cap(c.rbuf)), connBufSize))
	}
	f.Payload = c.rbuf[:n:n]
	if _, err := io.ReadFull(c.br, f.Payload); err != nil {
		return Frame{}, fmt.Errorf("wire: read payload: %w", err)
	}
	return f, nil
}

// reader is the Conn's bufio.Reader, made on the first receive: a Conn
// that only sends holds none.
func (c *Conn) reader() *bufio.Reader {
	if c.br == nil {
		c.br = bufio.NewReaderSize(c.nc, readBufSize)
	}
	return c.br
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
// boundary again; the discard reads through io.Discard's 8 KiB buffer,
// which bypasses the Conn's smaller one. When fn returns an error
// RecvBody returns it at once and reads nothing further (the caller is
// about to drop a connection it no longer trusts). One deadline of d (zero: none) covers header and
// payload together. Like Recv, it must be called from the connection's
// single reader goroutine.
func (c *Conn) RecvBody(d time.Duration, fn func(typ uint16, size int, body io.Reader) error) error {
	if err := c.armRead(d); err != nil {
		return err
	}
	defer c.disarmRead(d)
	typ, size, err := readHeader(c.reader(), &c.rhdr)
	if err != nil {
		return err
	}
	c.body = io.LimitedReader{R: c.br, N: int64(size)}
	if err := fn(typ, size, &c.body); err != nil {
		return err
	}
	if c.body.N == 0 {
		return nil
	}
	// io.Copy reports a payload cut short as success; what is left
	// unread tells the two apart.
	if _, err = io.Copy(io.Discard, &c.body); err == nil && c.body.N > 0 {
		err = io.ErrUnexpectedEOF
		if c.body.N == int64(size) {
			err = io.EOF
		}
	}
	if err != nil {
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
