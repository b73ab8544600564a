package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// countingConn counts the Read and Write calls that reach a net.Conn.
type countingConn struct {
	net.Conn
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// chunkedConn serves a fixed stream through Read in pieces whose sizes
// cycle through cuts (each byte + 1), then io.EOF on every later read:
// one delivery of the stream at arbitrary read boundaries.
type chunkedConn struct {
	net.Conn
	stream []byte
	cuts   []byte
	i      int
}

func (c *chunkedConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.cuts) > 0 {
		n = min(n, int(c.cuts[c.i%len(c.cuts)])+1)
		c.i++
	}
	n = copy(p, c.stream[:min(n, len(c.stream))])
	c.stream = c.stream[n:]
	return n, nil
}

// frameBytes is the encoding of frames, one after another.
func frameBytes(t testing.TB, frames ...Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRecvAllocatesWhatArrives: a frame header may declare up to
// MaxPayload, but the reader allocates with the bytes that arrive. A
// header declaring MaxPayload, 100 payload bytes and EOF fail with
// io.ErrUnexpectedEOF and allocate less than 1 MiB, through Recv,
// through ReadFrame, and through a RecvBody callback that keeps the
// payload with ReadPayload. (Recv and ReadFrame allocated the whole
// declared 64 MiB before reading a payload byte, as did the lease
// client's callback for a frame other than FILE_DATA.)
func TestRecvAllocatesWhatArrives(t *testing.T) {
	stream := binary.BigEndian.AppendUint32([]byte{byte(Magic >> 8), byte(Magic & 0xff), 0, 1}, MaxPayload)
	stream = append(stream, bytes.Repeat([]byte{0xAB}, 100)...)
	for name, recv := range map[string]func() error{
		"Recv": func() error {
			_, err := NewConn(&chunkedConn{stream: stream}).Recv()
			return err
		},
		"ReadFrame": func() error {
			_, err := ReadFrame(bytes.NewReader(stream))
			return err
		},
		"RecvBody+ReadPayload": func() error {
			return NewConn(&chunkedConn{stream: stream}).RecvBody(0, func(_ uint16, size int, body io.Reader) error {
				_, err := ReadPayload(body, size)
				return err
			})
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := recv()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: a 108-byte stream made the reader allocate %d bytes", name, got)
		}
	}
	// What does arrive is read whole, across every growth step and at
	// arbitrary read boundaries.
	payload := bytes.Repeat([]byte("0123456789abcdef"), (3*payloadStep+5)/16)
	f, err := NewConn(&chunkedConn{stream: frameBytes(t, Frame{Type: 9, Payload: payload}), cuts: []byte{6, 255, 3}}).Recv()
	if err != nil || f.Type != 9 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("large payload: err=%v, intact=%v", err, bytes.Equal(f.Payload, payload))
	}
}

// FuzzConnRecv: a stream of frames delivered at arbitrary read
// boundaries yields, through Recv and RecvBody in any mix, exactly the
// frames and the error that ReadFrame yields over the whole stream (see
// receiveLikeReadFrame): the Conn's small bufio.Reader, its payload
// buffer and RecvBody's discard frame the stream as ReadFrame does. The
// seeds are small, so the fuzzer minimizes quickly.
func FuzzConnRecv(f *testing.F) {
	whole := frameBytes(f, Frame{Type: 1}, Frame{Type: 2, Payload: []byte("small")},
		Frame{Type: 3, Payload: bytes.Repeat([]byte{3}, readBufSize+100)}, Frame{Type: 6, Payload: []byte("after")})
	f.Add(whole, []byte{}, []byte{0, 1, 2})
	f.Add(whole, []byte{0, 6, 255, 3}, []byte{2, 1, 0, 2})
	f.Add(whole[:len(whole)-3], []byte{200}, []byte{1})                                                               // EOF inside the last payload
	f.Add(whole[:len(whole)-len("after")], []byte{7}, []byte{2, 0})                                                   // EOF with a header and no payload
	f.Add(whole[:20], []byte{2}, []byte{0})                                                                           // EOF inside a header
	f.Add(append(bytes.Clone(whole[:8]), 0xBA, 0xAD, 0, 1, 0, 0, 0, 0), []byte{}, []byte{1})                          // bad magic
	f.Add(append(bytes.Clone(whole[:8]), byte(Magic>>8), byte(Magic&0xff), 0, 1, 0xFF, 0, 0, 0), []byte{}, []byte{2}) // oversize
	f.Fuzz(func(t *testing.T, stream, cuts, how []byte) {
		if len(stream) > 1<<20 {
			return
		}
		receiveLikeReadFrame(t, stream, cuts, how)
	})
}

// receiveLikeReadFrame delivers stream to a Conn in reads whose sizes
// cycle through cuts, and receives with Recv, RecvBody reading the
// whole payload, or RecvBody reading half of it, cycling through how.
// The frames and the error must be those ReadFrame yields over the
// whole stream — a clean io.EOF between frames, io.ErrUnexpectedEOF
// inside one, a bad magic, an oversize header — and a RecvBody that
// reads half a payload gets that half, the rest skipped.
func receiveLikeReadFrame(t *testing.T, stream, cuts, how []byte) {
	t.Helper()
	var want []Frame
	var wantErr error
	for r := bytes.NewReader(stream); wantErr == nil; {
		fr, err := ReadFrame(r)
		if err == nil {
			want = append(want, fr)
		}
		wantErr = err
	}
	c := NewConn(&chunkedConn{stream: stream, cuts: cuts})
	for i := 0; ; i++ {
		mode := byte(0)
		if len(how) > 0 {
			mode = how[i%len(how)] % 3
		}
		var got Frame
		var err error
		keep := -1 // the payload bytes read; -1: all of them
		if mode == 0 {
			got, err = c.Recv()
		} else {
			err = c.RecvBody(0, func(typ uint16, size int, body io.Reader) error {
				got.Type = typ
				if keep = -1; mode == 2 {
					keep = size / 2
				}
				got.Payload = make([]byte, size)
				if keep >= 0 {
					got.Payload = got.Payload[:keep]
				}
				if _, err := io.ReadFull(body, got.Payload); err != nil {
					return fmt.Errorf("wire: read payload: %w", err)
				}
				return nil
			})
		}
		if err != nil {
			if i != len(want) || err.Error() != wantErr.Error() || (wantErr == io.EOF) != (err == io.EOF) {
				t.Fatalf("receive %d: err = %v, want %d frames then %v", i, err, len(want), wantErr)
			}
			return
		}
		if i >= len(want) {
			t.Fatalf("receive %d: a frame past ReadFrame's %d, then %v", i, len(want), wantErr)
		}
		w := want[i]
		if keep >= 0 {
			w.Payload = w.Payload[:keep]
		}
		if got.Type != w.Type || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("receive %d (mode %d): type %d, %d bytes; want type %d, %d bytes", i, mode, got.Type, len(got.Payload), w.Type, len(w.Payload))
		}
	}
}

// TestSendIsOneWrite: a frame of at most connBufSize reaches the
// net.Conn as exactly one Write carrying WriteFrame's bytes, and a
// larger one as header and payload, two Writes on a conn with no
// vectored write — never more Writes than a bufio.Writer of 8 KiB,
// which flushed a frame of up to its 8 KiB in one and wrote a larger
// one in two or more.
func TestSendIsOneWrite(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	cc := &countingConn{Conn: a}
	conn := NewConn(cc)
	defer conn.Close()
	for _, tc := range []struct{ size, writes int }{
		{0, 1}, {1, 1}, {160, 1}, {connBufSize - headerLen, 1}, {connBufSize - headerLen + 1, 2}, {64 << 10, 2},
	} {
		payload := bytes.Repeat([]byte{byte(tc.size)}, tc.size)
		want := frameBytes(t, Frame{Type: 7, Payload: payload})
		got := make(chan []byte, 1)
		go func() {
			buf := make([]byte, len(want))
			_, _ = io.ReadFull(b, buf)
			got <- buf
		}()
		before := cc.writes
		if err := conn.Send(7, payload); err != nil {
			t.Fatal(err)
		}
		if w := cc.writes - before; w != tc.writes {
			t.Fatalf("a %d-byte payload took %d writes, want %d", tc.size, w, tc.writes)
		}
		if !bytes.Equal(<-got, want) {
			t.Fatalf("a %d-byte payload: Send's bytes differ from WriteFrame's", tc.size)
		}
	}
}

// TestRecvBodyDiscardReads: the 16 KiB a callback leaves unread are
// skipped in at most 3 reads of the connection — through io.Discard's
// 8 KiB buffer, which bypasses the Conn's smaller one. (Discarding
// through a bufio.Reader shrunk to 1 KiB refilled it 16 times for the
// same skip.)
func TestRecvBodyDiscardReads(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	cc := &countingConn{Conn: b}
	conn := NewConn(cc)
	defer conn.Close()
	head := make([]byte, 13)
	go func() { _ = NewConn(a).SendBody(0x0206, head, make([]byte, 16<<10)) }()
	var readsInFn int
	if err := conn.RecvBody(time.Second, func(_ uint16, size int, body io.Reader) error {
		_, err := io.ReadFull(body, head)
		readsInFn = cc.reads
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := cc.reads - readsInFn; n > 3 {
		t.Fatalf("skipping 16 KiB took %d reads, want at most 3", n)
	}
	if got := conn.br.Size() + cap(conn.rbuf); got > readBufSize {
		t.Fatalf("the skip grew the read buffers to %d bytes", got)
	}
}

// TestConnBuffersFollowFrames: a Conn that has carried only frames of
// 256 bytes or less, both ways and through Recv and RecvBody, holds at
// most 1.25 KiB of buffers: its 512-byte bufio.Reader, and a payload
// buffer and a send scratch that grew with those frames. (With a bufio
// pair it held 16 KiB from NewConn on: an 8 KiB bufio.Reader and an
// 8 KiB bufio.Writer.)
func TestConnBuffersFollowFrames(t *testing.T) {
	a, b := tcpPair(t)
	x, y := NewConn(a), NewConn(b)
	for size := 0; size <= 256; size += 32 {
		payload := bytes.Repeat([]byte{1}, size)
		if err := x.Send(1, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := y.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := y.Send(2, payload); err != nil {
			t.Fatal(err)
		}
		if err := x.RecvBody(time.Second, func(uint16, int, io.Reader) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]*Conn{"sender": x, "receiver": y} {
		if held := c.br.Size() + cap(c.rbuf) + cap(c.whead); held > 5<<8 {
			t.Fatalf("%s holds %d bytes of buffers after frames of at most 256 bytes", name, held)
		}
	}
}
