package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns two ends of one loopback TCP connection (the writev
// path of SendBody needs a real *net.TCPConn).
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestSendBodyBytesEqualSend: a frame sent as head + body puts the same
// bytes on the wire as the same payload sent joined — over TCP (one
// writev) and over a conn with no vectored write (net.Pipe, as TLS:
// consecutive writes) — and interleaves cleanly with Send.
func TestSendBodyBytesEqualSend(t *testing.T) {
	head := []byte{0, 0, 0, 9, 0, 0, 1, 0, 1, 0, 0, 0, 5}
	body := bytes.Repeat([]byte("chunk"), 40<<10) // 200 KiB: far past the bufio buffers
	var want bytes.Buffer
	for _, f := range []Frame{{Type: 7, Payload: []byte("before")},
		{Type: 0x0206, Payload: append(bytes.Clone(head), body...)},
		{Type: 0x0206, Payload: bytes.Clone(head)}, // empty body
		{Type: 8, Payload: []byte("after")}} {
		if err := WriteFrame(&want, f); err != nil {
			t.Fatal(err)
		}
	}
	send := func(c *Conn) error {
		if err := c.Send(7, []byte("before")); err != nil {
			return err
		}
		if err := c.SendBody(0x0206, head, body); err != nil {
			return err
		}
		if err := c.SendBody(0x0206, head, nil); err != nil {
			return err
		}
		return c.Send(8, []byte("after"))
	}
	pipeA, pipeB := net.Pipe()
	defer pipeA.Close()
	defer pipeB.Close()
	tcpA, tcpB := tcpPair(t)
	for name, ends := range map[string][2]net.Conn{"tcp": {tcpA, tcpB}, "pipe": {pipeA, pipeB}} {
		errc := make(chan error, 1)
		go func() { errc <- send(NewConn(ends[0])) }()
		got := make([]byte, want.Len())
		if _, err := io.ReadFull(ends[1], got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: SendBody's bytes differ from the joined frame's", name)
		}
	}
	if err := NewConn(pipeA).SendBody(1, head, make([]byte, MaxPayload)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize SendBody: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestSendBodyWriteTimeout: the scatter send is bounded by the same
// write timeout as Send.
func TestSendBodyWriteTimeout(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	conn := NewConn(c1)
	defer conn.Close()
	conn.SetWriteTimeout(50 * time.Millisecond)
	err := conn.SendBody(1, []byte("head"), make([]byte, 64<<10)) // c2 never reads
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
}

// TestRecvBody covers the streaming receive: the callback reads the
// payload into a buffer of its own or leaves it, what it leaves is
// skipped, frames before and after are intact, and a callback error
// comes back as it is with nothing further read.
func TestRecvBody(t *testing.T) {
	a, b := tcpPair(t)
	sender, recv := NewConn(a), NewConn(b)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 16<<10) // 256 KiB
	go func() {
		sender.Send(1, payload)
		sender.Send(2, payload) // read in part
		sender.Send(3, nil)
		sender.Send(4, []byte("plain"))
		sender.Send(5, payload) // refused
	}()

	dst := make([]byte, len(payload))
	if err := recv.RecvBody(time.Second, func(typ uint16, size int, body io.Reader) error {
		if typ != 1 || size != len(payload) {
			return fmt.Errorf("typ=%d size=%d", typ, size)
		}
		_, err := io.ReadFull(body, dst)
		return err
	}); err != nil || !bytes.Equal(dst, payload) {
		t.Fatalf("frame 1: err=%v, payload intact=%v", err, bytes.Equal(dst, payload))
	}
	var first [16]byte
	if err := recv.RecvBody(time.Second, func(_ uint16, _ int, body io.Reader) error {
		_, err := io.ReadFull(body, first[:])
		return err
	}); err != nil || string(first[:]) != "0123456789abcdef" {
		t.Fatalf("frame 2: err=%v first=%q", err, first)
	}
	if err := recv.RecvBody(time.Second, func(typ uint16, size int, body io.Reader) error {
		if n, err := body.Read(first[:]); typ != 3 || size != 0 || n != 0 || err != io.EOF {
			return fmt.Errorf("typ=%d size=%d read=(%d, %v)", typ, size, n, err)
		}
		return nil
	}); err != nil {
		t.Fatalf("frame 3 (empty): %v", err)
	}
	if f, err := recv.RecvTimeout(time.Second); err != nil || f.Type != 4 || string(f.Payload) != "plain" {
		t.Fatalf("frame 4 through Recv after skipped payloads: %+v, %v", f, err)
	}
	refused := errors.New("refused")
	if err := recv.RecvBody(time.Second, func(uint16, int, io.Reader) error { return refused }); err != refused {
		t.Fatalf("frame 5: err = %v, want the callback's own error", err)
	}
}

// TestRecvBodyChecksHeaderAndDeadline: magic and MaxPayload are checked
// before the callback runs, and one deadline covers header and payload
// — a peer that stalls mid-payload times the receive out.
func TestRecvBodyChecksHeaderAndDeadline(t *testing.T) {
	never := func(uint16, int, io.Reader) error { return errors.New("callback ran") }
	for name, hdr := range map[string][]byte{
		"bad magic": {0xBA, 0xAD, 0, 1, 0, 0, 0, 0},
		"too large": {byte(Magic >> 8), byte(Magic & 0xff), 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
	} {
		a, b := tcpPair(t)
		a.Write(hdr)
		err := NewConn(b).RecvBody(time.Second, never)
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%s: err = %v", name, err)
		}
	}

	a, b := tcpPair(t)
	a.Write([]byte{byte(Magic >> 8), byte(Magic & 0xff), 0, 1, 0, 0, 0, 64, 1, 2, 3}) // 3 of 64 bytes
	start := time.Now()
	err := NewConn(b).RecvBody(50*time.Millisecond, func(_ uint16, size int, body io.Reader) error {
		_, err := io.ReadFull(body, make([]byte, size))
		return err
	})
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stalled payload: err = %v, want a timeout", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("timeout took %v, expected ~50ms", took)
	}
	// The same stall, with the payload left to RecvBody to skip.
	a2, b2 := tcpPair(t)
	a2.Write([]byte{byte(Magic >> 8), byte(Magic & 0xff), 0, 1, 0, 0, 0, 64, 1, 2, 3})
	err = NewConn(b2).RecvBody(50*time.Millisecond, func(uint16, int, io.Reader) error { return nil })
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stalled payload being skipped: err = %v, want a timeout", err)
	}
}

// TestBytes32ViewAliasesAndClips: the non-copying field read returns a
// window of the decoder's buffer whose capacity ends with the field.
func TestBytes32ViewAliasesAndClips(t *testing.T) {
	e := NewEncoder(32)
	e.Bytes32([]byte("payload"))
	e.Bytes32([]byte("signature"))
	buf := e.Bytes()
	d := NewDecoder(buf)
	p, s := d.Bytes32View(), d.Bytes32View()
	if d.Err() != nil || string(p) != "payload" || string(s) != "signature" {
		t.Fatalf("p=%q s=%q err=%v", p, s, d.Err())
	}
	if &p[0] != &buf[4] || cap(p) != len(p) || cap(s) != len(s) {
		t.Fatalf("view not aliased and clipped: cap(p)=%d cap(s)=%d", cap(p), cap(s))
	}
	_ = append(p, "XXXX"...)
	if string(buf[4+7+4:]) != "signature" {
		t.Fatal("append to a view wrote into the field behind it")
	}
	if NewDecoder(buf[:6]).Bytes32View() != nil {
		t.Fatal("truncated field must yield nil")
	}
}
