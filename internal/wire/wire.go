// Package wire implements the framed binary message transport shared by
// every network protocol in this repository: the simulated DBMS protocol,
// the Sequoia controller protocol, and the Drivolution bootstrap protocol.
//
// A frame on the wire is:
//
//	+----------------+----------------+----------------------+
//	| magic (2B)     | type (2B)      | length (4B, payload) |
//	+----------------+----------------+----------------------+
//	| payload (length bytes)                                 |
//	+--------------------------------------------------------+
//
// Payloads are encoded with the field primitives in this package
// (length-prefixed strings and byte slices, fixed-width integers,
// big-endian throughout). A fixed-layout message declares its fields
// once, in a Fields method that a Walker runs to encode or to decode
// it (walk.go). The codec is deliberately simple and allocation
// conscious; it has no reflection and no external dependencies.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Magic is the two-byte frame preamble. Frames not starting with Magic are
// rejected, which catches cross-protocol connections (e.g. a legacy
// database driver accidentally pointed at a Drivolution port).
const Magic uint16 = 0xD17A

// MaxPayload bounds a single frame payload. Driver binaries are chunked by
// the file-transfer layer, so no legitimate frame approaches this limit.
const MaxPayload = 64 << 20 // 64 MiB

// Frame is a single protocol message: a numeric type plus an opaque
// payload to be decoded by the owning protocol.
type Frame struct {
	Type    uint16
	Payload []byte
}

// Codec-level errors.
var (
	// ErrBadMagic indicates the peer is not speaking this framing.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrFrameTooLarge indicates a frame advertised a payload above MaxPayload.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum payload size")
	// ErrShortBuffer indicates a truncated payload during field decoding.
	ErrShortBuffer = errors.New("wire: short buffer")
)

// headerLen is the size of the fixed frame header.
const headerLen = 8

// appendHeader appends the header of a frame carrying n payload bytes.
func appendHeader(b []byte, typ uint16, n int) []byte {
	b = binary.BigEndian.AppendUint16(b, Magic)
	b = binary.BigEndian.AppendUint16(b, typ)
	return binary.BigEndian.AppendUint32(b, uint32(n))
}

// WriteFrame writes one frame to w. It is not safe for concurrent use on
// the same writer; callers serialize with their own mutex.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
	var hdr [headerLen]byte
	if _, err := w.Write(appendHeader(hdr[:0], f.Type, len(f.Payload))); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if len(f.Payload) == 0 {
		return nil
	}
	if _, err := w.Write(f.Payload); err != nil {
		return fmt.Errorf("wire: write payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame from r into a payload of its own, which the
// caller may keep. io.EOF is returned unwrapped when the connection
// closes cleanly between frames.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	typ, n, err := readHeader(r, &hdr)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: typ}
	if n > 0 {
		if f.Payload, err = ReadPayload(r, n); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// readHeader reads and validates one frame header into hdr: the frame
// type and the length of the payload that follows on r.
func readHeader(r io.Reader, hdr *[headerLen]byte) (typ uint16, n int, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("wire: read header: %w", err)
	}
	if m := binary.BigEndian.Uint16(hdr[0:2]); m != Magic {
		return 0, 0, fmt.Errorf("%w: 0x%04x", ErrBadMagic, m)
	}
	size := binary.BigEndian.Uint32(hdr[4:8])
	if size > MaxPayload {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	return binary.BigEndian.Uint16(hdr[2:4]), int(size), nil
}

// payloadStep is ReadPayload's first allocation; each later one
// doubles what has arrived.
const payloadStep = 64 << 10

// ReadPayload reads an n-byte payload from r into a slice of its own:
// ReadFrame's way with every payload, Recv's with one larger than
// connBufSize, and a RecvBody callback's with one it keeps. The slice
// grows with the bytes that actually arrive, never to more than
// max(payloadStep, twice what was read), so a header alone cannot make
// the reader allocate the MaxPayload it may declare. The error is
// io.ReadFull's over the whole payload, wrapped.
func ReadPayload(r io.Reader, n int) ([]byte, error) {
	p := make([]byte, min(n, payloadStep))
	got := 0
	for {
		m, err := io.ReadFull(r, p[got:])
		got += m
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("wire: read payload: %w", err)
		}
		if got == n {
			return p, nil
		}
		grown := make([]byte, got+min(n-got, got))
		copy(grown, p)
		p = grown
	}
}

// Encoder accumulates payload fields for one frame. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with capacity preallocated for frames of
// roughly n bytes.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// encoderPool recycles encoder backing arrays between frames; chunked
// file streaming sends thousands of frames per transfer and should not
// allocate one payload buffer each.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// maxPooledEncoder bounds the backing array a returned encoder may keep,
// so one oversized frame doesn't pin its buffer in the pool forever.
const maxPooledEncoder = 1 << 20

// GetEncoder returns a pooled encoder, empty, with capacity for roughly
// n bytes. Pair with PutEncoder once the payload has been handed to
// Conn.Send (Send flushes before returning, so the buffer is free for
// reuse immediately after).
func GetEncoder(n int) *Encoder {
	e := encoderPool.Get().(*Encoder)
	if cap(e.buf) < n {
		e.buf = make([]byte, 0, n)
	}
	return e
}

// PutEncoder recycles an encoder obtained from GetEncoder. The encoder
// (and any []byte obtained from its Bytes) must not be used afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledEncoder {
		return
	}
	e.Reset()
	encoderPool.Put(e)
}

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset discards the accumulated payload, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
		return
	}
	e.Uint8(0)
}

// Uint16 appends a big-endian 16-bit integer.
func (e *Encoder) Uint16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// Uint32 appends a big-endian 32-bit integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 appends a big-endian 64-bit integer.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int32 appends a big-endian signed 32-bit integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Int64 appends a big-endian signed 64-bit integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Duration appends a time.Duration as nanoseconds.
func (e *Encoder) Duration(d time.Duration) { e.Int64(int64(d)) }

// Time appends a time.Time as Unix nanoseconds (UTC). The zero time is
// encoded as math.MinInt64 so it round-trips exactly.
func (e *Encoder) Time(t time.Time) {
	if t.IsZero() {
		e.Int64(math.MinInt64)
		return
	}
	e.Int64(t.UnixNano())
}

// String appends a length-prefixed UTF-8 string (4-byte length).
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes32 appends a length-prefixed byte slice (4-byte length).
func (e *Encoder) Bytes32(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// StringSlice appends a count-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Uint32(uint32(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Decoder consumes payload fields from one frame. Decoding errors are
// sticky: after the first error every subsequent call returns the zero
// value and Err reports the original failure, so message decoders can
// read all fields and check Err once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over payload b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// fail records err as the decoder's error unless it already has one.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Remaining reports the number of unconsumed payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) { // n < 0: a uint32 length past int on 32-bit platforms
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d",
			ErrShortBuffer, n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint8 consumes one byte.
func (d *Decoder) Uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool consumes one byte as a boolean.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// Uint16 consumes a big-endian 16-bit integer.
func (d *Decoder) Uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 consumes a big-endian 32-bit integer.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 consumes a big-endian 64-bit integer.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int32 consumes a big-endian signed 32-bit integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Int64 consumes a big-endian signed 64-bit integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Duration consumes a time.Duration encoded as nanoseconds.
func (d *Decoder) Duration() time.Duration { return time.Duration(d.Int64()) }

// Time consumes a time.Time encoded as Unix nanoseconds.
func (d *Decoder) Time() time.Time {
	v := d.Int64()
	if d.err != nil || v == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// String consumes a length-prefixed string.
func (d *Decoder) String() string { return d.StringLike("") }

// StringLike consumes a length-prefixed string and returns prev when
// its bytes equal prev's, so a string a peer repeats message after
// message — a database name, a checksum — is compared, not allocated
// again. Any other string comes back as a fresh copy, as from String.
func (d *Decoder) StringLike(prev string) string {
	b := d.take(int(d.Uint32())) // nil once the decoder has failed
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// Bytes32 consumes a length-prefixed byte slice. The returned slice is a
// copy and safe to retain.
func (d *Decoder) Bytes32() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Bytes32View consumes a length-prefixed byte slice without copying it:
// the result aliases the decoder's buffer, with its capacity clipped to
// its length so an append by the holder reallocates instead of writing
// into the bytes that follow. The holder must treat it as read-only for
// as long as anyone else reads the buffer.
func (d *Decoder) Bytes32View() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	b := d.take(int(n))
	return b[:len(b):len(b)]
}

// Count consumes a 4-byte element count: the one way a decoder reads a
// count that sizes an allocation or bounds a loop. Each element takes
// at least minElemBytes of the payload (a minimum below 1 counts as 1),
// so a count the remaining payload cannot back sets the decoder's
// error, wrapping ErrShortBuffer, before anything is sized from it. On
// any error Count returns 0: callers size and loop from its result
// with no check of their own.
func (d *Decoder) Count(minElemBytes int) int {
	n, width := d.Uint32(), max(minElemBytes, 1)
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(width) > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: count %d of %d-byte elements exceeds the %d bytes left",
			ErrShortBuffer, n, width, d.Remaining())
		return 0
	}
	return int(n)
}

// StringSlice consumes a count-prefixed slice of strings.
func (d *Decoder) StringSlice() []string {
	n := d.Count(4) // each string needs at least its 4-byte length
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}
