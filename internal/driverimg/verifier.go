package driverimg

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"

	"repro/internal/wire"
)

// Verifier checks an encoded image as its bytes arrive, in writes of
// any size, and keeps none of them: it parses the manifest from the
// head (holding only a head that is split across writes), hashes the
// canonical range as it passes and takes the signature from the tail.
// The image's size is fixed when the Verifier is made — a bootloader's
// is the OFFER's — and the framing is held to it. Close then gives the
// verdict Decode gives on the whole blob, and Sum the checksum once the
// signature verifies, so an image is installed without ever being in
// memory whole.
type Verifier struct {
	pub  ed25519.PublicKey // nil: Sum checks no signature
	size int
	got  int    // bytes written so far
	head []byte // the bytes written so far, while the head has not parsed
	img  Image  // the manifest, once the head has parsed; never a payload or signature
	end  int    // the canonical range is [1:end), once the head has parsed; 0 before
	h    hash.Hash
	sum  [sha256.Size]byte
	tail [4 + ed25519.SignatureSize]byte // the signature's length prefix and up to one signature
	err  error
}

// NewVerifier returns a Verifier for an image of size bytes, whose Sum
// checks the image's signature against pub; a nil pub checks none.
func NewVerifier(size int, pub ed25519.PublicKey) *Verifier {
	return &Verifier{pub: pub, size: size, h: sha256.New()}
}

// Write takes the image's next bytes; it keeps no reference to p. A
// framing error is sticky: Write returns it from then on and Close
// reports it.
func (v *Verifier) Write(p []byte) (int, error) {
	if v.err != nil {
		return 0, v.err
	}
	n, at := len(p), v.got
	if n == 0 {
		return 0, nil
	}
	if n > v.size-at {
		v.err = fmt.Errorf("driverimg: encoded image: more than the %d bytes offered", v.size)
		return 0, v.err
	}
	v.got += n
	if v.end == 0 { // every byte so far is head
		b := p
		if at > 0 {
			v.head = append(v.head, p...)
			b = v.head
		}
		m, off, end, err := readHead(b, v.size)
		if err != nil {
			if !errors.Is(err, wire.ErrShortBuffer) || v.got == v.size {
				v.err = err
				return 0, err
			}
			if at == 0 {
				v.head = append(v.head, p...)
			}
			return n, nil
		}
		v.img.Manifest, v.end = m, end
		v.h.Write(b[1:off])
		p, at = b[off:], off
		v.head = nil
	}
	if at < v.end {
		k := min(len(p), v.end-at)
		v.h.Write(p[:k])
		p, at = p[k:], at+k
	}
	if len(p) > 0 && at-v.end < len(v.tail) {
		copy(v.tail[at-v.end:], p)
	}
	return n, nil
}

// Close ends the image: once all size bytes have arrived framed as
// Decode requires, it returns the image as Runtime.Load takes it — the
// manifest, with no payload or signature, as none was kept — or else
// the error Decode would give.
func (v *Verifier) Close() (*Image, error) {
	switch {
	case v.err != nil:
	case v.size == 0:
		_, _, _, v.err = readHead(nil, 0)
	case v.got < v.size:
		v.err = fmt.Errorf("driverimg: encoded image: %w: %d of %d bytes", wire.ErrShortBuffer, v.got, v.size)
	default:
		v.err = tailErr(v.size, v.end, binary.BigEndian.Uint32(v.tail[:4]))
	}
	v.head = nil
	if v.err != nil {
		return nil, v.err
	}
	return &v.img, nil
}

// Sum returns the image's Checksum once its signature is a valid
// ed25519 signature by the Verifier's key over signedMessage; an
// unsigned image fails, and with no key no signature is checked. It
// is meaningful only after Close has returned no error.
func (v *Verifier) Sum() (string, error) {
	if v.err != nil {
		return "", v.err
	}
	sum := v.h.Sum(v.sum[:0])
	if v.pub != nil {
		sigLen := v.size - v.end - 4
		if sigLen == 0 {
			return "", fmt.Errorf("driverimg: image is unsigned")
		}
		// Only a signature's worth of the tail was kept: a longer one
		// fails here, not by the prefix it shares with a valid one.
		sig := v.tail[4 : 4+min(sigLen, ed25519.SignatureSize)]
		if sigLen > ed25519.SignatureSize || !ed25519.Verify(v.pub, signedMessage(v.end-1, &v.sum), sig) {
			return "", fmt.Errorf("driverimg: signature verification failed")
		}
	}
	return hex.EncodeToString(sum), nil
}
