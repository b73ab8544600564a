// Package faultnet is the repository's failure model made executable:
// one shared vocabulary of network faults, one shared retry/backoff
// policy, and one set of default deadlines, used by every protocol
// layer (dbms, sequoia, drivolution core) instead of per-package
// hand-rolled constants and sleep loops.
//
// It has two halves:
//
//   - The contract half — Policy/Backoff and the Default*Timeout
//     constants — is imported by production code. Every retry loop in
//     the tree routes through Backoff; every wire exchange is bounded
//     by a deadline derived from these defaults (see the "Failure
//     model" section of docs/ARCHITECTURE.md for the per-layer map).
//
//   - The injection half — Proxy — is imported by tests. A Proxy
//     sits invisibly between any wire client and server (clients
//     just dial Proxy.Addr instead of the real address, no code
//     changes), and can inject added latency, bandwidth caps,
//     partial writes, connection resets at byte- and frame-
//     boundaries, silent black-holes (accept then stall), and one-way
//     partitions — all deterministically from a seed, so a failing
//     chaos run reproduces from its logged seed.
//
// faultnet deliberately depends on nothing but the standard library:
// the packages it serves (wire, core, dbms, sequoia, workload) import
// it, never the reverse. The frame-boundary logic mirrors package
// wire's framing (8-byte header, big-endian payload length in bytes
// 4..8); TestFrameTrackerMatchesWire pins the two together.
//
//lint:deadline-exempt the chaos proxy relays raw conns verbatim; bounding them would mask the very stalls it exists to inject
package faultnet

import (
	"encoding/binary"
	"time"
)

// Default deadlines: the stack-wide failure contract. Servers bound
// the first frame of every accepted connection (the hello / initial
// request) with DefaultHandshakeTimeout so a connect-and-stall peer
// cannot pin an accept slot; every server-side Send carries
// DefaultWriteTimeout so a stalled reader cannot wedge a broadcast or
// file-transfer path; clients bound each request/response exchange
// with DefaultOpTimeout. All three are overridable per component —
// these are the values used when nothing is configured.
const (
	DefaultHandshakeTimeout = 10 * time.Second
	DefaultWriteTimeout     = 30 * time.Second
	DefaultOpTimeout        = 30 * time.Second
)

// Faults programs the failure behavior of one direction of one
// connection. The zero value forwards faithfully.
type Faults struct {
	// Latency is added once per forwarded chunk (a coarse propagation
	// delay, not a per-byte model).
	Latency time.Duration
	// Bandwidth caps throughput in bytes/second; 0 means unlimited.
	Bandwidth int
	// MaxChunk bounds how many bytes move per underlying write,
	// fragmenting large frames into many small partial writes; 0
	// means no fragmentation.
	MaxChunk int
	// CutAfterBytes hard-resets (RST, not FIN) the connection after
	// exactly this many bytes have been forwarded in this direction —
	// landing mid-frame for any realistic frame size.
	CutAfterBytes int64
	// CutAfterFrames hard-resets the connection exactly on a wire
	// frame boundary, after this many complete frames have been
	// forwarded in this direction. Nothing the other direction reads
	// after those frames are written is forwarded, so the peer's answer
	// to the last of them is always lost (as for CutAfterBytes).
	CutAfterFrames int
	// BlackHole forwards nothing, silently and forever: the peer's
	// writes vanish and its reads stall until a deadline fires. This
	// is the accept-then-stall server and the half-open TCP peer.
	BlackHole bool
}

// frameHeaderSize is the wire package's frame header: magic (2B),
// type (2B), payload length (4B big-endian).
const frameHeaderSize = 8

// frameTracker incrementally parses wire framing out of a forwarded
// byte stream so faults can trigger exactly on frame boundaries. It
// trusts the stream (no magic validation): it only measures where
// frames end.
type frameTracker struct {
	hdr    [frameHeaderSize]byte
	hdrLen int // header bytes collected for the current frame
	remain int // payload bytes outstanding for the current frame
	frames int // complete frames fully consumed
}

// boundary reports whether the consumed stream position sits exactly
// between two frames.
func (t *frameTracker) boundary() bool { return t.hdrLen == 0 && t.remain == 0 }

// admit consumes bytes from b, stopping early once limit complete
// frames have been consumed and the position is a boundary; it
// returns how many bytes were consumed. limit <= 0 means no limit.
func (t *frameTracker) admit(b []byte, limit int) int {
	consumed := 0
	for consumed < len(b) {
		if limit > 0 && t.frames >= limit && t.boundary() {
			break
		}
		if t.remain == 0 {
			n := copy(t.hdr[t.hdrLen:], b[consumed:])
			t.hdrLen += n
			consumed += n
			if t.hdrLen == frameHeaderSize {
				t.remain = int(binary.BigEndian.Uint32(t.hdr[4:8]))
				t.hdrLen = 0
				if t.remain == 0 {
					t.frames++ // zero-payload frame completes at its header
				}
			}
			continue
		}
		n := len(b) - consumed
		if n > t.remain {
			n = t.remain
		}
		t.remain -= n
		consumed += n
		if t.remain == 0 {
			t.frames++
		}
	}
	return consumed
}
