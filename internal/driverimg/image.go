// Package driverimg defines the driver image: the unit of distribution
// that Drivolution stores in the database's drivers table (the paper's
// binary_code BLOB) and ships to bootloaders.
//
// Substitution note (see DESIGN.md §2): the paper's Java implementation
// ships JAR files and loads them with a fresh classloader. A static Go
// binary cannot hot-load native code, so a driver image is a *signed,
// serialized description of driver behaviour* — which wire protocol
// version to speak, which dialect quirks to apply, which endpoint to pin
// (the paper's pre-configured failover drivers, §5.2), which feature
// packages are included (§5.4.1), and arbitrary configuration options.
// The Runtime in this package instantiates an image into a live
// client.Driver at run time. Everything the paper's lifecycle measures —
// fetch, verify, install, hot-swap under live connections — exercises the
// same code path.
package driverimg

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/dbver"
	"repro/internal/wire"
)

// imageVersion guards the serialized image format.
const imageVersion = 1

// Manifest describes one driver build.
type Manifest struct {
	// Kind selects the connector factory in the Runtime, e.g.
	// "dbms-native" or "sequoia". The analog of the driver's main class.
	Kind string
	// API is the client-facing API this driver implements (JDBC analog).
	API dbver.API
	// Platform is the platform this build targets; empty means portable.
	Platform dbver.Platform
	// Version is the driver's own three-part version.
	Version dbver.Version
	// ProtocolVersion is the wire-protocol major version the driver
	// speaks to the server. Mismatches reproduce the paper's step-5
	// connect-time incompatibility.
	ProtocolVersion uint16
	// PinnedURL, when set, overrides whatever URL the application passes
	// to connect — the paper's pre-configured DBmaster/DBslave failover
	// drivers (§5.2) are exactly this.
	PinnedURL string
	// Options are driver configuration defaults, merged under the
	// application's own props (driver_options column, Table 2).
	Options map[string]string
	// Packages lists included feature packages (NLS, GIS, Kerberos...),
	// §5.4.1. Sorted on encode.
	Packages []string
}

// Clone deep-copies the manifest.
func (m Manifest) Clone() Manifest {
	out := m
	if m.Options != nil {
		out.Options = make(map[string]string, len(m.Options))
		for k, v := range m.Options {
			out.Options[k] = v
		}
	}
	out.Packages = append([]string(nil), m.Packages...)
	return out
}

// HasPackage reports whether the manifest includes the named package.
func (m Manifest) HasPackage(name string) bool {
	for _, p := range m.Packages {
		if p == name {
			return true
		}
	}
	return false
}

// ID renders a stable human-readable identity for logs:
// kind/api/version/platform.
func (m Manifest) ID() string {
	plat := string(m.Platform)
	if plat == "" {
		plat = "any"
	}
	return fmt.Sprintf("%s/%s/%s/%s", m.Kind, m.API, m.Version, plat)
}

// Image is a manifest plus integrity metadata, ready for storage in the
// drivers table or transfer to a bootloader.
type Image struct {
	Manifest Manifest
	// Payload is opaque ballast simulating the code body of a real
	// driver; assembly (§5.4.1) concatenates per-package payloads. Its
	// size shows up in transfer benchmarks.
	Payload []byte
	// Signature is an ed25519 signature over the canonical encoding of
	// (manifest, payload); empty for unsigned images.
	Signature []byte
}

// Encode serializes the image into the BLOB stored in binary_code.
func (img *Image) Encode() []byte {
	e := wire.NewEncoder(256 + len(img.Payload))
	e.Uint8(imageVersion)
	encodeManifest(e, img.Manifest)
	e.Bytes32(img.Payload)
	e.Bytes32(img.Signature)
	return e.Bytes()
}

// Decode parses an encoded image. Payload and Signature are not copied:
// they alias blob (capacity-clipped, so appending to one reallocates
// rather than running into the bytes behind it), which keeps decoding
// independent of the image size. The caller must not modify blob while
// the image is in use, and must treat the two slices as read-only;
// replacing them (Sign, Assemble) is fine.
func Decode(blob []byte) (*Image, error) {
	d := wire.NewDecoder(blob)
	if v := d.Uint8(); v != imageVersion {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("driverimg: decode: %w", err)
		}
		return nil, fmt.Errorf("driverimg: unsupported image version %d", v)
	}
	m, err := decodeManifest(d)
	if err != nil {
		return nil, err
	}
	img := &Image{Manifest: m, Payload: d.Bytes32View(), Signature: d.Bytes32View()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("driverimg: decode: %w", err)
	}
	if n := d.Remaining(); n != 0 {
		return nil, fmt.Errorf("driverimg: decode: %d trailing bytes", n)
	}
	return img, nil
}

func encodeManifest(e *wire.Encoder, m Manifest) {
	e.String(m.Kind)
	e.String(m.API.Name)
	e.Int32(int32(m.API.Major))
	e.Int32(int32(m.API.Minor))
	e.String(string(m.Platform))
	e.Int32(int32(m.Version.Major))
	e.Int32(int32(m.Version.Minor))
	e.Int32(int32(m.Version.Micro))
	e.Uint16(m.ProtocolVersion)
	e.String(m.PinnedURL)
	keys := make([]string, 0, len(m.Options))
	for k := range m.Options {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uint32(uint32(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.String(m.Options[k])
	}
	pkgs := append([]string(nil), m.Packages...)
	sort.Strings(pkgs)
	e.StringSlice(pkgs)
}

func decodeManifest(d *wire.Decoder) (Manifest, error) {
	var m Manifest
	m.Kind = d.String()
	m.API.Name = d.String()
	m.API.Major = int(d.Int32())
	m.API.Minor = int(d.Int32())
	m.Platform = dbver.Platform(d.String())
	m.Version.Major = int(d.Int32())
	m.Version.Minor = int(d.Int32())
	m.Version.Micro = int(d.Int32())
	m.ProtocolVersion = d.Uint16()
	m.PinnedURL = d.String()
	nOpts := d.Uint32()
	if err := d.Err(); err != nil {
		return m, fmt.Errorf("driverimg: decode manifest: %w", err)
	}
	if int64(nOpts) > int64(d.Remaining())/8 { // each option is two 4-byte length prefixes at least
		return m, fmt.Errorf("driverimg: decode manifest: option count %d exceeds remaining payload", nOpts)
	}
	if nOpts > 0 {
		m.Options = make(map[string]string, nOpts)
		for i := uint32(0); i < nOpts; i++ {
			k := d.String()
			m.Options[k] = d.String()
		}
	}
	m.Packages = d.StringSlice()
	if err := d.Err(); err != nil {
		return m, fmt.Errorf("driverimg: decode manifest: %w", err)
	}
	return m, nil
}

// canonicalBytes is the byte string covered by the signature. It costs
// an image-sized copy: for an image that exists only in memory (built,
// assembled or pre-configured, about to be signed). An encoded image is
// checksummed and verified in place by EncodedChecksum and
// VerifyEncoded.
func (img *Image) canonicalBytes() []byte {
	e := wire.NewEncoder(256 + len(img.Payload))
	encodeManifest(e, img.Manifest)
	e.Bytes32(img.Payload)
	return e.Bytes()
}

// Checksum returns the SHA-256 of the canonical encoding, hex-encoded;
// used as a cheap content identity in lease bookkeeping.
func (img *Image) Checksum() string {
	sum := sha256.Sum256(img.canonicalBytes())
	return hex.EncodeToString(sum[:])
}

// EncodedChecksum computes Checksum directly from an encoded image blob,
// without decoding it into an Image. The canonical (signed) byte range
// of an encoded image is everything between the version byte and the
// signature, so the checksum is a bounds-checked walk over the field
// length prefixes plus one hash — no manifest maps, no payload copy.
// Grant-path caches use this to checksum stored binary_code BLOBs once
// per catalog load, and the bootloader to check what it downloaded. The
// walk also validates the framing, so a blob that Decode would reject
// errors here too.
func EncodedChecksum(blob []byte) (string, error) {
	end, err := canonicalEnd(blob)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob[1:end])
	return hex.EncodeToString(sum[:]), nil
}

// VerifyEncoded is Image.Verify for an image still in its encoded
// form: the signature must be a valid ed25519 signature by pub over the
// blob's canonical byte range, which is hashed where it lies. An
// unsigned image fails verification.
func VerifyEncoded(blob []byte, pub ed25519.PublicKey) error {
	end, err := canonicalEnd(blob)
	if err != nil {
		return err
	}
	sig := blob[end+4:] // past the signature's length prefix; canonicalEnd checked it fills the rest
	if len(sig) == 0 {
		return fmt.Errorf("driverimg: image is unsigned")
	}
	if !ed25519.Verify(pub, blob[1:end], sig) {
		return fmt.Errorf("driverimg: signature verification failed")
	}
	return nil
}

// canonicalEnd walks an encoded image and returns the offset just past
// the payload (the end of the signature-covered range), validating the
// version byte and that exactly one signature field follows.
func canonicalEnd(blob []byte) (int, error) {
	if len(blob) == 0 {
		return 0, fmt.Errorf("driverimg: encoded image: empty blob")
	}
	if blob[0] != imageVersion {
		return 0, fmt.Errorf("driverimg: unsupported image version %d", blob[0])
	}
	w := fieldWalker{buf: blob, off: 1} // skip the version byte
	w.skipPrefixed()                    // Kind
	w.skipPrefixed()                    // API.Name
	w.skip(8)                           // API major/minor
	w.skipPrefixed()                    // Platform
	w.skip(12)                          // Version major/minor/micro
	w.skip(2)                           // ProtocolVersion
	w.skipPrefixed()                    // PinnedURL
	nOpts := w.count()
	for i := uint32(0); i < nOpts && w.err == nil; i++ {
		w.skipPrefixed() // option key
		w.skipPrefixed() // option value
	}
	nPkgs := w.count()
	for i := uint32(0); i < nPkgs && w.err == nil; i++ {
		w.skipPrefixed() // package name
	}
	w.skipPrefixed() // Payload
	end := w.off
	w.skipPrefixed() // Signature
	if w.err != nil {
		return 0, fmt.Errorf("driverimg: encoded image: %w", w.err)
	}
	if w.off != len(blob) {
		return 0, fmt.Errorf("driverimg: encoded image: %d trailing bytes", len(blob)-w.off)
	}
	return end, nil
}

// fieldWalker advances over wire-encoded fields without materializing
// them; errors are sticky like wire.Decoder's.
type fieldWalker struct {
	buf []byte
	off int
	err error
}

func (w *fieldWalker) skip(n int) {
	if w.err != nil {
		return
	}
	if w.off+n > len(w.buf) {
		w.err = fmt.Errorf("short buffer at offset %d", w.off)
		return
	}
	w.off += n
}

// count consumes a 4-byte element count.
func (w *fieldWalker) count() uint32 {
	if w.err != nil {
		return 0
	}
	if w.off+4 > len(w.buf) {
		w.err = fmt.Errorf("short buffer at offset %d", w.off)
		return 0
	}
	n := uint32(w.buf[w.off])<<24 | uint32(w.buf[w.off+1])<<16 |
		uint32(w.buf[w.off+2])<<8 | uint32(w.buf[w.off+3])
	w.off += 4
	return n
}

// skipPrefixed consumes one length-prefixed string/byte field. The
// length is untrusted: reject anything beyond the buffer while still
// in uint32 space, so int(n) can't go negative on 32-bit platforms and
// slide the offset backwards.
func (w *fieldWalker) skipPrefixed() {
	n := w.count()
	if w.err == nil && uint64(n) > uint64(len(w.buf)) {
		w.err = fmt.Errorf("short buffer at offset %d", w.off)
		return
	}
	w.skip(int(n))
}

// Sign signs the image with the given ed25519 private key, replacing any
// existing signature.
func (img *Image) Sign(key ed25519.PrivateKey) {
	img.Signature = ed25519.Sign(key, img.canonicalBytes())
}

// Verify checks the signature against pub. Unsigned images fail
// verification.
func (img *Image) Verify(pub ed25519.PublicKey) error {
	if len(img.Signature) == 0 {
		return fmt.Errorf("driverimg: image %s is unsigned", img.Manifest.ID())
	}
	if !ed25519.Verify(pub, img.canonicalBytes(), img.Signature) {
		return fmt.Errorf("driverimg: signature verification failed for %s", img.Manifest.ID())
	}
	return nil
}
