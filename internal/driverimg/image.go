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
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/dbver"
	"repro/internal/wire"
)

// imageVersion is the format Encode writes. Version 2 has version 1's
// byte layout and changes only what the signature covers
// (signedMessage). Version 1 images — .img files an older drivoctl
// build wrote, rows an external store still holds — are read, verified
// and installed, never written.
const (
	imageVersion   = 2
	imageVersionV1 = 1
)

// sigDomain opens every version-2 signed message, so an image
// signature cannot pass for a signature over anything else.
const sigDomain = "drivolution-image\x00"

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
	// Signature is an ed25519 signature over signedMessage, which
	// commits to the canonical encoding of (manifest, payload); empty for
	// unsigned images.
	Signature []byte

	// version is the format Signature was made under: set by Decode and
	// Sign, zero (imageVersion) for an image built in memory.
	version byte
}

// Encode serializes the image into the BLOB stored in binary_code, in
// format version 2. A version-1 signature does not verify under it: an
// image decoded from a version-1 blob needs Sign before it is
// re-encoded.
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
	if _, err := canonicalEnd(blob); err != nil { // version and framing
		return nil, err
	}
	d := wire.NewDecoder(blob[1:])
	m, err := decodeManifest(d)
	if err != nil {
		return nil, err
	}
	return &Image{Manifest: m, Payload: d.Bytes32View(), Signature: d.Bytes32View(), version: blob[0]}, nil
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

// digest streams the canonical encoding — the manifest, then the
// length-prefixed payload — through SHA-256 and returns its length and
// hash, without building it: an image that exists only in memory
// (built, assembled, pre-configured) costs no image-sized copy. An
// encoded image is hashed where it lies, by EncodedChecksum and
// VerifyEncoded.
func (img *Image) digest() (int, [sha256.Size]byte) {
	e := wire.NewEncoder(256)
	encodeManifest(e, img.Manifest)
	e.Uint32(uint32(len(img.Payload)))
	h := sha256.New()
	h.Write(e.Bytes())
	h.Write(img.Payload)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return len(e.Bytes()) + len(img.Payload), sum
}

// signedMessage is what a version-2 signature covers: sigDomain, the
// version byte, the canonical range's length and its SHA-256. The
// digest commits to every canonical byte, so the signature covers
// exactly what version 1's did (the canonical bytes themselves); the
// bytes are hashed once instead of twice, and that one hash is also the
// checksum.
func signedMessage(n int, sum *[sha256.Size]byte) []byte {
	msg := make([]byte, 0, len(sigDomain)+1+8+sha256.Size)
	msg = append(msg, sigDomain...)
	msg = append(msg, imageVersion)
	msg = binary.BigEndian.AppendUint64(msg, uint64(n))
	return append(msg, sum[:]...)
}

// Checksum returns the SHA-256 of the canonical encoding, hex-encoded;
// used as a cheap content identity in lease bookkeeping.
func (img *Image) Checksum() string {
	_, sum := img.digest()
	return hex.EncodeToString(sum[:])
}

// EncodedChecksum computes Checksum directly from an encoded image blob,
// without decoding it into an Image. The canonical (signed) byte range
// of an encoded image is everything between the version byte and the
// signature, so the checksum is a bounds-checked walk over the field
// length prefixes plus one hash — no manifest maps, no payload copy.
// Grant-path caches use this to checksum stored binary_code BLOBs once
// per catalog load. The walk also validates the framing, so a blob that
// Decode would reject errors here too.
func EncodedChecksum(blob []byte) (string, error) {
	end, err := canonicalEnd(blob)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob[1:end])
	return hex.EncodeToString(sum[:]), nil
}

// VerifyEncoded is the install check: it returns the blob's Checksum
// once the signature is a valid ed25519 signature by pub over what the
// blob's version covers, hashing the canonical byte range once, where
// it lies. An unsigned image fails verification.
func VerifyEncoded(blob []byte, pub ed25519.PublicKey) (string, error) {
	end, err := canonicalEnd(blob)
	if err != nil {
		return "", err
	}
	sig := blob[end+4:] // past the signature's length prefix; canonicalEnd checked it fills the rest
	if len(sig) == 0 {
		return "", fmt.Errorf("driverimg: image is unsigned")
	}
	canon := blob[1:end]
	sum := sha256.Sum256(canon)
	msg := canon // version 1 signed the canonical bytes themselves
	if blob[0] != imageVersionV1 {
		msg = signedMessage(len(canon), &sum)
	}
	if !ed25519.Verify(pub, msg, sig) {
		return "", fmt.Errorf("driverimg: signature verification failed")
	}
	return hex.EncodeToString(sum[:]), nil
}

// canonicalEnd walks an encoded image and returns the offset just past
// the payload (the end of the signature-covered range), validating the
// version byte and that exactly one signature field follows. Fields are
// stepped over as views: nothing is copied or allocated.
func canonicalEnd(blob []byte) (int, error) {
	if len(blob) == 0 {
		return 0, fmt.Errorf("driverimg: encoded image: empty blob")
	}
	if blob[0] != imageVersion && blob[0] != imageVersionV1 {
		return 0, fmt.Errorf("driverimg: unsupported image version %d", blob[0])
	}
	d := wire.NewDecoder(blob[1:])
	d.Bytes32View() // Kind
	d.Bytes32View() // API.Name
	d.Uint64()      // API major/minor
	d.Bytes32View() // Platform
	d.Uint64()      // Version major/minor
	d.Uint32()      // Version micro
	d.Uint16()      // ProtocolVersion
	d.Bytes32View() // PinnedURL
	for n := d.Uint32(); n > 0 && d.Err() == nil; n-- {
		d.Bytes32View() // option key
		d.Bytes32View() // option value
	}
	for n := d.Uint32(); n > 0 && d.Err() == nil; n-- {
		d.Bytes32View() // package name
	}
	d.Bytes32View() // Payload
	end := len(blob) - d.Remaining()
	d.Bytes32View() // Signature
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("driverimg: encoded image: %w", err)
	}
	if n := d.Remaining(); n != 0 {
		return 0, fmt.Errorf("driverimg: encoded image: %d trailing bytes", n)
	}
	return end, nil
}

// Sign signs the image with the given ed25519 private key, replacing any
// existing signature with a version-2 one.
func (img *Image) Sign(key ed25519.PrivateKey) {
	n, sum := img.digest()
	img.Signature = ed25519.Sign(key, signedMessage(n, &sum))
	img.version = imageVersion
}

// Verify checks the signature against pub. Unsigned images fail
// verification.
func (img *Image) Verify(pub ed25519.PublicKey) error {
	if len(img.Signature) == 0 {
		return fmt.Errorf("driverimg: image %s is unsigned", img.Manifest.ID())
	}
	var ok bool
	if img.version == imageVersionV1 {
		// A version-1 signature covers the canonical bytes themselves,
		// which only an encoding materializes.
		blob := img.Encode()
		blob[0] = imageVersionV1
		_, err := VerifyEncoded(blob, pub)
		ok = err == nil
	} else {
		n, sum := img.digest()
		ok = ed25519.Verify(pub, signedMessage(n, &sum), img.Signature)
	}
	if !ok {
		return fmt.Errorf("driverimg: signature verification failed for %s", img.Manifest.ID())
	}
	return nil
}
