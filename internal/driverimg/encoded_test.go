package driverimg

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/dbver"
	"repro/internal/wire"
)

// testKey is a fixed key pair, so the signed images of the fuzz seed
// corpus verify on every run.
func testKey() (ed25519.PublicKey, ed25519.PrivateKey) {
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))
	return priv.Public().(ed25519.PublicKey), priv
}

func signedBlob(payload []byte) []byte {
	_, priv := testKey()
	img := &Image{Manifest: testManifest(), Payload: payload}
	img.Sign(priv)
	return img.Encode()
}

// signedV1Blob hand-builds what the version-1 writer produced: the same
// layout under version byte 1, signed over the canonical bytes
// themselves rather than over signedMessage.
func signedV1Blob(m Manifest, payload []byte) []byte {
	_, priv := testKey()
	e := wire.NewEncoder(64)
	encodeManifest(e, m)
	e.Bytes32(payload)
	canon := e.Bytes()
	sig := ed25519.Sign(priv, canon)
	blob := append([]byte{imageVersionV1}, canon...)
	blob = binary.BigEndian.AppendUint32(blob, uint32(len(sig)))
	return append(blob, sig...)
}

// Golden encodings of one small image, Manifest{Kind: "k", Version:
// 1.0.0} with payload "p", signed by testKey (ed25519 signatures are
// deterministic): as the writer emits it, and as the version-1 writer
// did.
const (
	goldenV2 = "02000000016b0000000000000000000000000000000000000001000000000000000000000000000000000000000000000000000170000000401a30208bddfb332236f0d052874307ccc3538994c360aba52c9c551550564a1ca3011f678677a4f0b327ed682c1e8968e96c7a119387167defc5437f5a324e0d"
	goldenV1 = "01000000016b00000000000000000000000000000000000000010000000000000000000000000000000000000000000000000001700000004097910a3034a17fac078c7c50d98765fea1655709b37539cce2de8cb3cebdd456cd36e638b186a862c79be24943a4d19ed50fa69fd1a5372295ce69c38ab42406"
)

// TestImageGoldenBytes pins both formats' bytes. They differ only in
// the version byte and the signature value, both install (Decode, then
// VerifyEncoded) with the same checksum, and both verify decoded.
func TestImageGoldenBytes(t *testing.T) {
	pub, priv := testKey()
	m := Manifest{Kind: "k", Version: dbver.V(1, 0, 0)}
	img := &Image{Manifest: m, Payload: []byte("p")}
	img.Sign(priv)
	built := map[string][]byte{"v2": img.Encode(), "v1": signedV1Blob(m, []byte("p"))}
	for name, want := range map[string]string{"v2": goldenV2, "v1": goldenV1} {
		if got := hex.EncodeToString(built[name]); got != want {
			t.Errorf("%s encoding changed:\n got %s\nwant %s", name, got, want)
		}
		blob, err := hex.DecodeString(want)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if sum, err := VerifyEncoded(blob, pub); err != nil || sum != img.Checksum() {
			t.Fatalf("%s: install: checksum %s, %v; want %s", name, sum, err, img.Checksum())
		}
		if err := dec.Verify(pub); err != nil {
			t.Fatalf("%s: Decode+Verify: %v", name, err)
		}
		if !bytes.Equal(dec.Encode()[1:], blob[1:]) {
			t.Fatalf("%s: re-encoding the decoded image changed its bytes", name)
		}
	}
	v1, v2 := built["v1"], built["v2"]
	unsigned := func(b []byte) []byte { return b[1 : len(b)-ed25519.SignatureSize] }
	if len(v1) != len(v2) || v1[0] == v2[0] || !bytes.Equal(unsigned(v1), unsigned(v2)) {
		t.Fatal("v1 and v2 encodings differ beyond the version byte and the signature value")
	}
}

// TestSignatureBoundToVersion: a signature is valid only under the
// version byte it was made for, and only for its own key.
func TestSignatureBoundToVersion(t *testing.T) {
	pub, _ := testKey()
	otherPub := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{8}, ed25519.SeedSize)).Public().(ed25519.PublicKey)
	body := []byte("driver body")
	v2, v1 := signedBlob(body), signedV1Blob(testManifest(), body)
	relabel := func(blob []byte, v byte) []byte {
		blob = bytes.Clone(blob)
		blob[0] = v
		return blob
	}
	for name, blob := range map[string][]byte{
		"v1 signature under a v2 byte": relabel(v1, imageVersion),
		"v2 signature under a v1 byte": relabel(v2, imageVersionV1),
	} {
		if _, err := VerifyEncoded(blob, pub); err == nil {
			t.Errorf("%s: VerifyEncoded accepted it", name)
		}
		img, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if img.Verify(pub) == nil {
			t.Errorf("%s: Decode+Verify accepted it", name)
		}
	}
	for name, blob := range map[string][]byte{"v1": v1, "v2": v2} {
		if _, err := VerifyEncoded(blob, otherPub); err == nil {
			t.Errorf("%s: another key's verification accepted it", name)
		}
	}
}

// TestDecodeAliasesBlobClipped: Decode hands out views of the blob, not
// copies — and each view's capacity ends where its field ends, so an
// append to the payload reallocates instead of running over the
// signature that follows it in the blob.
func TestDecodeAliasesBlobClipped(t *testing.T) {
	blob := signedBlob([]byte("driver body"))
	pristine := bytes.Clone(blob)
	img, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	end, err := canonicalEnd(blob)
	if err != nil {
		t.Fatal(err)
	}
	if &img.Payload[0] != &blob[end-len(img.Payload)] || &img.Signature[0] != &blob[end+4] {
		t.Fatal("Decode copied the payload or the signature out of the blob")
	}
	if cap(img.Payload) != len(img.Payload) || cap(img.Signature) != len(img.Signature) {
		t.Fatalf("views not capacity-clipped: payload %d/%d, signature %d/%d",
			len(img.Payload), cap(img.Payload), len(img.Signature), cap(img.Signature))
	}
	grown := append(img.Payload, bytes.Repeat([]byte{0xEE}, 80)...)
	if &grown[0] == &img.Payload[0] {
		t.Fatal("append to the payload view grew in place")
	}
	if !bytes.Equal(blob, pristine) {
		t.Fatal("append to the payload view wrote into the blob (the signature lies right behind it)")
	}
}

// TestRewritesLeaveSourceBlobUntouched: everything the server does to
// a decoded base image — assembly, signing, re-encoding — replaces the
// image's slices and never writes through them into the blob they came
// from, which on the embedded store is the stored binary_code itself.
func TestRewritesLeaveSourceBlobUntouched(t *testing.T) {
	blob := signedBlob(bytes.Repeat([]byte{0xAB}, 512))
	pristine := bytes.Clone(blob)
	_, priv := testKey()

	ps := NewPackageStore()
	ps.AddPackage("gis", []byte("gis code"), map[string]string{"srid": "4326"})
	base, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ps.Assemble(base, "gis")
	if err != nil {
		t.Fatal(err)
	}
	out.Sign(priv)
	out.Encode()
	base.Sign(priv) // re-signing the decoded base itself
	base.Encode()
	base.Checksum()
	if !bytes.Equal(blob, pristine) {
		t.Fatal("a rewrite of the decoded image wrote into its source blob")
	}
}

// mutations is the corruption corpus the encoded-form checks are held
// to: every single-bit flip, every truncation, and trailing bytes.
func mutations(blob []byte) [][]byte {
	var out [][]byte
	for i := range blob {
		for bit := 0; bit < 8; bit++ {
			m := bytes.Clone(blob)
			m[i] ^= 1 << bit
			out = append(out, m)
		}
	}
	for n := 0; n < len(blob); n++ {
		out = append(out, bytes.Clone(blob[:n]))
	}
	out = append(out, append(bytes.Clone(blob), 0), append(bytes.Clone(blob), blob...))
	return out
}

// TestVerifyEncodedMatchesDecodeVerify: verifying the encoded form
// gives the verdict of decoding and verifying the image, on good images
// of both versions and over the whole corruption corpus of each — so a
// flipped bit anywhere, version byte and length prefixes included,
// fails the install.
func TestVerifyEncodedMatchesDecodeVerify(t *testing.T) {
	pub, _ := testKey()
	body := []byte("driver body")
	for name, blob := range map[string][]byte{
		"v2":       signedBlob(body),
		"v1":       signedV1Blob(testManifest(), body),
		"unsigned": (&Image{Manifest: testManifest(), Payload: body}).Encode(),
	} {
		if _, err := VerifyEncoded(blob, pub); (err == nil) != (name != "unsigned") {
			t.Fatalf("%s image: VerifyEncoded %v", name, err)
		}
		accepted := 0
		for i, m := range mutations(blob) {
			want := false
			if img, err := Decode(m); err == nil {
				want = img.Verify(pub) == nil
			}
			_, err := VerifyEncoded(m, pub)
			if got := err == nil; got != want {
				t.Fatalf("%s mutation %d: VerifyEncoded accepts=%v, Decode+Verify accepts=%v", name, i, got, want)
			} else if got {
				accepted++
			}
		}
		if accepted != 0 {
			t.Fatalf("%s: %d corrupted images verified", name, accepted)
		}
	}
}

// FuzzEncodedImage holds the four readers of the encoded form to one
// another on arbitrary bytes: none panics, they agree on whether the
// framing is valid, and on a canonically encoded image the in-place
// checksum and signature check give the answers of the decoded image.
// The seed corpus runs as part of plain `go test`.
func FuzzEncodedImage(f *testing.F) {
	pub, _ := testKey()
	signed := signedBlob([]byte("driver body"))
	signedV1 := signedV1Blob(testManifest(), []byte("driver body"))
	f.Add(signed)
	f.Add(signedV1)
	f.Add(append([]byte{imageVersion}, signedV1[1:]...))
	f.Add(append([]byte{imageVersionV1}, signed[1:]...))
	f.Add(signedV1[:len(signedV1)-1])
	f.Add((&Image{Manifest: testManifest()}).Encode())
	f.Add((&Image{Manifest: Manifest{Kind: "k"}, Payload: []byte{1, 2, 3}}).Encode())
	f.Add(signed[:len(signed)/2])
	f.Add(append(bytes.Clone(signed), 0))
	f.Add([]byte{})
	f.Add([]byte{imageVersion})
	f.Add([]byte{imageVersionV1})
	f.Add([]byte{99, 0, 0, 0, 0})
	// An empty manifest up to the option count, which claims 2^32-1
	// options: Decode must refuse it, not size a map for it.
	f.Add(append(append([]byte{imageVersion}, make([]byte, 38)...), 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, blob []byte) {
		end, endErr := canonicalEnd(blob)
		img, decErr := Decode(blob)
		sum, sumErr := EncodedChecksum(blob)
		verSum, verErr := VerifyEncoded(blob, pub)
		if (endErr == nil) != (decErr == nil) || (endErr == nil) != (sumErr == nil) {
			t.Fatalf("framing verdicts differ: canonicalEnd %v, Decode %v, EncodedChecksum %v", endErr, decErr, sumErr)
		}
		if endErr != nil {
			if verErr == nil {
				t.Fatal("VerifyEncoded accepted a blob with invalid framing")
			}
			return
		}
		if end < 1 || end+4 > len(blob) {
			t.Fatalf("canonical range [1:%d) does not leave room for the signature in %d bytes", end, len(blob))
		}
		if cap(img.Payload) != len(img.Payload) || cap(img.Signature) != len(img.Signature) {
			t.Fatal("decoded views are not capacity-clipped")
		}
		if verErr == nil && verSum != sum {
			t.Fatalf("VerifyEncoded checksum %s, EncodedChecksum %s", verSum, sum)
		}
		if !bytes.Equal(img.Encode()[1:], blob[1:]) {
			// Valid framing, but not what Encode would have written
			// (unsorted or repeated options): the two forms hash
			// different bytes and no agreement is promised. (A
			// version-1 image re-encodes as version 2: the version byte
			// is not hashed.)
			return
		}
		if want := img.Checksum(); sum != want {
			t.Fatalf("EncodedChecksum = %s, Checksum = %s", sum, want)
		}
		if (verErr == nil) != (img.Verify(pub) == nil) {
			t.Fatalf("VerifyEncoded: %v, Decode+Verify: %v", verErr, img.Verify(pub))
		}
	})
}
