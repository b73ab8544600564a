package driverimg

import (
	"bytes"
	"crypto/ed25519"
	"testing"
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
// and over the whole corruption corpus.
func TestVerifyEncodedMatchesDecodeVerify(t *testing.T) {
	pub, _ := testKey()
	otherPub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	signed := signedBlob([]byte("driver body"))
	unsigned := (&Image{Manifest: testManifest(), Payload: []byte("driver body")}).Encode()

	if err := VerifyEncoded(signed, pub); err != nil {
		t.Fatalf("signed image: %v", err)
	}
	if err := VerifyEncoded(signed, otherPub); err == nil {
		t.Fatal("wrong key must fail verification")
	}
	if err := VerifyEncoded(unsigned, pub); err == nil {
		t.Fatal("unsigned image must fail verification")
	}

	accepted := 0
	corpus := append(mutations(signed), mutations(unsigned)...)
	for i, blob := range corpus {
		want := false
		if img, err := Decode(blob); err == nil {
			want = img.Verify(pub) == nil
		}
		got := VerifyEncoded(blob, pub) == nil
		if got != want {
			t.Fatalf("mutation %d: VerifyEncoded accepts=%v, Decode+Verify accepts=%v", i, got, want)
		}
		if got {
			accepted++
		}
	}
	if accepted != 0 {
		t.Fatalf("%d corrupted images verified", accepted)
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
	f.Add(signed)
	f.Add((&Image{Manifest: testManifest()}).Encode())
	f.Add((&Image{Manifest: Manifest{Kind: "k"}, Payload: []byte{1, 2, 3}}).Encode())
	f.Add(signed[:len(signed)/2])
	f.Add(append(bytes.Clone(signed), 0))
	f.Add([]byte{})
	f.Add([]byte{imageVersion})
	f.Add([]byte{99, 0, 0, 0, 0})
	// An empty manifest up to the option count, which claims 2^32-1
	// options: Decode must refuse it, not size a map for it.
	f.Add(append(append([]byte{imageVersion}, make([]byte, 38)...), 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, blob []byte) {
		end, endErr := canonicalEnd(blob)
		img, decErr := Decode(blob)
		sum, sumErr := EncodedChecksum(blob)
		verErr := VerifyEncoded(blob, pub)
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
		if !bytes.Equal(img.Encode(), blob) {
			// Valid framing, but not what Encode would have written
			// (unsorted or repeated options): the two forms hash
			// different bytes and no agreement is promised.
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
