package driverimg

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"reflect"
	"testing"
)

// canonicalEnd runs blob through a Verifier in one write and returns
// the offset just past the payload, the end of the canonical range, or
// the framing error Close reports.
func canonicalEnd(blob []byte) (int, error) {
	v := NewVerifier(len(blob), nil)
	_, _ = v.Write(blob)
	if _, err := v.Close(); err != nil {
		return 0, err
	}
	return v.end, nil
}

// VerifyEncoded is the install check on a whole blob: one write
// through a Verifier that checks the signature against pub, the
// verdict a bootloader reaches on the image as it streams in.
func VerifyEncoded(blob []byte, pub ed25519.PublicKey) (string, error) {
	v := NewVerifier(len(blob), pub)
	_, _ = v.Write(blob)
	if _, err := v.Close(); err != nil {
		return "", err
	}
	return v.Sum()
}

// verdict is what one reading of an encoded image concludes: whether
// its framing holds, with the manifest it carries, and whether it
// verifies, with its checksum.
type verdict struct {
	framed   bool
	manifest Manifest
	verified bool
	sum      string
}

// wholeVerdict reads blob the way the install path did before it
// streamed: Decode, then VerifyEncoded.
func wholeVerdict(blob []byte) verdict {
	pub, _ := testKey()
	img, err := Decode(blob)
	if err != nil {
		return verdict{}
	}
	sum, err := VerifyEncoded(blob, pub)
	return verdict{framed: true, manifest: img.Manifest, verified: err == nil, sum: sum}
}

// streamVerdict feeds blob to a Verifier held to its size, in writes
// ending at the given cut offsets.
func streamVerdict(t *testing.T, blob []byte, cuts []int) verdict {
	t.Helper()
	pub, _ := testKey()
	v := NewVerifier(len(blob), pub)
	from := 0
	for _, to := range append(cuts, len(blob)) {
		if n, err := v.Write(blob[from:to]); err == nil && n != to-from {
			t.Fatalf("Write took %d of %d bytes and returned no error", n, to-from)
		}
		from = to
	}
	img, err := v.Close()
	if err != nil {
		return verdict{}
	}
	if img.Payload != nil || img.Signature != nil {
		t.Fatal("the streamed image kept its payload or signature")
	}
	sum, err := v.Sum()
	if err != nil {
		sum = ""
	}
	return verdict{framed: true, manifest: img.Manifest, verified: err == nil, sum: sum}
}

// byteCuts cuts blob into 1-byte writes.
func byteCuts(blob []byte) []int {
	cuts := make([]int, 0, len(blob))
	for i := 1; i < len(blob); i++ {
		cuts = append(cuts, i)
	}
	return cuts
}

// randomCuts cuts blob into writes of random sizes, empty ones included.
func randomCuts(rng *rand.Rand, blob []byte) []int {
	var cuts []int
	for at := 0; at < len(blob); {
		at += rng.Intn(min(len(blob)-at, 64) + 1)
		cuts = append(cuts, at)
	}
	return cuts
}

func checkSplits(t *testing.T, name string, blob []byte, want verdict, cuts []int) {
	t.Helper()
	if got := streamVerdict(t, blob, cuts); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, writes ending at %v:\nstream %+v\n whole %+v", name, cuts, got, want)
	}
}

// TestVerifierMatchesDecodeAtEverySplit: the stream reaches the
// verdict of Decode and VerifyEncoded on the whole blob — framing,
// manifest, signature and checksum — however the image is cut into
// writes. Each good, unsigned and retired image is fed at every
// two-way split and a byte at a time; every bit flip, truncation and
// trailing extension of it a byte at a time and in random writes.
func TestVerifierMatchesDecodeAtEverySplit(t *testing.T) {
	body := []byte("driver body")
	rng := rand.New(rand.NewSource(1))
	for name, blob := range map[string][]byte{
		"v2":       signedBlob(body),
		"v1":       signedV1Blob(testManifest(), body),
		"unsigned": (&Image{Manifest: testManifest(), Payload: body}).Encode(),
		"bare":     (&Image{Manifest: Manifest{Kind: "k"}}).Encode(),
	} {
		want := wholeVerdict(blob)
		if want.verified != (name == "v2") {
			t.Fatalf("%s image: whole-blob verdict %+v", name, want)
		}
		for at := 0; at <= len(blob); at++ {
			checkSplits(t, name, blob, want, []int{at})
		}
		checkSplits(t, name, blob, want, byteCuts(blob))
		for _, m := range mutations(blob) {
			want := wholeVerdict(m)
			checkSplits(t, name+" mutation", m, want, byteCuts(m))
			checkSplits(t, name+" mutation", m, want, randomCuts(rng, m))
		}
	}
}

// TestVerifierHeldToItsSize: a stream that stops short of the size it
// was offered, or runs past it, fails however its bytes were framed.
func TestVerifierHeldToItsSize(t *testing.T) {
	blob := signedBlob([]byte("driver body"))
	for n := 0; n < len(blob); n++ {
		v := NewVerifier(len(blob), nil)
		_, _ = v.Write(blob[:n])
		if _, err := v.Close(); err == nil {
			t.Fatalf("%d of %d bytes passed Close", n, len(blob))
		}
	}
	v := NewVerifier(len(blob)-1, nil)
	if _, err := v.Write(blob); err == nil {
		t.Fatal("a write past the offered size was taken")
	}
	if _, err := v.Close(); err == nil {
		t.Fatal("Close after an overrun passed")
	}
}

// TestVerifierKeepsNoImage: whatever the image size, a Verifier holds
// a small head and one signature, never the payload it hashed.
func TestVerifierKeepsNoImage(t *testing.T) {
	blob := signedBlob(bytes.Repeat([]byte{0x5A}, 1<<20))
	v := NewVerifier(len(blob), nil)
	for at := 0; at < len(blob); at += 4096 {
		if _, err := v.Write(blob[at:min(at+4096, len(blob))]); err != nil {
			t.Fatal(err)
		}
		if cap(v.head) > 4096 {
			t.Fatalf("the head buffer holds %d bytes at offset %d", cap(v.head), at)
		}
	}
	if _, err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if v.head != nil {
		t.Fatal("the head buffer outlived the head")
	}
}

// FuzzVerifierSplits holds the stream to the whole-blob readers on
// arbitrary bytes cut into arbitrary writes: the same framing verdict,
// manifest, signature verdict and checksum as Decode and VerifyEncoded.
func FuzzVerifierSplits(f *testing.F) {
	signed := signedBlob([]byte("driver body"))
	f.Add(signed, int64(1))
	f.Add(signedV1Blob(testManifest(), []byte("driver body")), int64(2))
	f.Add((&Image{Manifest: testManifest()}).Encode(), int64(3))
	f.Add(signed[:len(signed)/2], int64(4))
	f.Add(append(bytes.Clone(signed), 0), int64(5))
	f.Add([]byte{}, int64(6))
	f.Add([]byte{imageVersion}, int64(7))
	f.Add(append(append([]byte{imageVersion}, make([]byte, 38)...), 0xFF, 0xFF, 0xFF, 0xFF), int64(8))
	f.Fuzz(func(t *testing.T, blob []byte, seed int64) {
		want := wholeVerdict(blob)
		checkSplits(t, "fuzz", blob, want, randomCuts(rand.New(rand.NewSource(seed)), blob))
		if len(blob) <= 512 {
			checkSplits(t, "fuzz", blob, want, byteCuts(blob))
		}
	})
}
