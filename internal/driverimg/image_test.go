package driverimg

import (
	"bytes"
	"crypto/ed25519"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/client"
	"repro/internal/dbver"
)

func testManifest() Manifest {
	return Manifest{
		Kind:            "dbms-native",
		API:             dbver.APIOf("JDBC", 3, 0),
		Platform:        dbver.PlatformLinuxAMD64,
		Version:         dbver.V(1, 4, 2),
		ProtocolVersion: 3,
		PinnedURL:       "",
		Options:         map[string]string{"fetchSize": "100", "tz": "UTC"},
		Packages:        []string{"core"},
	}
}

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	img := &Image{
		Manifest: testManifest(),
		Payload:  bytes.Repeat([]byte{0xCD}, 4096),
	}
	blob := img.Encode()
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Kind != img.Manifest.Kind ||
		got.Manifest.API != img.Manifest.API ||
		got.Manifest.Platform != img.Manifest.Platform ||
		got.Manifest.Version != img.Manifest.Version ||
		got.Manifest.ProtocolVersion != img.Manifest.ProtocolVersion {
		t.Fatalf("manifest mismatch: %+v vs %+v", got.Manifest, img.Manifest)
	}
	if got.Manifest.Options["fetchSize"] != "100" || got.Manifest.Options["tz"] != "UTC" {
		t.Errorf("options = %v", got.Manifest.Options)
	}
	if len(got.Manifest.Packages) != 1 || got.Manifest.Packages[0] != "core" {
		t.Errorf("packages = %v", got.Manifest.Packages)
	}
	if !bytes.Equal(got.Payload, img.Payload) {
		t.Error("payload mismatch")
	}
	if got.Checksum() != img.Checksum() {
		t.Error("checksum changed across round trip")
	}
}

func TestImageDecodeGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("expected error on nil blob")
	}
	if _, err := Decode([]byte{99, 1, 2, 3}); err == nil {
		t.Fatal("expected error on bad version")
	}
	img := &Image{Manifest: testManifest()}
	blob := img.Encode()
	if _, err := Decode(blob[:len(blob)-2]); err == nil {
		t.Fatal("expected error on truncated blob")
	}
}

func TestSignVerify(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	img := &Image{Manifest: testManifest(), Payload: []byte("driver body")}

	if err := img.Verify(pub); err == nil {
		t.Fatal("unsigned image must fail verification")
	}
	img.Sign(priv)
	if err := img.Verify(pub); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	// Signature survives encode/decode.
	got, err := Decode(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(pub); err != nil {
		t.Fatalf("Verify after round trip: %v", err)
	}

	// Tampering with the payload invalidates the signature.
	got.Payload[0] ^= 0xFF
	if err := got.Verify(pub); err == nil {
		t.Fatal("tampered image must fail verification")
	}

	// Tampering with the manifest invalidates the signature too.
	got2, _ := Decode(img.Encode())
	got2.Manifest.PinnedURL = "dbms://evil:1/db"
	if err := got2.Verify(pub); err == nil {
		t.Fatal("manifest-tampered image must fail verification")
	}

	// Wrong key fails.
	otherPub, _, _ := ed25519.GenerateKey(nil)
	got3, _ := Decode(img.Encode())
	if err := got3.Verify(otherPub); err == nil {
		t.Fatal("wrong key must fail verification")
	}
}

func TestChecksumIdentity(t *testing.T) {
	a := &Image{Manifest: testManifest(), Payload: []byte("x")}
	b := &Image{Manifest: testManifest(), Payload: []byte("x")}
	if a.Checksum() != b.Checksum() {
		t.Error("identical images must share a checksum")
	}
	b.Payload = []byte("y")
	if a.Checksum() == b.Checksum() {
		t.Error("different payloads must differ in checksum")
	}
	// Signature does not affect content identity.
	_, priv, _ := ed25519.GenerateKey(nil)
	c := &Image{Manifest: testManifest(), Payload: []byte("x")}
	c.Sign(priv)
	if a.Checksum() != c.Checksum() {
		t.Error("signing must not change the checksum")
	}
}

func TestManifestRoundTripProperty(t *testing.T) {
	prop := func(kind, pin string, maj, min uint8, proto uint16, payload []byte) bool {
		img := &Image{
			Manifest: Manifest{
				Kind:            kind,
				API:             dbver.APIOf("JDBC", int(maj), int(min)),
				Version:         dbver.V(int(maj), int(min), 0),
				ProtocolVersion: proto,
				PinnedURL:       pin,
			},
			Payload: payload,
		}
		got, err := Decode(img.Encode())
		if err != nil {
			return false
		}
		return got.Manifest.Kind == kind &&
			got.Manifest.PinnedURL == pin &&
			got.Manifest.ProtocolVersion == proto &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fakeDriver records the URL/props it is asked to connect with.
type fakeDriver struct {
	name     string
	lastURL  string
	lastProp client.Props
}

func (f *fakeDriver) Name() string           { return f.name }
func (f *fakeDriver) Version() dbver.Version { return dbver.V(1, 0, 0) }
func (f *fakeDriver) Connect(url string, p client.Props) (client.Conn, error) {
	f.lastURL = url
	f.lastProp = p
	return nil, nil
}

func TestRuntimeLoad(t *testing.T) {
	rt := NewRuntime()
	fd := &fakeDriver{name: "fake"}
	rt.Register("dbms-native", func(img *Image) (client.Driver, error) {
		return WrapDriver(fd, img), nil
	})

	img := &Image{Manifest: testManifest()}
	drv, err := rt.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if drv.Name() != "dbms-native" {
		t.Errorf("Name = %q", drv.Name())
	}
	if drv.Version() != dbver.V(1, 4, 2) {
		t.Errorf("Version = %v", drv.Version())
	}

	// Unknown kind is the ClassNotFoundException analog.
	img2 := &Image{Manifest: Manifest{Kind: "no-such-kind"}}
	if _, err := rt.Load(img2); err == nil || !strings.Contains(err.Error(), "no factory") {
		t.Fatalf("err = %v", err)
	}
}

func TestRuntimeLoadBytes(t *testing.T) {
	rt := NewRuntime()
	rt.Register("dbms-native", func(img *Image) (client.Driver, error) {
		return WrapDriver(&fakeDriver{name: "fake"}, img), nil
	})
	img := &Image{Manifest: testManifest(), Payload: []byte("body")}
	decoded, err := Decode(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	drv, err := rt.Load(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if drv == nil || decoded.Checksum() != img.Checksum() {
		t.Fatal("Decode and Load did not round-trip the image")
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestManifestDriverPinnedURLAndOptions(t *testing.T) {
	fd := &fakeDriver{name: "fake"}
	man := testManifest()
	man.PinnedURL = "dbms://master:9001/prod"
	man.Options = map[string]string{"a": "manifest", "b": "manifest"}
	drv := WrapDriver(fd, &Image{Manifest: man})

	_, err := drv.Connect("dbms://whatever:1/ignored", client.Props{"b": "app", "c": "app"})
	if err != nil {
		t.Fatal(err)
	}
	if fd.lastURL != "dbms://master:9001/prod" {
		t.Errorf("pinned URL not applied: %q", fd.lastURL)
	}
	// Application props override manifest defaults.
	if fd.lastProp["a"] != "manifest" || fd.lastProp["b"] != "app" || fd.lastProp["c"] != "app" {
		t.Errorf("props = %v", fd.lastProp)
	}
}

func TestAssembly(t *testing.T) {
	ps := NewPackageStore()
	ps.AddPackage("nls-fr", []byte("bonjour"), map[string]string{"locale": "fr"})
	ps.AddPackage("gis", []byte("geometry"), nil)
	ps.AddPackage("kerberos", []byte("tickets"), map[string]string{"auth": "krb5"})

	base := &Image{Manifest: testManifest(), Payload: []byte("base")}
	out, err := ps.Assemble(base, "gis", "nls-fr")
	if err != nil {
		t.Fatal(err)
	}
	// Sorted package order: gis, nls-fr appended after base payload.
	if want := "base" + "geometry" + "bonjour"; string(out.Payload) != want {
		t.Errorf("payload = %q, want %q", out.Payload, want)
	}
	if out.Manifest.Options["locale"] != "fr" {
		t.Errorf("options = %v", out.Manifest.Options)
	}
	if !out.Manifest.HasPackage("gis") || !out.Manifest.HasPackage("nls-fr") || !out.Manifest.HasPackage("core") {
		t.Errorf("packages = %v", out.Manifest.Packages)
	}
	// Base untouched.
	if string(base.Payload) != "base" || len(base.Manifest.Packages) != 1 {
		t.Error("Assemble mutated the base image")
	}
	// Unknown package is an error.
	if _, err := ps.Assemble(base, "no-such-pkg"); err == nil {
		t.Fatal("expected unknown-package error")
	}
	// Duplicate of an already included package is a no-op.
	out2, err := ps.Assemble(out, "gis")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2.Payload, out.Payload) {
		t.Error("re-adding an included package must not grow the payload")
	}
}

// TestEncodedChecksumMatchesDecode: the blob-walking checksum must be
// byte-identical to the decode-then-Checksum path for every image
// shape, including signed images, empty payloads, and nil option maps.
func TestEncodedChecksumMatchesDecode(t *testing.T) {
	_, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	images := []*Image{
		{Manifest: testManifest(), Payload: bytes.Repeat([]byte{0xCD}, 4096)},
		{Manifest: Manifest{Kind: "dbms-native", API: dbver.AnyVersionAPI("ODBC")}},
		{Manifest: Manifest{Kind: "sequoia", PinnedURL: "dbms://h1,h2/prod",
			Packages: []string{"nls", "gis", "kerberos"}}},
	}
	images = append(images, &Image{Manifest: testManifest(), Payload: []byte("signed")})
	images[len(images)-1].Sign(priv)

	for i, img := range images {
		blob := img.Encode()
		got, err := EncodedChecksum(blob)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if want := img.Checksum(); got != want {
			t.Errorf("image %d: EncodedChecksum = %s, Checksum = %s", i, got, want)
		}
	}
}

// TestEncodedChecksumRejectsGarbage: the walk validates framing like
// Decode does — corrupt blobs must error, not hash garbage.
func TestEncodedChecksumRejectsGarbage(t *testing.T) {
	if _, err := EncodedChecksum(nil); err == nil {
		t.Error("nil blob must error")
	}
	if _, err := EncodedChecksum([]byte{99}); err == nil {
		t.Error("bad version byte must error")
	}
	img := &Image{Manifest: testManifest(), Payload: []byte("body")}
	blob := img.Encode()
	if _, err := EncodedChecksum(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob must error")
	}
	if _, err := EncodedChecksum(append(blob, 0)); err == nil {
		t.Error("trailing bytes must error")
	}
}
