package core

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/wire"
)

// TestBootstrapAllocBytes pins what the transfer path allocates, so a
// copy of the image creeping back in fails here before any benchmark
// is run: one whole bootstrap of a signed 256 KiB image — server and
// bootloader in this process, REQUEST through first query — may
// allocate at most 1.5 times the encoded image. The image itself is
// one of those: the bootloader's destination blob. (With the frame
// buffer, the chunk decode, the append, Decode's payload and two
// canonical encodings it was 6.7 times.)
func TestBootstrapAllocBytes(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, 1, WithSigningKey(priv))
	img := f.driverImage(dbver.V(1, 0, 0), 1, 256<<10)
	f.addDriver(t, img)
	encoded := uint64(len(img.Encode()))

	bootstrap := func() {
		b := f.bootloader(t, WithTrustKey(pub))
		c, err := b.Connect(f.appURL(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query("SELECT 1"); err != nil {
			t.Fatal(err)
		}
		c.Close()
		b.Close()
	}
	bootstrap() // warm-up: catalog, prepared handles, pools
	var before, after runtime.MemStats
	const runs = 4
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		bootstrap()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one bootstrap of a %d-byte image allocates %d bytes (%.2fx)", encoded, per, float64(per)/float64(encoded))
	if per > encoded*3/2 {
		t.Fatalf("one bootstrap of a %d-byte image allocates %d bytes, want at most 1.5x the image", encoded, per)
	}
}

// TestTransferGoldenBytes: the scatter send puts on the wire exactly
// the bytes the joined encoding did. The expected stream is laid out
// here by hand from the protocol's definition — frame header, then
// offset, total, last flag and the length-prefixed data — for a
// transfer of two full chunks and a tail.
func TestTransferGoldenBytes(t *testing.T) {
	f := newFixture(t, 1)
	img := f.driverImage(dbver.V(1, 0, 0), 1, 2*transferChunkSize+777)
	f.addDriver(t, img)
	blob := img.Encode()

	var want []byte
	for off := 0; off < len(blob); off += transferChunkSize {
		end := min(off+transferChunkSize, len(blob))
		want = binary.BigEndian.AppendUint16(want, wire.Magic)
		want = binary.BigEndian.AppendUint16(want, msgFileData)
		want = binary.BigEndian.AppendUint32(want, uint32(4+4+1+4+end-off))
		want = binary.BigEndian.AppendUint32(want, uint32(off))
		want = binary.BigEndian.AppendUint32(want, uint32(len(blob)))
		if end == len(blob) {
			want = append(want, 1)
		} else {
			want = append(want, 0)
		}
		want = binary.BigEndian.AppendUint32(want, uint32(end-off))
		want = append(want, blob[off:end]...)
	}

	nc, err := net.Dial("tcp", f.drv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	req := Request{Database: "prod", User: "app", Password: "app-pw", API: dbver.APIOf("JDBC", 3, 0),
		ClientPlatform: dbver.PlatformLinuxAMD64, ClientID: "golden"}
	if err := wire.WriteFrame(nc, wire.Frame{Type: msgRequest, Payload: req.encode()}); err != nil {
		t.Fatal(err)
	}
	fr, err := wire.ReadFrame(nc)
	if err != nil || fr.Type != msgOffer {
		t.Fatalf("frame=0x%04x err=%v", fr.Type, err)
	}
	offer, err := decodeOffer(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, wire.Frame{Type: msgFileRequest, Payload: fileRequest{LeaseID: offer.LeaseID}.encode()}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("FILE_DATA stream differs from the protocol's encoding at byte %d of %d", i, len(want))
			}
		}
	}
}
