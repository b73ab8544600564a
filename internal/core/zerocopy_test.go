package core

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// TestBootstrapAllocBytes pins what the transfer path allocates, so a
// copy of the image creeping back in fails here before any benchmark
// is run: one whole bootstrap of a signed 256 KiB image — server and
// bootloader in this process, REQUEST through Close — may allocate at
// most 0.10 times the encoded image. The bootloader's destination blob
// is not among them: it is recycled from one bootstrap to the next
// (imageBuf), and the four connection ends a bootstrap opens buffer
// only what their frames need. (It was 0.31 times while each
// wire.Conn held an 8 KiB bufio reader and writer, 1.33 times while
// each bootstrap allocated its blob afresh, and 6.7 times with the
// frame buffer, the chunk decode, the append, Decode's payload and two
// canonical encodings.)
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
	if per > encoded/10 {
		t.Fatalf("one bootstrap of a %d-byte image allocates %d bytes, want at most 0.10x the image", encoded, per)
	}
}

// TestRecycledBufferNeverLeaks: the buffer a driver image was
// transferred into is reused for the next image, so neither may keep
// anything of the other. Bootloader 1 loads driver A; its buffer is
// scribbled over and handed to bootloader 2's transfer of driver B, an
// image of the same size whose manifest carries a pinned URL, so every
// later field lies at another offset than in A. B must verify against
// its own checksum, and A, whose bytes are gone, must still connect
// with the credentials its image's options carried.
func TestRecycledBufferNeverLeaks(t *testing.T) {
	f := newFixture(t, 1)
	url := f.appURL()
	imgA := f.driverImage(dbver.V(1, 0, 0), 1, 64<<10+len(url))
	imgB := f.driverImage(dbver.V(2, 0, 0), 1, 64<<10)
	imgB.Manifest.PinnedURL = url
	encB := imgB.Encode()
	if len(encB) != len(imgA.Encode()) {
		t.Fatalf("images of %d and %d bytes, want one size", len(imgA.Encode()), len(encB))
	}
	f.addDriver(t, imgA)
	b1 := f.bootloader(t)
	mustConnect(t, b1, url)

	p := imageBuf.Swap(nil)
	if p == nil {
		t.Fatal("bootstrap left no transfer buffer to recycle")
	}
	recycled := *p
	for i := range recycled {
		recycled[i] = 0xA5
	}
	f.addDriver(t, imgB)
	imageBuf.Store(p)

	b2 := f.bootloader(t)
	mustConnect(t, b2, url)
	if b2.Version() != dbver.V(2, 0, 0) || b2.CurrentChecksum() != imgB.Checksum() {
		t.Fatalf("second bootloader runs %v (%s), want 2.0.0 (%s)", b2.Version(), b2.CurrentChecksum(), imgB.Checksum())
	}
	if !bytes.Equal(recycled, encB) {
		t.Fatal("the second transfer did not land in the recycled buffer")
	}

	c := mustConnect(t, b1, url)
	if _, err := c.Query("SELECT name FROM items WHERE id = 1"); err != nil {
		t.Fatalf("driver A after its transfer buffer was reused: %v", err)
	}
	if b1.Version() != dbver.V(1, 0, 0) {
		t.Fatalf("first bootloader runs %v, want 1.0.0", b1.Version())
	}
}

// TestRecycledBuffersConcurrentBootstraps: bootstraps that overlap
// never share a transfer buffer. Eight goroutines bootstrap four
// different images of one size over and over, each through a fresh
// bootloader; a buffer handed to two transfers at once would mix their
// bytes and fail a checksum (and, under -race, report the race).
func TestRecycledBuffersConcurrentBootstraps(t *testing.T) {
	f := newFixture(t, 1)
	const images = 4
	sums := make(map[dbver.Version]string, images)
	for i := 0; i < images; i++ {
		img := f.driverImage(dbver.V(1, 0, i), 1, 32<<10)
		for j := range img.Payload {
			img.Payload[j] = byte(i * j)
		}
		f.addDriver(t, img)
		sums[img.Manifest.Version] = img.Checksum()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := dbver.V(1, 0, g%images)
			for i := 0; i < 10; i++ {
				b := f.bootloader(t, WithPreferredVersion(want))
				if _, err := b.Connect(f.appURL(), nil); err != nil {
					t.Errorf("goroutine %d bootstrap %d: %v", g, i, err)
					return
				}
				if b.Version() != want || b.CurrentChecksum() != sums[want] {
					t.Errorf("goroutine %d runs %v (%s), want %v (%s)", g, b.Version(), b.CurrentChecksum(), want, sums[want])
				}
				b.Close()
			}
		}(g)
	}
	wg.Wait()
}

// TestInstalledDriverDropsItsImage: an installed driver keeps what its
// factory built from the image, not the transferred image itself, whose
// payload aliases the whole blob. Eight bootloaders running a 1 MiB
// driver, connections open, grow the live heap by well under one image
// each.
func TestInstalledDriverDropsItsImage(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 1<<20))
	mustConnect(t, f.bootloader(t), f.appURL()) // warm: the catalog holds the blob once
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	for i := 0; i < 8; i++ {
		mustConnect(t, f.bootloader(t), f.appURL())
	}
	growth := int64(liveHeap()) - int64(before)
	t.Logf("8 installed 1 MiB drivers hold %d KiB of live heap", growth>>10)
	if growth >= 2<<20 {
		t.Fatalf("8 installed 1 MiB drivers hold %d KiB of live heap, want under 2 MiB", growth>>10)
	}
}

// TestUpgradeRenewalIsOneClientFrame: the bootloader's upgrade renewal
// costs the client one frame on the wire, the REQUEST — the file rides
// the OFFER, with no FILE_REQUEST behind it — and the server answers
// with the OFFER and the file's chunks. Counted through a proxy.
func TestUpgradeRenewalIsOneClientFrame(t *testing.T) {
	f, p, b := proxiedBootloader(t)
	up, down := p.Frames(faultnet.Up), p.Frames(faultnet.Down)
	f.addDriver(t, f.driverImage(dbver.V(2, 0, 0), 1, 300<<10)) // two chunks
	if err := b.ForceRenew("prod"); err != nil {
		t.Fatal(err)
	}
	if v := b.Version(); v != dbver.V(2, 0, 0) {
		t.Fatalf("running %v after the upgrade renewal, want 2.0.0", v)
	}
	if n := p.Frames(faultnet.Up) - up; n != 1 {
		t.Fatalf("the client sent %d frames for one upgrade renewal, want 1 (the REQUEST)", n)
	}
	if n := p.Frames(faultnet.Down) - down; n != 3 {
		t.Fatalf("the server sent %d frames, want 3 (OFFER and two FILE_DATA chunks)", n)
	}
}

// recordingConn keeps every byte written to and read from a net.Conn
// that one goroutine drives.
type recordingConn struct {
	net.Conn
	up, down bytes.Buffer
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.up.Write(b)
	return c.Conn.Write(b)
}

func (c *recordingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.down.Write(b[:n])
	return n, err
}

// TestNoChangeRenewalGoldenBytes: on a connection that declared the
// push capability, a no-change renewal's REQUEST and OFFER are byte for
// byte what they were before the push existed — laid out here by hand
// from the protocol's definition — and only the connection's first
// REQUEST carries the trailing capability byte.
func TestNoChangeRenewalGoldenBytes(t *testing.T) {
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	nc, err := net.Dial("tcp", f.drv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordingConn{Conn: nc}
	c := &LeaseClient{conn: wire.NewConn(rc), timeout: 2 * time.Second}
	defer c.Close()

	str := func(b []byte, s string) []byte { return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...) }
	i32 := func(b []byte, v int) []byte { return binary.BigEndian.AppendUint32(b, uint32(int32(v))) }
	frame := func(typ uint16, payload []byte) []byte {
		b := binary.BigEndian.AppendUint16(nil, wire.Magic)
		b = binary.BigEndian.AppendUint16(b, typ)
		return append(binary.BigEndian.AppendUint32(b, uint32(len(payload))), payload...)
	}
	request := func(r Request) []byte {
		b := str(str(str(str(nil, r.Database), r.User), r.Password), r.API.Name)
		b = i32(i32(b, r.API.Major), r.API.Minor)
		b = str(str(b, string(r.ClientPlatform)), r.PreferredFormat)
		b = i32(i32(i32(b, 0), 0), 0)           // no preferred version
		b = binary.BigEndian.AppendUint32(b, 0) // no required packages
		b = binary.BigEndian.AppendUint64(b, r.LeaseID)
		return str(str(b, r.CurrentChecksum), r.ClientID)
	}

	req := catalogRequest()
	boot, err := c.Request(req)
	if err != nil {
		t.Fatal(err)
	}
	if want := frame(msgRequest, append(request(req), capFilePush)); !bytes.Equal(rc.up.Bytes(), want) {
		t.Fatalf("first REQUEST:\n got % x\nwant % x", rc.up.Bytes(), want)
	}
	if _, err := c.FetchFile(boot.LeaseID); err != nil {
		t.Fatal(err)
	}
	req.LeaseID, req.CurrentChecksum = boot.LeaseID, boot.DriverChecksum
	rc.up.Reset()
	rc.down.Reset()
	o, err := c.Request(req)
	if err != nil || o.HasDriver || o.LeaseID != boot.LeaseID || o.DriverChecksum != boot.DriverChecksum || o.LeaseTime != time.Hour {
		t.Fatalf("no-change renewal: %+v, %v", o, err)
	}
	if want := frame(msgRequest, request(req)); !bytes.Equal(rc.up.Bytes(), want) {
		t.Fatalf("renewal REQUEST:\n got % x\nwant % x", rc.up.Bytes(), want)
	}
	offer := binary.BigEndian.AppendUint64(nil, o.LeaseID)
	offer = binary.BigEndian.AppendUint64(offer, uint64(o.LeaseTime))
	offer = i32(i32(i32(offer, int(o.RenewPolicy)), int(o.ExpirationPolicy)), int(o.TransferMethod))
	offer = append(offer, 0) // no driver data
	offer = str(str(offer, o.DriverChecksum), o.Format)
	offer = binary.BigEndian.AppendUint32(offer, 0) // size
	offer = str(offer, o.ServerName)
	if want := frame(msgOffer, offer); !bytes.Equal(rc.down.Bytes(), want) {
		t.Fatalf("renewal OFFER:\n got % x\nwant % x", rc.down.Bytes(), want)
	}
}

// TestNoChangeRenewalAllocs pins what one no-change renewal allocates
// end to end — LeaseClient encode and decode, both wire directions, the
// server's decode, match, guarded UPDATE and reply — with client and
// server in this process over loopback, so a regression fails here
// before any benchmark is run. It is a ceiling at the measured count:
// the engine's share is the new row version, its values, the Result and
// the lease's (driver_id, expires_at) index group; the rest are the
// grant record and the renewal's Args map. Decoded strings repeat the
// connection's previous REQUEST or OFFER and are not copied. (The
// count was 46 with map-bound parameters, heap-built plans, five
// allocations per index group and a fresh buffer for every frame read
// or REQUEST encoded, 23 while matchmaking's LIKE lowered both operands
// into copies, 19 while a second expires_at index took a group of its
// own, and 18 while every decoded string was a fresh copy.)
func TestNoChangeRenewalAllocs(t *testing.T) {
	const ceiling = 9
	f := newFixture(t, 1)
	f.addDriver(t, f.driverImage(dbver.V(1, 0, 0), 1, 256))
	c, err := DialLeaseClient(f.drv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := catalogRequest()
	boot, err := c.Request(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchFile(boot.LeaseID); err != nil {
		t.Fatal(err)
	}
	req.LeaseID, req.CurrentChecksum = boot.LeaseID, boot.DriverChecksum
	got := testing.AllocsPerRun(2000, func() {
		if o, err := c.Request(req); err != nil || o.HasDriver {
			t.Fatalf("no-change renewal: %+v, %v", o, err)
		}
	})
	t.Logf("a no-change renewal allocates %v times", got)
	if got > ceiling {
		t.Fatalf("a no-change renewal allocates %v times, ceiling %d", got, ceiling)
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
	if err := wire.WriteFrame(nc, wire.Frame{Type: msgRequest, Payload: wire.Marshal(&req)}); err != nil {
		t.Fatal(err)
	}
	fr, err := wire.ReadFrame(nc)
	if err != nil || fr.Type != msgOffer {
		t.Fatalf("frame=0x%04x err=%v", fr.Type, err)
	}
	offer, _, err := decodeOffer(fr.Payload, Offer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, wire.Frame{Type: msgFileRequest, Payload: wire.Marshal(&fileRequest{LeaseID: offer.LeaseID})}); err != nil {
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
