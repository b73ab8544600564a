package core

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/dbver"
	"repro/internal/wire"
)

func TestRequestRoundTrip(t *testing.T) {
	in := Request{
		Database:         "prod",
		User:             "app",
		Password:         "secret",
		API:              dbver.APIOf("JDBC", 3, 0),
		ClientPlatform:   dbver.PlatformLinuxAMD64,
		PreferredFormat:  "IMAGE",
		PreferredVersion: dbver.V(1, 2, 3),
		RequiredPackages: []string{"gis", "nls-fr"},
		LeaseID:          42,
		CurrentChecksum:  "abc123",
		ClientID:         "host-7",
	}
	out, _, err := decodeRequest(wire.Marshal(&in), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Database != in.Database || out.User != in.User || out.Password != in.Password ||
		out.API != in.API || out.ClientPlatform != in.ClientPlatform ||
		out.PreferredFormat != in.PreferredFormat || out.PreferredVersion != in.PreferredVersion ||
		out.LeaseID != in.LeaseID || out.CurrentChecksum != in.CurrentChecksum ||
		out.ClientID != in.ClientID {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
	if len(out.RequiredPackages) != 2 || out.RequiredPackages[0] != "gis" {
		t.Fatalf("packages = %v", out.RequiredPackages)
	}
}

// TestDecodedMessagesOutliveTheirFrame: wire.Conn.Recv reuses one
// payload buffer, so what a decoder returns must not alias it. A
// REQUEST and an OFFER are each decoded from frame k; frame k+1, as long
// and all 0xFF, then arrives in one write — through Recv, into the
// buffer frame k lay in, and, for the OFFER, as the FILE_DATA pushed
// behind it, through RecvBody, over the Conn's read-ahead; the decoded
// message must still be what was sent.
func TestDecodedMessagesOutliveTheirFrame(t *testing.T) {
	req := Request{
		Database: "prod", User: "app", Password: "secret",
		API: dbver.APIOf("JDBC", 3, 0), ClientPlatform: dbver.PlatformLinuxAMD64,
		PreferredFormat: "IMAGE", PreferredVersion: dbver.V(1, 2, 3),
		RequiredPackages: []string{"gis", "nls-fr"},
		LeaseID:          42, CurrentChecksum: "abc123", ClientID: "host-7",
	}
	offer := Offer{LeaseID: 42, LeaseTime: time.Hour, HasDriver: true,
		DriverChecksum: "abc123", Format: "IMAGE", Size: 9, ServerName: "drivolution-1"}
	decodeReq := func(b []byte) (any, error) { r, _, err := decodeRequest(b, Request{}); return r, err }
	decodeOff := func(b []byte) (any, error) { o, _, err := decodeOffer(b, Offer{}); return o, err }
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) (any, error)
		want    any
		body    bool // frame k+1 is a FILE_DATA read through RecvBody
	}{
		{"REQUEST", wire.Marshal(&req), decodeReq, req, false},
		{"OFFER", wire.Marshal(&offer), decodeOff, offer, false},
		{"OFFER, then its pushed FILE_DATA", wire.Marshal(&offer), decodeOff, offer, true},
	} {
		a, b := net.Pipe()
		next := wire.Frame{Type: msgFileData, Payload: bytes.Repeat([]byte{0xff}, len(tc.payload))}
		go func() {
			defer a.Close()
			_ = wire.WriteFrame(a, wire.Frame{Type: 1, Payload: tc.payload})
			var buf bytes.Buffer
			_ = wire.WriteFrame(&buf, next)
			_, _ = a.Write(buf.Bytes())
		}()
		conn := wire.NewConn(b)
		f, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.decode(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		var typ uint16
		var n int // payload bytes of frame k+1 read
		if tc.body {
			err = conn.RecvBody(time.Second, func(ft uint16, size int, body io.Reader) error {
				typ = ft
				var rerr error
				n, rerr = io.ReadFull(body, make([]byte, size))
				return rerr
			})
		} else {
			f, err = conn.Recv()
			typ, n = f.Type, len(f.Payload)
		}
		if err != nil || typ != next.Type || n != len(next.Payload) {
			t.Fatalf("%s: frame k+1: type %#04x, %d bytes, err %v; want type %#04x, %d bytes",
				tc.name, typ, n, err, next.Type, len(next.Payload))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s decoded from frame k changed when frame k+1 arrived:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
		conn.Close()
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	prop := func(db, user, pw, cid, sum string, lease uint64, maj, min uint8) bool {
		in := Request{
			Database:        db,
			User:            user,
			Password:        pw,
			API:             dbver.APIOf("JDBC", int(maj), int(min)),
			ClientPlatform:  dbver.PlatformGo,
			LeaseID:         lease,
			CurrentChecksum: sum,
			ClientID:        cid,
		}
		// Decoded against no previous request, against itself, and
		// against one whose strings sit in each other's fields.
		swapped := Request{Database: user, User: pw, Password: db, CurrentChecksum: cid, ClientID: sum}
		for _, prev := range []Request{{}, in, swapped} {
			out, _, err := decodeRequest(wire.Marshal(&in), prev)
			if err != nil || out.Database != db || out.User != user || out.Password != pw ||
				out.LeaseID != lease || out.CurrentChecksum != sum || out.ClientID != cid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeReusesRepeatedStrings: a string that repeats the previous
// message's is that string, not a copy; one that changed is new.
func TestDecodeReusesRepeatedStrings(t *testing.T) {
	req := catalogRequest()
	req.LeaseID, req.CurrentChecksum, req.ClientID = 7, "sum-1", "host-1"
	prev, _, err := decodeRequest(wire.Marshal(&req), Request{})
	if err != nil {
		t.Fatal(err)
	}
	req.ClientID = "host-2"
	next, _, err := decodeRequest(wire.Marshal(&req), prev)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(next.Database, prev.Database) || !same(next.User, prev.User) ||
		!same(string(next.ClientPlatform), string(prev.ClientPlatform)) || !same(next.CurrentChecksum, prev.CurrentChecksum) {
		t.Fatalf("a repeated REQUEST string was copied: %+v", next)
	}
	if next.ClientID != "host-2" || same(next.ClientID, prev.ClientID) {
		t.Fatalf("a changed ClientID decoded as %q", next.ClientID)
	}
	o := Offer{LeaseID: 7, DriverChecksum: "sum-1", Format: "IMAGE", ServerName: "srv"}
	first, _, err := decodeOffer(wire.Marshal(&o), Offer{})
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := decodeOffer(wire.Marshal(&o), first)
	if err != nil || second != first || !same(second.DriverChecksum, first.DriverChecksum) ||
		!same(second.Format, first.Format) || !same(second.ServerName, first.ServerName) {
		t.Fatalf("a repeated OFFER string was copied: %+v, %v", second, err)
	}
}

func TestOfferRoundTripProperty(t *testing.T) {
	prop := func(lease uint64, ms uint32, hasDriver bool, checksum, format, server string, size uint32) bool {
		in := Offer{
			LeaseID:          lease,
			LeaseTime:        time.Duration(ms) * time.Millisecond,
			RenewPolicy:      RenewUpgrade,
			ExpirationPolicy: AfterCommit,
			TransferMethod:   TransferAny,
			HasDriver:        hasDriver,
			DriverChecksum:   checksum,
			Format:           format,
			Size:             size,
			ServerName:       server,
		}
		swapped := Offer{DriverChecksum: server, Format: checksum, ServerName: format}
		for _, prev := range []Offer{{}, in, swapped} {
			if out, _, err := decodeOffer(wire.Marshal(&in), prev); err != nil || out != in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolErrorRoundTrip(t *testing.T) {
	for _, code := range []ErrorCode{ErrCodeNoDriver, ErrCodeAuth, ErrCodeRevoked,
		ErrCodeNoLease, ErrCodeTransfer, ErrCodeInternal} {
		pe := new(ProtocolError)
		if err := wire.Unmarshal(wire.Marshal(&ProtocolError{Code: code, Message: "detail: " + code.String()}), pe); err != nil {
			t.Fatal(err)
		}
		if pe.Code != code || pe.Message != "detail: "+code.String() {
			t.Fatalf("round trip: %+v", pe)
		}
		if pe.Error() == "" {
			t.Fatal("empty Error()")
		}
	}
}

func TestFileChunkRoundTripProperty(t *testing.T) {
	prop := func(off, total uint32, last bool, data []byte) bool {
		in := fileChunk{Offset: off, Total: total, Last: last, Data: data}
		out, err := decodeFileChunk(in.encode())
		if err != nil || out.Offset != off || out.Total != total || out.Last != last {
			return false
		}
		if len(out.Data) != len(data) {
			return false
		}
		for i := range data {
			if out.Data[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncatedMessages(t *testing.T) {
	req := wire.Marshal(&Request{Database: "prod", API: dbver.APIOf("JDBC", 3, 0)})
	for _, cut := range []int{1, len(req) / 2, len(req) - 1} {
		if _, _, err := decodeRequest(req[:cut], Request{}); err == nil {
			t.Errorf("decodeRequest accepted a %d-byte truncation", cut)
		}
	}
	offer := wire.Marshal(&Offer{LeaseID: 1, Format: "IMAGE"})
	if _, _, err := decodeOffer(offer[:4], Offer{}); err == nil {
		t.Error("decodeOffer accepted truncation")
	}
}

// FuzzLeaseFrames feeds arbitrary bytes to every declared lease-protocol
// frame. None may panic; a frame that decodes must re-encode to exactly
// the bytes it consumed, so each layout has one encoding; and REQUEST
// and OFFER decoded over a previous message (the connection's reuse of
// repeated strings) must decode to what they decode to alone. The seed
// corpus — every golden frame and its truncations — runs in `go test`.
func FuzzLeaseFrames(f *testing.F) {
	for _, g := range goldenFrames() {
		b, _ := hex.DecodeString(g.wantHex)
		for n := 0; n < len(b); n += 5 {
			f.Add(b[:n])
		}
		f.Add(b)
	}
	frames := []func() wire.Message{
		func() wire.Message { return new(Request) },
		func() wire.Message { return new(Offer) },
		func() wire.Message { return new(ProtocolError) },
		func() wire.Message { return new(Redirect) },
		func() wire.Message { return new(fileRequest) },
		func() wire.Message { return new(fileChunkHead) },
		func() wire.Message { return new(subscribeMsg) },
		func() wire.Message { return new(releaseMsg) },
	}
	prevReq, prevOffer := goldenRequest(), goldenOffer()
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, fresh := range frames {
			m := fresh()
			d := wire.NewDecoder(b)
			m.Fields(wire.Reading(d))
			if d.Err() != nil {
				continue
			}
			if got, want := wire.Marshal(m), b[:len(b)-d.Remaining()]; !bytes.Equal(got, want) {
				t.Fatalf("%T %+v re-encodes as\n %x\nnot the bytes it decoded from\n %x", m, m, got, want)
			}
		}
		r, caps, err := decodeRequest(b, Request{})
		r2, caps2, err2 := decodeRequest(b, prevReq)
		if (err == nil) != (err2 == nil) || err == nil && (!reflect.DeepEqual(r, r2) || caps != caps2) {
			t.Fatalf("REQUEST decodes as %+v (%v) alone, %+v (%v) over a previous one", r, err, r2, err2)
		}
		o, ff, err := decodeOffer(b, Offer{})
		o2, ff2, err2 := decodeOffer(b, prevOffer)
		if (err == nil) != (err2 == nil) || err == nil && (o != o2 || ff != ff2) {
			t.Fatalf("OFFER decodes as %+v (%v) alone, %+v (%v) over a previous one", o, err, o2, err2)
		}
	})
}
