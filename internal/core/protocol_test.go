package core

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

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
	out, _, err := decodeRequest(in.encode())
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
// and all 0xFF, then lands in the same buffer; the decoded message must
// still be what was sent.
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
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) (any, error)
		want    any
	}{
		{"REQUEST", req.encode(), func(b []byte) (any, error) { r, _, err := decodeRequest(b); return r, err }, req},
		{"OFFER", offer.encode(), func(b []byte) (any, error) { o, _, err := decodeOffer(b); return o, err }, offer},
	} {
		a, b := net.Pipe()
		go func() {
			defer a.Close()
			_ = wire.WriteFrame(a, wire.Frame{Type: 1, Payload: tc.payload})
			_ = wire.WriteFrame(a, wire.Frame{Type: 2, Payload: bytes.Repeat([]byte{0xff}, len(tc.payload))})
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
		if f, err = conn.Recv(); err != nil || f.Type != 2 {
			t.Fatalf("frame k+1: %v", err)
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
		out, _, err := decodeRequest(in.encode())
		return err == nil &&
			out.Database == db && out.User == user && out.Password == pw &&
			out.LeaseID == lease && out.CurrentChecksum == sum && out.ClientID == cid
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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
		out, _, err := decodeOffer(in.encode())
		return err == nil && out == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolErrorRoundTrip(t *testing.T) {
	for _, code := range []ErrorCode{ErrCodeNoDriver, ErrCodeAuth, ErrCodeRevoked,
		ErrCodeNoLease, ErrCodeTransfer, ErrCodeInternal} {
		pe, err := decodeProtocolError(encodeProtocolError(code, "detail: "+code.String()))
		if err != nil {
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
	req := Request{Database: "prod", API: dbver.APIOf("JDBC", 3, 0)}.encode()
	for _, cut := range []int{1, len(req) / 2, len(req) - 1} {
		if _, _, err := decodeRequest(req[:cut]); err == nil {
			t.Errorf("decodeRequest accepted a %d-byte truncation", cut)
		}
	}
	offer := Offer{LeaseID: 1, Format: "IMAGE"}.encode()
	if _, _, err := decodeOffer(offer[:4]); err == nil {
		t.Error("decodeOffer accepted truncation")
	}
}
