package core

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/wire"
)

// Golden frames of the lease protocol: each frame's type number and the
// byte-exact payload of one message whose fields all hold distinct,
// non-zero values, so a declaration that swaps two fields, resizes one
// or drops one fails here. The hex is laid out field by field from the
// protocol's definition. A frame that legitimately grows appends
// trailing fields (older decoders stop at the fields they know) and
// gets a new fixture beside this one.

// goldenRequest is a REQUEST with every field set, a preferred version
// and two required packages included.
func goldenRequest() Request {
	return Request{
		Database: "prod", User: "app", Password: "pw",
		API:              dbver.APIOf("JDBC", 3, 1),
		ClientPlatform:   "lnx",
		PreferredFormat:  "IMAGE",
		PreferredVersion: dbver.V(2, 4, 6),
		RequiredPackages: []string{"gis", "nls"},
		LeaseID:          9,
		CurrentChecksum:  "c1",
		ClientID:         "h7",
	}
}

const goldenRequestHex = "0000000470726f64" + // Database "prod"
	"00000003617070" + // User "app"
	"000000027077" + // Password "pw"
	"000000044a444243" + "00000003" + "00000001" + // API JDBC 3.1
	"000000036c6e78" + // ClientPlatform "lnx"
	"00000005494d414745" + // PreferredFormat "IMAGE"
	"00000002" + "00000004" + "00000006" + // PreferredVersion 2.4.6
	"00000002" + "00000003676973" + "000000036e6c73" + // RequiredPackages gis, nls
	"0000000000000009" + // LeaseID
	"000000026331" + // CurrentChecksum "c1"
	"000000026837" // ClientID "h7"

func goldenOffer() Offer {
	return Offer{
		LeaseID: 7, LeaseTime: 90 * time.Second,
		RenewPolicy: RenewRevoke, ExpirationPolicy: AfterCommit, TransferMethod: TransferAny,
		HasDriver: true, DriverChecksum: "c1", Format: "IMAGE", Size: 4096, ServerName: "srv",
	}
}

type goldenFrame struct {
	name     string
	typ      uint16 // the frame type constant
	wantType uint16 // its number on the wire
	msg      wire.Message
	data     string // bytes the frame carries behind the message
	wantHex  string
}

func goldenFrames() []goldenFrame {
	req, offer := goldenRequest(), goldenOffer()
	return []goldenFrame{
		{"REQUEST", msgRequest, 0x0202, &req, "", goldenRequestHex},
		{"DISCOVER", msgDiscover, 0x0201, &req, "", goldenRequestHex},
		{"OFFER", msgOffer, 0x0203, &offer, "",
			"0000000000000007" + // LeaseID
				"00000014f46b0400" + // LeaseTime 90 s in ns
				"00000002" + "00000001" + "ffffffff" + // RenewRevoke, AfterCommit, TransferAny
				"01" + // HasDriver
				"000000026331" + // DriverChecksum "c1"
				"00000005494d414745" + // Format "IMAGE"
				"00001000" + // Size 4096
				"00000003737276"}, // ServerName "srv"
		{"ERROR", msgError, 0x0204, &ProtocolError{Code: ErrCodeNoLease, Message: "no lease 7"}, "",
			"0004" + "0000000a6e6f206c656173652037"}, // NO_LEASE, "no lease 7"
		{"REDIRECT", msgRedirect, 0x020B, &Redirect{Addr: "10.0.0.7:7070", Server: "owner"}, "",
			"0000000d31302e302e302e373a37303730" + // Addr "10.0.0.7:7070"
				"000000056f776e6572"}, // Server "owner"
		{"FILE_REQUEST", msgFileRequest, 0x0205, &fileRequest{LeaseID: 7}, "", "0000000000000007"},
		{"FILE_DATA", msgFileData, 0x0206, &fileChunkHead{Offset: 16, Total: 20, Last: true, Len: 4}, "abcd",
			"00000010" + "00000014" + "01" + "00000004" + // Offset 16, Total 20, Last, Len 4
				"61626364"}, // the data
		{"SUBSCRIBE", msgSubscribe, 0x0207, &subscribeMsg{Database: "prod", API: "JDBC"}, "",
			"0000000470726f64" + "000000044a444243"},
		{"NOTIFY", msgNotify, 0x0208, &subscribeMsg{Database: "prod", API: "JDBC"}, "",
			"0000000470726f64" + "000000044a444243"},
		{"RELEASE", msgRelease, 0x0209, &releaseMsg{LeaseID: 7}, "", "0000000000000007"},
		{"RELEASE_OK", msgReleaseOK, 0x020A, nil, "", ""},
	}
}

// TestGoldenLeaseFrames pins every lease-protocol frame: its type
// number, its payload bytes, and that the payload decodes back to the
// message it was encoded from.
func TestGoldenLeaseFrames(t *testing.T) {
	for _, g := range goldenFrames() {
		if g.typ != g.wantType {
			t.Errorf("%s: frame type 0x%04x, golden 0x%04x", g.name, g.typ, g.wantType)
		}
		want, err := hex.DecodeString(g.wantHex)
		if err != nil {
			t.Fatalf("%s: bad fixture hex: %v", g.name, err)
		}
		if g.msg == nil {
			if len(want) != 0 {
				t.Errorf("%s: an empty frame with a golden payload", g.name)
			}
			continue
		}
		if got := append(wire.Marshal(g.msg), g.data...); !bytes.Equal(got, want) {
			t.Errorf("%s encoding drifted from the golden fixture:\n got  %x\n want %s", g.name, got, g.wantHex)
			continue
		}
		got := reflect.New(reflect.TypeOf(g.msg).Elem()).Interface().(wire.Message)
		if err := wire.Unmarshal(want, got); err != nil || !reflect.DeepEqual(got, g.msg) {
			t.Errorf("%s: golden bytes decode as %+v, %v; want %+v", g.name, got, err, g.msg)
		}
	}
}
