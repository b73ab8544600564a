package core

import (
	"fmt"
	"time"

	"repro/internal/dbver"
	"repro/internal/wire"
)

// Frame types of the Drivolution bootstrap protocol. The paper's protocol
// has three core messages (REQUEST, OFFER, ERROR) plus the DHCP-like
// DISCOVER and an FTP-like file transfer (FILE_REQUEST / FILE_DATA) —
// which an upgrade renewal skips: its FILE_DATA follows the OFFER
// unasked (Table 4, capFilePush); NOTIFY implements the §3.2
// dedicated-channel push option.
const (
	msgDiscover    uint16 = 0x0201 // DRIVOLUTION_DISCOVER
	msgRequest     uint16 = 0x0202 // DRIVOLUTION_REQUEST
	msgOffer       uint16 = 0x0203 // DRIVOLUTION_OFFER
	msgError       uint16 = 0x0204 // DRIVOLUTION_ERROR
	msgFileRequest uint16 = 0x0205 // FILE_REQUEST
	msgFileData    uint16 = 0x0206 // FILE_DATA (chunked)
	msgSubscribe   uint16 = 0x0207 // open a dedicated update channel
	msgNotify      uint16 = 0x0208 // server push: driver table changed
	msgRelease     uint16 = 0x0209 // bootloader gives back its lease (license mode)
	msgReleaseOK   uint16 = 0x020A
	msgRedirect    uint16 = 0x020B // cluster: repeat the REQUEST at the owning member
)

// ErrorCode classifies DRIVOLUTION_ERROR messages.
type ErrorCode uint16

// Drivolution protocol error codes.
const (
	// ErrCodeNoDriver: no driver matches the request (invalid database,
	// no driver for the API/platform, ...).
	ErrCodeNoDriver ErrorCode = iota + 1
	// ErrCodeAuth: credentials rejected.
	ErrCodeAuth
	// ErrCodeRevoked: the lease's driver was revoked with no replacement.
	ErrCodeRevoked
	// ErrCodeNoLease: unknown lease id on renewal/file request.
	ErrCodeNoLease
	// ErrCodeTransfer: transfer-method restriction violated.
	ErrCodeTransfer
	// ErrCodeInternal: server-side failure.
	ErrCodeInternal
)

// String names the code.
func (c ErrorCode) String() string {
	switch c {
	case ErrCodeNoDriver:
		return "NO_DRIVER"
	case ErrCodeAuth:
		return "AUTH"
	case ErrCodeRevoked:
		return "REVOKED"
	case ErrCodeNoLease:
		return "NO_LEASE"
	case ErrCodeTransfer:
		return "TRANSFER"
	case ErrCodeInternal:
		return "INTERNAL"
	default:
		return fmt.Sprintf("ErrorCode(%d)", uint16(c))
	}
}

// ProtocolError is a DRIVOLUTION_ERROR delivered to the bootloader.
type ProtocolError struct {
	Code    ErrorCode
	Message string

	// redirect, when set, makes the request handler answer with a
	// msgRedirect frame instead of an error frame (cluster shard
	// routing); it never reaches the wire as an error.
	redirect *Redirect
}

// Error implements error.
func (e *ProtocolError) Error() string {
	return fmt.Sprintf("drivolution: %s: %s", e.Code, e.Message)
}

// Request is DRIVOLUTION_REQUEST (and DISCOVER, which carries the same
// fields — paper §3.1: "a DRIVOLUTION_DISCOVER message can be broadcast
// ... with the same information as a request message").
type Request struct {
	// Database plus credentials, as in the paper.
	Database string
	User     string
	Password string
	// API the client needs, with optional version (negative = any).
	API dbver.API
	// ClientPlatform the bootloader runs on.
	ClientPlatform dbver.Platform
	// Preferred binary format and driver version, optional.
	PreferredFormat  string
	PreferredVersion dbver.Version
	// RequiredPackages requests on-demand assembly (§5.4.1): NLS, GIS,
	// Kerberos, ... Empty means the base driver.
	RequiredPackages []string
	// LeaseID is non-zero for renewals (Table 4 flow).
	LeaseID uint64
	// CurrentChecksum is the checksum of the driver the bootloader is
	// currently running; the server omits the file transfer when the
	// matched driver has identical content.
	CurrentChecksum string
	// ClientID identifies the client application instance for lease
	// bookkeeping (the client_ip analog; host:port of the bootloader).
	ClientID string
}

// capFilePush is the one capability bit a client declares, in a
// trailing byte after the first REQUEST or DISCOVER of a connection:
// it reads an upgrade's FILE_DATA pushed right behind the OFFER (Table
// 4 "send OFFER + FILE_DATA") instead of asking for it with
// FILE_REQUEST. An old server stops reading at ClientID and never sees
// the byte; an old client never sends it, so it is never pushed to.
const capFilePush uint8 = 1

// Fields declares the REQUEST (and DISCOVER) layout.
func (r *Request) Fields(w wire.Walker) {
	w.String(&r.Database)
	w.String(&r.User)
	w.String(&r.Password)
	w.String(&r.API.Name)
	wire.Int32(w, &r.API.Major)
	wire.Int32(w, &r.API.Minor)
	w.String((*string)(&r.ClientPlatform))
	w.String(&r.PreferredFormat)
	wire.Int32(w, &r.PreferredVersion.Major)
	wire.Int32(w, &r.PreferredVersion.Minor)
	wire.Int32(w, &r.PreferredVersion.Micro)
	w.StringSlice(&r.RequiredPackages)
	w.Uint64(&r.LeaseID)
	w.String(&r.CurrentChecksum)
	w.String(&r.ClientID)
}

// decodeRequest decodes a REQUEST or DISCOVER and the capability byte
// that may trail it (zero when absent). A string equal to prev's is
// prev's, not a copy: a connection's renewals repeat all of theirs.
func decodeRequest(b []byte, prev Request) (Request, uint8, error) {
	d := wire.NewDecoder(b)
	r := prev
	r.Fields(wire.Reading(d))
	var caps uint8
	if d.Remaining() > 0 {
		caps = d.Uint8()
	}
	return r, caps, d.Err()
}

// Offer is DRIVOLUTION_OFFER: lease terms plus driver location/format
// (paper §3.4.1: "The message contains one of the three expiration
// policies ... along with the lease time, the driver location and
// format").
type Offer struct {
	LeaseID          uint64
	LeaseTime        time.Duration
	RenewPolicy      RenewPolicy
	ExpirationPolicy ExpirationPolicy
	TransferMethod   TransferMethod
	// HasDriver is false for a renewal that keeps the current driver
	// (Table 4: "a DRIVOLUTION_OFFER without data file instructs the
	// bootloader to continue to use the same driver").
	HasDriver bool
	// DriverChecksum identifies the offered driver content, letting the
	// bootloader skip the download when it already runs that driver.
	DriverChecksum string
	// Format of the driver binary (Table 1 binary_format).
	Format string
	// Size of the driver binary in bytes.
	Size uint32
	// ServerName identifies the offering server (useful under DISCOVER).
	ServerName string
}

// Fields declares the OFFER layout.
func (o *Offer) Fields(w wire.Walker) {
	w.Uint64(&o.LeaseID)
	w.Duration(&o.LeaseTime)
	wire.Int32(w, &o.RenewPolicy)
	wire.Int32(w, &o.ExpirationPolicy)
	wire.Int32(w, &o.TransferMethod)
	w.Bool(&o.HasDriver)
	w.String(&o.DriverChecksum)
	w.String(&o.Format)
	w.Uint32(&o.Size)
	w.String(&o.ServerName)
}

// decodeOffer decodes an OFFER and its trailing "file follows" flag:
// true when the server streams the offered file's FILE_DATA right
// behind it (only ever to a client that declared capFilePush). Every
// other OFFER ends at ServerName. A string equal to prev's is prev's,
// not a copy.
func decodeOffer(b []byte, prev Offer) (Offer, bool, error) {
	d := wire.NewDecoder(b)
	o := prev
	o.Fields(wire.Reading(d))
	fileFollows := d.Remaining() > 0 && d.Bool()
	return o, fileFollows, d.Err()
}

// Fields declares the DRIVOLUTION_ERROR layout.
func (e *ProtocolError) Fields(w wire.Walker) {
	w.Uint16((*uint16)(&e.Code))
	w.String(&e.Message)
}

// Redirect is the payload of msgRedirect: the answer a cluster member
// gives to a REQUEST whose shard it does not own. The bootloader
// repeats the request against Addr — the non-owner redirects rather
// than proxying, so steady-state lease traffic flows straight to the
// owner. An empty Addr means the answering member cannot name a
// serving owner right now (it is cut off from the cluster majority);
// the client should try its other configured servers.
//
// Redirect implements error so it can travel the same result paths as
// *ProtocolError, and like *ProtocolError it marks a clean, complete
// exchange: the connection remains on a frame boundary and is safe to
// reuse.
type Redirect struct {
	Addr   string // owner's advertised client address ("" = none known)
	Server string // owner's server name, for diagnostics
}

// Error implements error.
func (r *Redirect) Error() string {
	if r.Addr == "" {
		return "drivolution: redirected: no owning member available"
	}
	return fmt.Sprintf("drivolution: redirected to %s (%s)", r.Addr, r.Server)
}

// Fields declares the REDIRECT layout.
func (r *Redirect) Fields(w wire.Walker) {
	w.String(&r.Addr)
	w.String(&r.Server)
}

// fileRequest asks for the driver binary of a lease.
type fileRequest struct {
	LeaseID uint64
}

func (f *fileRequest) Fields(w wire.Walker) { w.Uint64(&f.LeaseID) }

// transferChunkSize is the FILE_DATA chunk size; drivers larger than one
// chunk stream across multiple frames like the paper's FTP-like protocol.
const transferChunkSize = 256 << 10

// fileChunkHead is the fixed-size front of one FILE_DATA frame: where
// the chunk belongs in a file of Total bytes, whether it is the last
// one, and how many data bytes follow it in the frame. Head and data
// never share a buffer: the server sends the head next to a slice of
// the stored blob, the client parses it and reads the data straight
// into the image it is assembling.
type fileChunkHead struct {
	Offset uint32
	Total  uint32
	Last   bool
	Len    uint32 // length prefix of the data
}

const fileChunkHeadLen = 4 + 4 + 1 + 4

// Fields declares the head; with the data bytes behind it on the wire,
// the frame payload reads as offset, total, last flag and one
// length-prefixed byte field.
func (h *fileChunkHead) Fields(w wire.Walker) {
	w.Uint32(&h.Offset)
	w.Uint32(&h.Total)
	w.Bool(&h.Last)
	w.Uint32(&h.Len)
}

// subscribeMsg opens a dedicated update channel for (database, api).
type subscribeMsg struct {
	Database string
	API      string
}

func (s *subscribeMsg) Fields(w wire.Walker) {
	w.String(&s.Database)
	w.String(&s.API)
}

// releaseMsg gives back a lease (license server mode, §5.4.2).
type releaseMsg struct {
	LeaseID uint64
}

func (r *releaseMsg) Fields(w wire.Walker) { w.Uint64(&r.LeaseID) }
