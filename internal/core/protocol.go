package core

import (
	"fmt"
	"time"

	"repro/internal/dbver"
	"repro/internal/wire"
)

// Frame types of the Drivolution bootstrap protocol. The paper's protocol
// has three core messages (REQUEST, OFFER, ERROR) plus the DHCP-like
// DISCOVER and an FTP-like file transfer (FILE_REQUEST / FILE_DATA);
// NOTIFY implements the §3.2 dedicated-channel push option.
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

func (r Request) encode() []byte {
	e := wire.NewEncoder(256)
	e.String(r.Database)
	e.String(r.User)
	e.String(r.Password)
	e.String(r.API.Name)
	e.Int32(int32(r.API.Major))
	e.Int32(int32(r.API.Minor))
	e.String(string(r.ClientPlatform))
	e.String(r.PreferredFormat)
	e.Int32(int32(r.PreferredVersion.Major))
	e.Int32(int32(r.PreferredVersion.Minor))
	e.Int32(int32(r.PreferredVersion.Micro))
	e.StringSlice(r.RequiredPackages)
	e.Uint64(r.LeaseID)
	e.String(r.CurrentChecksum)
	e.String(r.ClientID)
	return e.Bytes()
}

func decodeRequest(b []byte) (Request, error) {
	d := wire.NewDecoder(b)
	r := Request{
		Database: d.String(),
		User:     d.String(),
		Password: d.String(),
	}
	r.API.Name = d.String()
	r.API.Major = int(d.Int32())
	r.API.Minor = int(d.Int32())
	r.ClientPlatform = dbver.Platform(d.String())
	r.PreferredFormat = d.String()
	r.PreferredVersion.Major = int(d.Int32())
	r.PreferredVersion.Minor = int(d.Int32())
	r.PreferredVersion.Micro = int(d.Int32())
	r.RequiredPackages = d.StringSlice()
	r.LeaseID = d.Uint64()
	r.CurrentChecksum = d.String()
	r.ClientID = d.String()
	return r, d.Err()
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

func (o Offer) encode() []byte {
	e := wire.NewEncoder(128)
	o.encodeTo(e)
	return e.Bytes()
}

// encodeTo writes the offer into a caller-owned (typically pooled)
// encoder.
func (o Offer) encodeTo(e *wire.Encoder) {
	e.Uint64(o.LeaseID)
	e.Duration(o.LeaseTime)
	e.Int32(int32(o.RenewPolicy))
	e.Int32(int32(o.ExpirationPolicy))
	e.Int32(int32(o.TransferMethod))
	e.Bool(o.HasDriver)
	e.String(o.DriverChecksum)
	e.String(o.Format)
	e.Uint32(o.Size)
	e.String(o.ServerName)
}

func decodeOffer(b []byte) (Offer, error) {
	d := wire.NewDecoder(b)
	o := Offer{
		LeaseID:          d.Uint64(),
		LeaseTime:        d.Duration(),
		RenewPolicy:      RenewPolicy(d.Int32()),
		ExpirationPolicy: ExpirationPolicy(d.Int32()),
		TransferMethod:   TransferMethod(d.Int32()),
		HasDriver:        d.Bool(),
		DriverChecksum:   d.String(),
		Format:           d.String(),
		Size:             d.Uint32(),
		ServerName:       d.String(),
	}
	return o, d.Err()
}

func encodeProtocolError(code ErrorCode, msg string) []byte {
	e := wire.NewEncoder(len(msg) + 8)
	e.Uint16(uint16(code))
	e.String(msg)
	return e.Bytes()
}

func decodeProtocolError(b []byte) (*ProtocolError, error) {
	d := wire.NewDecoder(b)
	pe := &ProtocolError{Code: ErrorCode(d.Uint16()), Message: d.String()}
	return pe, d.Err()
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

func (r *Redirect) encode() []byte {
	e := wire.NewEncoder(64)
	e.String(r.Addr)
	e.String(r.Server)
	return e.Bytes()
}

func decodeRedirect(b []byte) (*Redirect, error) {
	d := wire.NewDecoder(b)
	r := &Redirect{Addr: d.String(), Server: d.String()}
	return r, d.Err()
}

// fileRequest asks for the driver binary of a lease.
type fileRequest struct {
	LeaseID uint64
}

func (f fileRequest) encode() []byte {
	e := wire.NewEncoder(8)
	e.Uint64(f.LeaseID)
	return e.Bytes()
}

func decodeFileRequest(b []byte) (fileRequest, error) {
	d := wire.NewDecoder(b)
	f := fileRequest{LeaseID: d.Uint64()}
	return f, d.Err()
}

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

// encodeTo writes the head into a caller-owned encoder; with the data
// bytes behind it on the wire, the frame payload reads as offset,
// total, last flag and one length-prefixed byte field.
func (h fileChunkHead) encodeTo(e *wire.Encoder) {
	e.Uint32(h.Offset)
	e.Uint32(h.Total)
	e.Bool(h.Last)
	e.Uint32(h.Len)
}

func decodeFileChunkHead(b []byte) (fileChunkHead, error) {
	d := wire.NewDecoder(b)
	h := fileChunkHead{
		Offset: d.Uint32(),
		Total:  d.Uint32(),
		Last:   d.Bool(),
		Len:    d.Uint32(),
	}
	return h, d.Err()
}

// subscribeMsg opens a dedicated update channel for (database, api).
type subscribeMsg struct {
	Database string
	API      string
}

func (s subscribeMsg) encode() []byte {
	e := wire.NewEncoder(64)
	e.String(s.Database)
	e.String(s.API)
	return e.Bytes()
}

func decodeSubscribe(b []byte) (subscribeMsg, error) {
	d := wire.NewDecoder(b)
	s := subscribeMsg{Database: d.String(), API: d.String()}
	return s, d.Err()
}

// releaseMsg gives back a lease (license server mode, §5.4.2).
type releaseMsg struct {
	LeaseID uint64
}

func (r releaseMsg) encode() []byte {
	e := wire.NewEncoder(8)
	e.Uint64(r.LeaseID)
	return e.Bytes()
}

func decodeRelease(b []byte) (releaseMsg, error) {
	d := wire.NewDecoder(b)
	r := releaseMsg{LeaseID: d.Uint64()}
	return r, d.Err()
}
