package core

import (
	"crypto/ed25519"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driverimg"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// AuthFunc validates bootstrap credentials. Returning an error rejects
// the request with a DRIVOLUTION_ERROR(AUTH).
type AuthFunc func(database, user, password string) error

// Server is the Drivolution Server: it answers bootloader requests by
// querying the driver schema (Sample code 1/2), manages leases, streams
// driver binaries, and pushes update notifications over dedicated
// channels. Where the schema lives is decided by the Store, so one
// implementation covers the in-database (§4.1.2), external (§4.1.3), and
// standalone (§4.1.4) deployments.
type Server struct {
	name  string
	store Store
	clock func() time.Time

	auth        AuthFunc
	signKey     ed25519.PrivateKey
	packages    *driverimg.PackageStore
	licenseMode bool
	licenseMu   sync.Mutex // serializes license-mode grants (see grantSerialized)

	// Cluster hooks (internal/cluster): route decides per grant whether
	// this server owns the request's shard; idOffset/idStride pin every
	// id this server allocates to a residue class so members of a
	// replicated fleet never collide; leaseJitter smears granted lease
	// periods so a synchronized fleet's renewals de-synchronize.
	route              ShardRouter
	idOffset, idStride uint64
	leaseJitter        float64
	jitterMu           sync.Mutex // guards jitterRng only
	jitterRng          *rand.Rand

	defaultLease      time.Duration
	defaultRenew      RenewPolicy
	defaultExpiration ExpirationPolicy
	defaultTransfer   TransferMethod

	// Failure-contract deadlines (see faultnet and the ARCHITECTURE.md
	// "Failure model" section): the first frame of every accepted
	// connection is bounded by handshakeTimeout, every outbound frame
	// by writeTimeout.
	handshakeTimeout time.Duration
	writeTimeout     time.Duration

	// Independent locks for independent state, so concurrent bootstraps
	// don't serialize: lease-id allocation, pending transfers, and the
	// subscriber set contend only with themselves. That independence is
	// the declared hierarchy — every Server lock is a leaf, so no
	// function may ever hold two of them at once (enforced by
	// drivolint's latchorder analyzer; locks handed across function
	// boundaries, like licenseMu held around grant, are documented
	// contracts instead).
	//
	//lint:latch-leaf Server.licenseMu Server.mu Server.idMu Server.pendingMu Server.subMu Server.connsMu Server.catMu Server.stmtMu Server.jitterMu
	mu sync.Mutex // listener lifecycle only
	ln net.Listener

	idMu       sync.Mutex // id allocators
	nextLease  uint64
	nextPermID int64
	nextDrvID  int64
	idsLoaded  bool

	pendingMu sync.Mutex
	pending   map[uint64]pendingTransfer // leaseID → staged driver blob

	subMu       sync.Mutex
	subscribers map[*wire.Conn]subscribeMsg

	connsMu  sync.Mutex
	conns    map[*wire.Conn]struct{} // every live protocol connection, closed by Stop
	stopping bool                    // set by Stop; late-arriving conns are refused

	// Versioned driver catalog (catalog.go): an immutable snapshot of
	// driver metadata + permissions, swapped atomically on store
	// generation change. catMu serializes reloads only; readers never
	// block.
	cat        atomic.Pointer[catalog]
	catMu      sync.Mutex
	assemblies assemblyCache
	signGen    uint64 // bumped when the signing key changes

	// Prepared-handle cache over StmtStore stores: every server-issued
	// statement routes through exec(), which reuses one handle per SQL
	// text so hot statements skip parse-and-plan. nil when the store
	// has no StmtStore capability (exec falls through to store.Exec).
	stmtMu sync.Mutex
	stmts  map[string]Stmt

	wg sync.WaitGroup

	// Metrics for experiments and benchmarks.
	requests      atomic.Int64
	offers        atomic.Int64
	errsSent      atomic.Int64
	transfers     atomic.Int64
	bytesOut      atomic.Int64
	notifies      atomic.Int64
	leasesGranted atomic.Int64
	renewKeeps    atomic.Int64
	renewUpgrades atomic.Int64
	redirects     atomic.Int64
}

// Route is a ShardRouter's decision for one grant.
type Route struct {
	// Local reports that this server owns the request's shard and may
	// create or renew the lease itself.
	Local bool
	// Addr is the owner's advertised client address when !Local. Empty
	// (with Local false) means no serving owner is known — the member
	// is cut off from the cluster majority and must not grant; the
	// request handler answers with an empty redirect so the bootloader
	// fails over to its other configured servers.
	Addr string
	// Server names the owner for diagnostics.
	Server string
}

// ShardRouter lets a cluster layer (internal/cluster) decide which
// member may create or renew leases for a matched request. It is
// consulted after matchmaking succeeds and before any lease row is
// touched; driverID is the matched driver and clientID the requesting
// bootloader's identity, so the cluster can shard by either key.
// Matchmaking itself (DISCOVER) stays member-local: every member
// answers it from its replicated catalog.
type ShardRouter func(driverID int64, clientID string) Route

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithClock overrides the time source (tests).
func WithClock(clock func() time.Time) ServerOption {
	return func(s *Server) { s.clock = clock }
}

// WithAuth installs credential validation for bootstrap requests.
func WithAuth(fn AuthFunc) ServerOption {
	return func(s *Server) { s.auth = fn }
}

// WithSigningKey makes the server sign driver images it assembles on
// demand (base images are signed at insert time by the admin API).
func WithSigningKey(key ed25519.PrivateKey) ServerOption {
	return func(s *Server) {
		s.signKey = key
		atomic.AddUint64(&s.signGen, 1) // invalidate cached assemblies
	}
}

// WithPackages enables on-demand driver assembly (§5.4.1).
func WithPackages(ps *driverimg.PackageStore) ServerOption {
	return func(s *Server) { s.packages = ps }
}

// WithDefaultLease sets the lease duration used when no permission row
// specifies one. The paper suggests "settings ranging from an hour to a
// day"; tests use milliseconds.
func WithDefaultLease(d time.Duration) ServerOption {
	return func(s *Server) { s.defaultLease = d }
}

// WithDefaultPolicies sets the policies offered when no permission row
// matches.
func WithDefaultPolicies(r RenewPolicy, e ExpirationPolicy) ServerOption {
	return func(s *Server) { s.defaultRenew = r; s.defaultExpiration = e }
}

// WithLicenseMode makes every driver single-lease: a driver already
// leased (and not released or expired) is unavailable to other clients —
// the §5.4.2 per-user license model.
func WithLicenseMode() ServerOption {
	return func(s *Server) { s.licenseMode = true }
}

// WithShardRouter installs cluster shard routing: every REQUEST whose
// shard the router assigns elsewhere is answered with a msgRedirect
// frame naming the owner instead of a grant, and DISCOVER is declined
// while the router reports no serving owner at all (this member lost
// its cluster majority). Single-server deployments leave it nil.
func WithShardRouter(r ShardRouter) ServerOption {
	return func(s *Server) { s.route = r }
}

// WithIDStride pins every id this server allocates (leases, drivers,
// permissions) to the residue class id ≡ offset (mod stride). Cluster
// members replicating one schema use disjoint offsets so concurrent
// allocations never collide across members — without it, two members
// inserting the same id would each keep their local row and silently
// drop the replicated twin, diverging the stores.
func WithIDStride(offset, stride uint64) ServerOption {
	return func(s *Server) { s.idOffset, s.idStride = offset, stride }
}

// WithLeaseJitter smears every granted lease period by a uniform
// ±frac (e.g. 0.1 = ±10%). A fleet bootstrapped in lockstep otherwise
// renews in lockstep forever — the §3.4.2 renewal storm; jittered
// terms de-synchronize it within a few periods. Offers still carry
// the jittered period, so clients schedule their renew-ahead point
// from what was actually granted.
func WithLeaseJitter(frac float64) ServerOption {
	return func(s *Server) {
		s.leaseJitter = frac
		s.jitterRng = rand.New(rand.NewSource(rand.Int63()))
	}
}

// WithHandshakeTimeout bounds how long an accepted connection may take
// to deliver its first frame. A peer that connects and stalls (or
// trickles bytes) is cut off after d instead of pinning a connection
// goroutine forever. Default faultnet.DefaultHandshakeTimeout.
func WithHandshakeTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.handshakeTimeout = d }
}

// WithWriteTimeout bounds every frame the server sends — offers,
// FILE_DATA chunks, push notifications. A subscriber or transfer peer
// that stops reading fails its Send within d and is dropped, instead
// of wedging the broadcast or transfer path. Default
// faultnet.DefaultWriteTimeout.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// NewServer creates a Drivolution server over the given store. Call
// EnsureSchema (or let NewServer do it) before serving.
func NewServer(name string, store Store, opts ...ServerOption) (*Server, error) {
	s := &Server{
		name:              name,
		store:             store,
		clock:             time.Now,
		defaultLease:      time.Hour,
		defaultRenew:      RenewUpgrade,
		defaultExpiration: AfterCommit,
		defaultTransfer:   TransferAny,
		handshakeTimeout:  faultnet.DefaultHandshakeTimeout,
		writeTimeout:      faultnet.DefaultWriteTimeout,
		pending:           make(map[uint64]pendingTransfer),
		subscribers:       make(map[*wire.Conn]subscribeMsg),
		conns:             make(map[*wire.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if _, ok := store.(StmtStore); ok {
		s.stmts = make(map[string]Stmt)
	}
	if err := EnsureSchema(store); err != nil {
		return nil, err
	}
	return s, nil
}

// exec routes one statement to the store, through a cached prepared
// handle when the store supports StmtStore. The set of SQL texts the
// server issues is a small fixed vocabulary, so the cache is bounded.
func (s *Server) exec(sql string, args ...any) (*sqlmini.Result, error) {
	if s.stmts == nil {
		return s.store.Exec(sql, args...)
	}
	s.stmtMu.Lock()
	h, ok := s.stmts[sql]
	if !ok {
		var err error
		h, err = s.store.(StmtStore).Prepare(sql)
		if err != nil {
			s.stmtMu.Unlock()
			return nil, err
		}
		s.stmts[sql] = h
	}
	s.stmtMu.Unlock()
	return h.Exec(args...)
}

// stmtRouter adapts the server's prepared-handle routing to the execer
// shape the schema helpers take.
type stmtRouter struct{ s *Server }

func (r stmtRouter) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	return r.s.exec(sql, args...)
}

func (s *Server) router() stmtRouter { return stmtRouter{s: s} }

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// Store exposes the underlying schema store, letting deployments share
// one store across several server frontends (e.g. a plaintext and a TLS
// listener over the same drivers table).
func (s *Server) Store() Store { return s.store }

// ServerCounters is a named snapshot of the server's protocol counters,
// including the grant-outcome split the load harness asserts on: how
// many offers were fresh leases, same-driver renewals, and upgrade
// renewals.
type ServerCounters struct {
	Requests   int64 // DISCOVER + REQUEST frames received
	Offers     int64 // OFFER frames sent
	ErrorsSent int64 // DRIVOLUTION_ERROR frames sent
	Transfers  int64 // FILE_DATA streams sent through their last chunk
	BytesOut   int64 // driver bytes handed to the transport
	Notifies   int64 // push notifications delivered

	// LeasesGranted counts fresh leases created (Table 3 bootstraps).
	LeasesGranted int64
	// RenewKeeps counts renewals that kept the client's driver
	// (Table 4 OFFER without data file).
	RenewKeeps int64
	// RenewUpgrades counts renewals offered a different driver — the
	// fleet-wide hot-swap events of an upgrade storm.
	RenewUpgrades int64
	// Redirects counts REQUESTs answered with a msgRedirect frame
	// because another cluster member owns the shard.
	Redirects int64
}

// Counters snapshots every protocol counter by name.
func (s *Server) Counters() ServerCounters {
	return ServerCounters{
		Requests:      s.requests.Load(),
		Offers:        s.offers.Load(),
		ErrorsSent:    s.errsSent.Load(),
		Transfers:     s.transfers.Load(),
		BytesOut:      s.bytesOut.Load(),
		Notifies:      s.notifies.Load(),
		LeasesGranted: s.leasesGranted.Load(),
		RenewKeeps:    s.renewKeeps.Load(),
		RenewUpgrades: s.renewUpgrades.Load(),
		Redirects:     s.redirects.Load(),
	}
}

// Start listens for bootloader connections on addr.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("core: listen %s: %w", addr, err)
	}
	return s.serveListener(ln)
}

// StartTLS listens with TLS — the paper's default secure configuration
// ("In its default configuration, Drivolution uses encrypted
// authenticated SSL channels").
func (s *Server) StartTLS(addr string, cert tls.Certificate) error {
	ln, err := tls.Listen("tcp", addr, &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		return fmt.Errorf("core: tls listen %s: %w", addr, err)
	}
	return s.serveListener(ln)
}

func (s *Server) serveListener(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("core: server %s already started", s.name)
	}
	s.ln = ln
	s.mu.Unlock()
	s.connsMu.Lock()
	s.stopping = false
	s.connsMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(nc)
			}()
		}
	}()
	return nil
}

// Addr returns the listen address, or "" when not started.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stop closes the listener and all subscriber channels and waits for
// connection goroutines. The store (and therefore all leases/drivers)
// survives; Start may be called again.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
		s.ln = nil
	}
	s.mu.Unlock()
	s.subMu.Lock()
	s.subscribers = make(map[*wire.Conn]subscribeMsg)
	s.subMu.Unlock()
	// Close every live connection (bootloaders keep a persistent one for
	// renewals) so connection goroutines unblock and wg.Wait returns.
	// stopping also refuses connections accepted just before the
	// listener closed but not yet registered — without it such a conn
	// would be missed by this sweep and hang wg.Wait forever.
	s.connsMu.Lock()
	s.stopping = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.connsMu.Unlock()
	s.wg.Wait()
}

func (s *Server) serveConn(nc net.Conn) {
	conn := wire.NewConn(nc)
	s.connsMu.Lock()
	if s.stopping {
		s.connsMu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.connsMu.Unlock()
	conn.SetWriteTimeout(s.writeTimeout)
	subscribed := false
	defer func() {
		s.connsMu.Lock()
		delete(s.conns, conn)
		s.connsMu.Unlock()
		conn.Close()
	}()
	for first := true; ; first = false {
		var f wire.Frame
		var err error
		if first {
			// Hello deadline: a connect-and-stall (or byte-trickling)
			// peer is cut off instead of holding this goroutine. Later
			// frames are unbounded — a bootloader's renewal connection
			// legitimately idles between lease terms.
			f, err = conn.RecvTimeout(s.handshakeTimeout)
		} else {
			f, err = conn.Recv()
		}
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				// Best effort: protocol errors just end the session.
				_ = err
			}
			if subscribed {
				s.dropSubscriber(conn)
			}
			return
		}
		switch f.Type {
		case msgDiscover:
			s.handleDiscover(conn, f.Payload)
		case msgRequest:
			s.handleRequest(conn, f.Payload)
		case msgFileRequest:
			s.handleFileRequest(conn, f.Payload)
		case msgSubscribe:
			if s.handleSubscribe(conn, f.Payload) {
				subscribed = true
			}
		case msgRelease:
			s.handleRelease(conn, f.Payload)
		default:
			s.sendError(conn, ErrCodeInternal, fmt.Sprintf("unexpected frame 0x%04x", f.Type))
		}
	}
}

func (s *Server) sendError(conn *wire.Conn, code ErrorCode, msg string) {
	s.errsSent.Add(1)
	_ = conn.Send(msgError, encodeProtocolError(code, msg))
}

// handleDiscover answers a broadcast probe: matchmaking runs but no
// lease is created; the bootloader then unicasts a REQUEST to one of the
// offering servers (paper §3.1).
func (s *Server) handleDiscover(conn *wire.Conn, payload []byte) {
	req, err := decodeRequest(payload)
	if err != nil {
		s.sendError(conn, ErrCodeInternal, "malformed discover")
		return
	}
	s.requests.Add(1)
	if s.auth != nil {
		if err := s.auth(req.Database, req.User, req.Password); err != nil {
			s.sendError(conn, ErrCodeAuth, err.Error())
			return
		}
	}
	g, perr := s.match(req)
	if perr != nil {
		s.sendError(conn, perr.Code, perr.Message)
		return
	}
	if s.route != nil {
		// A fenced cluster member (no quorum: it can neither grant nor
		// name a serving owner) must not advertise itself in discovery;
		// an erroring answer sends the bootloader to its other servers.
		if rt := s.route(g.driverID, req.ClientID); !rt.Local && rt.Addr == "" {
			s.sendError(conn, ErrCodeInternal, "cluster member cannot serve: no quorum")
			return
		}
	}
	s.offers.Add(1)
	s.sendOffer(conn, Offer{
		LeaseTime:        g.leaseTime,
		RenewPolicy:      g.renew,
		ExpirationPolicy: g.expiration,
		TransferMethod:   g.transfer,
		HasDriver:        true,
		DriverChecksum:   g.checksum,
		Format:           g.format,
		Size:             uint32(len(g.blob)),
		ServerName:       s.name,
	})
}

// sendOffer encodes through a pooled encoder; offers are the per-grant
// hot path.
func (s *Server) sendOffer(conn *wire.Conn, o Offer) {
	e := wire.GetEncoder(128)
	o.encodeTo(e)
	_ = conn.Send(msgOffer, e.Bytes())
	wire.PutEncoder(e)
}

func (s *Server) handleRequest(conn *wire.Conn, payload []byte) {
	req, err := decodeRequest(payload)
	if err != nil {
		s.sendError(conn, ErrCodeInternal, "malformed request")
		return
	}
	s.requests.Add(1)
	if s.auth != nil {
		if err := s.auth(req.Database, req.User, req.Password); err != nil {
			s.sendError(conn, ErrCodeAuth, err.Error())
			return
		}
	}
	offer, perr := s.grantSerialized(req, conn.IsTLS())
	if perr != nil {
		if perr.redirect != nil {
			s.redirects.Add(1)
			_ = conn.Send(msgRedirect, perr.redirect.encode())
			return
		}
		s.sendError(conn, perr.Code, perr.Message)
		return
	}
	s.offers.Add(1)
	s.sendOffer(conn, offer)
}

// jitterLease smears a granted lease period by ±leaseJitter (uniform).
// No-op unless WithLeaseJitter configured the server.
func (s *Server) jitterLease(d time.Duration) time.Duration {
	if s.leaseJitter <= 0 || s.jitterRng == nil {
		return d
	}
	s.jitterMu.Lock()
	u := s.jitterRng.Float64()
	s.jitterMu.Unlock()
	f := 1 + s.leaseJitter*(2*u-1)
	j := time.Duration(float64(d) * f)
	if j <= 0 {
		return d
	}
	return j
}

// grantSerialized runs grant, serialized in license mode: the
// license-free check and the lease insert are separate store
// statements, so without a grant-order lock two concurrent bootstraps
// could both see a driver free and double-grant its license (§5.4.2
// cap breach). Outside license mode grants stay concurrent. Servers
// sharing one store (Figure 6 replication) serialize only their own
// grants; cross-server license enforcement would need a store-side
// transaction.
func (s *Server) grantSerialized(req Request, isTLS bool) (Offer, *ProtocolError) {
	if s.licenseMode {
		s.licenseMu.Lock()
		defer s.licenseMu.Unlock()
	}
	return s.grant(req, isTLS)
}

func (s *Server) handleFileRequest(conn *wire.Conn, payload []byte) {
	fr, err := decodeFileRequest(payload)
	if err != nil {
		s.sendError(conn, ErrCodeInternal, "malformed file request")
		return
	}
	s.pendingMu.Lock()
	p, ok := s.pending[fr.LeaseID]
	s.pendingMu.Unlock()
	if !ok {
		s.sendError(conn, ErrCodeNoLease, fmt.Sprintf("no pending transfer for lease %d", fr.LeaseID))
		return
	}
	blob := p.blob
	total := uint32(len(blob))
	head := wire.GetEncoder(fileChunkHeadLen) // one head buffer for the whole stream
	defer wire.PutEncoder(head)
	for off := uint32(0); ; {
		end := off + transferChunkSize
		if end > total {
			end = total
		}
		last := end == total
		head.Reset()
		fileChunkHead{Offset: off, Total: total, Last: last, Len: end - off}.encodeTo(head)
		// Count before sending: a client holding the last chunk may read
		// Counters() at once and must find its own transfer there.
		s.bytesOut.Add(int64(end - off))
		if last {
			s.transfers.Add(1)
		}
		// The chunk goes out as a slice of the stored blob, uncopied.
		if err := conn.SendBody(msgFileData, head.Bytes(), blob[off:end]); err != nil || last {
			return
		}
		off = end
	}
}

func (s *Server) handleSubscribe(conn *wire.Conn, payload []byte) bool {
	sub, err := decodeSubscribe(payload)
	if err != nil {
		s.sendError(conn, ErrCodeInternal, "malformed subscribe")
		return false
	}
	s.subMu.Lock()
	s.subscribers[conn] = sub
	s.subMu.Unlock()
	return true
}

func (s *Server) dropSubscriber(conn *wire.Conn) {
	s.subMu.Lock()
	delete(s.subscribers, conn)
	s.subMu.Unlock()
}

func (s *Server) handleRelease(conn *wire.Conn, payload []byte) {
	rel, err := decodeRelease(payload)
	if err != nil {
		s.sendError(conn, ErrCodeInternal, "malformed release")
		return
	}
	_, execErr := s.exec(
		`UPDATE `+LeasesTable+` SET released = TRUE WHERE lease_id = $id`,
		sqlmini.Args{"id": int64(rel.LeaseID)})
	if execErr != nil {
		s.sendError(conn, ErrCodeInternal, execErr.Error())
		return
	}
	s.dropPending(rel.LeaseID)
	_ = conn.Send(msgReleaseOK, nil)
}

// NotifyUpdate pushes a change notification to dedicated-channel
// subscribers whose (database, api) scope matches; empty strings match
// everything. Admin operations call it automatically.
func (s *Server) NotifyUpdate(database, api string) {
	s.subMu.Lock()
	conns := make([]*wire.Conn, 0, len(s.subscribers))
	for c, sub := range s.subscribers {
		if (sub.Database == "" || database == "" || sub.Database == database) &&
			(sub.API == "" || api == "" || sub.API == api) {
			conns = append(conns, c)
		}
	}
	s.subMu.Unlock()
	payload := subscribeMsg{Database: database, API: api}.encode()
	for _, c := range conns {
		if err := c.Send(msgNotify, payload); err != nil {
			// The conn's write timeout already bounded how long this
			// send could stall the broadcast; a failed subscriber is
			// dead or wedged either way, so drop it and close — its
			// bootloader's push loop redials with backoff.
			s.dropSubscriber(c)
			_ = c.Close()
			continue
		}
		s.notifies.Add(1)
	}
}
