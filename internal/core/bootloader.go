package core

import (
	"crypto/ed25519"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// Bootloader errors surfaced to applications.
var (
	// ErrNoDriverAvailable is returned by Connect when the driver was
	// revoked with no replacement (paper §3.1.2: "the bootloader blocks
	// new connection requests and it returns errors explaining the
	// absence of a suitable driver").
	ErrNoDriverAvailable = errors.New("drivolution: no suitable driver available")
	// ErrNoServers is returned when no Drivolution server is configured
	// or reachable at first bootstrap.
	ErrNoServers = errors.New("drivolution: no Drivolution server reachable")
)

// Metrics counts bootloader lifecycle events; experiments and benchmarks
// read them through Bootloader.Stats.
type Metrics struct {
	Bootstraps    int64 // initial driver downloads
	Renewals      int64 // lease renewals keeping the same driver
	Upgrades      int64 // driver hot-swaps
	Revocations   int64 // drivers revoked with no replacement
	BytesFetched  int64 // driver bytes downloaded
	ForcedCloses  int64 // connections closed by IMMEDIATE/AFTER_COMMIT
	AbortedTx     int64 // in-flight transactions aborted by IMMEDIATE
	DeferredTx    int64 // connections drained after their commit (AFTER_COMMIT)
	RenewFailures int64 // renewal attempts that hit an unreachable server
}

// Bootloader is the client-side interceptor: it implements client.Driver
// so the application configures it exactly where a conventional driver
// would go, and it fetches, verifies, loads, renews, and hot-swaps the
// real driver underneath (paper §3.1.1). One bootloader instance per
// (API, platform, database credentials) — its feature set is fixed and
// minimal, which is why it "hardly ever needs to be updated".
type Bootloader struct {
	api      dbver.API
	platform dbver.Platform
	user     string
	password string
	clientID string

	servers          []string
	runtime          *driverimg.Runtime
	trustKey         ed25519.PublicKey
	tlsConf          *tls.Config
	dialTimeout      time.Duration
	renewAhead       float64 // renew when this fraction of the lease has elapsed
	retryInterval    time.Duration
	backoffPol       faultnet.Policy // zero = derived from retryInterval
	requiredPackages []string
	preferredVersion dbver.Version
	preferredFormat  string
	push             bool
	logf             func(format string, args ...any)

	mu        sync.Mutex
	cur       *loadedDriver
	revoked   bool
	revokeErr error
	started   bool
	stopCh    chan struct{}
	wakeCh    chan struct{}
	wg        sync.WaitGroup

	// bootMu serializes the first bootstrap, so racing first Connects
	// cost one REQUEST, one lease and one transfer between them.
	bootMu sync.Mutex

	// Cached lease-protocol client to the current server, reused across
	// renewals so the steady-state lease traffic (§3.2) costs one round
	// trip, not a dial + round trip. Guarded by connMu for the whole
	// exchange; dropped as soon as it is poisoned.
	connMu sync.Mutex
	srv    *LeaseClient

	metMu sync.Mutex
	met   Metrics
}

// loadedDriver is one installed driver plus its lease and the live
// connections opened through it.
type loadedDriver struct {
	drv      client.Driver
	img      *driverimg.Image
	checksum string

	leaseID    uint64
	leaseTime  time.Duration
	expiresAt  time.Time
	renewPol   RenewPolicy
	expirePol  ExpirationPolicy
	serverAddr string

	mu    sync.Mutex
	conns map[*managedConn]struct{}
}

// BootloaderOption configures a Bootloader.
type BootloaderOption func(*Bootloader)

// WithTrustKey requires driver images to carry a valid ed25519 signature
// from the given public key (paper §3.1: "It is also possible to sign
// drivers, and have a separate trusted wrapper in the bootloader verify
// signatures").
func WithTrustKey(pub ed25519.PublicKey) BootloaderOption {
	return func(b *Bootloader) { b.trustKey = pub }
}

// WithTLS dials Drivolution servers over TLS, verifying their
// certificate against roots.
func WithTLS(conf *tls.Config) BootloaderOption {
	return func(b *Bootloader) { b.tlsConf = conf }
}

// WithCredentials sets the database credentials sent in requests.
func WithCredentials(user, password string) BootloaderOption {
	return func(b *Bootloader) { b.user = user; b.password = password }
}

// WithRequiredPackages requests on-demand driver assembly (§5.4.1).
func WithRequiredPackages(pkgs ...string) BootloaderOption {
	return func(b *Bootloader) { b.requiredPackages = pkgs }
}

// WithPreferredVersion restricts matchmaking to a driver version.
func WithPreferredVersion(v dbver.Version) BootloaderOption {
	return func(b *Bootloader) { b.preferredVersion = v }
}

// WithPreferredFormat restricts matchmaking to a binary format.
func WithPreferredFormat(f dbver.BinaryFormat) BootloaderOption {
	return func(b *Bootloader) { b.preferredFormat = string(f) }
}

// WithPushUpdates keeps a dedicated channel to the server so upgrades
// propagate immediately instead of at lease expiry (paper §3.2:
// "a dedicated channel ... allows the Drivolution Server to immediately
// signal that a new driver is available").
func WithPushUpdates() BootloaderOption {
	return func(b *Bootloader) { b.push = true }
}

// WithRenewAhead renews when the given fraction of the lease has elapsed
// (default 0.9).
func WithRenewAhead(frac float64) BootloaderOption {
	return func(b *Bootloader) { b.renewAhead = frac }
}

// WithRetryInterval sets the base cadence of the control-plane loops:
// the first retry delay after a failure, and the poll interval while
// no driver is loaded. Consecutive failures back off exponentially
// from this base (see WithBackoff).
func WithRetryInterval(d time.Duration) BootloaderOption {
	return func(b *Bootloader) { b.retryInterval = d }
}

// WithBackoff overrides the retry policy the renewal and push loops
// apply to consecutive failures. The default grows from retryInterval
// to 16× retryInterval with jitter, so a fleet cut off from its
// server spreads its reconnection attempts instead of storming back
// in lockstep.
func WithBackoff(p faultnet.Policy) BootloaderOption {
	return func(b *Bootloader) { b.backoffPol = p }
}

// WithDialTimeout bounds server dials.
func WithDialTimeout(d time.Duration) BootloaderOption {
	return func(b *Bootloader) { b.dialTimeout = d }
}

// WithClientID labels this bootloader instance in lease bookkeeping.
func WithClientID(id string) BootloaderOption {
	return func(b *Bootloader) { b.clientID = id }
}

// WithBootloaderLogger routes diagnostics; default silent.
func WithBootloaderLogger(logf func(format string, args ...any)) BootloaderOption {
	return func(b *Bootloader) { b.logf = logf }
}

// NewBootloader creates a bootloader for one API/platform that fetches
// drivers from the given Drivolution servers (several addresses enable
// the DISCOVER flow and failover). The runtime supplies driver-kind
// factories — the analog of having a JVM available to load classes into.
func NewBootloader(api dbver.API, platform dbver.Platform, servers []string,
	rt *driverimg.Runtime, opts ...BootloaderOption) *Bootloader {
	b := &Bootloader{
		api:           api,
		platform:      platform,
		servers:       append([]string(nil), servers...),
		runtime:       rt,
		dialTimeout:   5 * time.Second,
		renewAhead:    0.9,
		retryInterval: 250 * time.Millisecond,
		clientID:      "bootloader",
		logf:          func(string, ...any) {},
		stopCh:        make(chan struct{}),
		wakeCh:        make(chan struct{}, 1),
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Name implements client.Driver; the bootloader masquerades as the
// driver it loaded.
func (b *Bootloader) Name() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur != nil {
		return b.cur.drv.Name()
	}
	return "drivolution-bootloader"
}

// Version implements client.Driver, reporting the loaded driver's
// version (zero before first bootstrap).
func (b *Bootloader) Version() dbver.Version {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur != nil {
		return b.cur.drv.Version()
	}
	return dbver.Version{}
}

// CurrentChecksum reports the running driver's content identity.
func (b *Bootloader) CurrentChecksum() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return ""
	}
	return b.cur.checksum
}

// LeaseID reports the current lease (0 before bootstrap).
func (b *Bootloader) LeaseID() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return 0
	}
	return b.cur.leaseID
}

// ServerAddr reports the server currently holding this bootloader's
// lease ("" before bootstrap) — under clustering, the shard owner the
// last grant or redirect landed on.
func (b *Bootloader) ServerAddr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return ""
	}
	return b.cur.serverAddr
}

// Stats snapshots the lifecycle metrics.
func (b *Bootloader) Stats() Metrics {
	b.metMu.Lock()
	defer b.metMu.Unlock()
	return b.met
}

func (b *Bootloader) addMetric(f func(*Metrics)) {
	b.metMu.Lock()
	f(&b.met)
	b.metMu.Unlock()
}

// Connect implements client.Driver: it intercepts the application's
// connect call, ensures a driver is installed (bootstrapping on first
// use), and delegates (paper §3.1.1: "It simply intercepts the connect
// method call of the API ... All other calls are passed through").
func (b *Bootloader) Connect(url string, props client.Props) (client.Conn, error) {
	u, err := client.ParseURL(url)
	if err != nil {
		return nil, err
	}
	ld, err := b.ensureDriver(u.Database)
	if err != nil {
		return nil, err
	}
	inner, err := ld.drv.Connect(url, props)
	if err != nil {
		return nil, err
	}
	mc := &managedConn{bl: b, ld: ld, conn: inner}
	ld.mu.Lock()
	ld.conns[mc] = struct{}{}
	ld.mu.Unlock()
	return mc, nil
}

// ensureDriver returns the installed driver, bootstrapping on first use.
func (b *Bootloader) ensureDriver(database string) (*loadedDriver, error) {
	if ld, err := b.installed(); ld != nil || err != nil {
		return ld, err
	}
	// Bootstrap outside b.mu but one at a time: whoever loses the race
	// for bootMu finds the winner's driver installed and adopts it
	// instead of taking a second lease (in license mode, a second seat).
	b.bootMu.Lock()
	defer b.bootMu.Unlock()
	if ld, err := b.installed(); ld != nil || err != nil {
		return ld, err
	}
	ld, err := b.bootstrap(database)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cur = ld
	if !b.started {
		b.started = true
		b.wg.Add(1)
		go b.renewLoop(database)
		if b.push {
			b.wg.Add(1)
			go b.pushLoop(database)
		}
	}
	b.addMetric(func(m *Metrics) { m.Bootstraps++ })
	return ld, nil
}

// installed returns the current driver, or the revocation error that
// blocks new connections; both nil before the first bootstrap.
func (b *Bootloader) installed() (*loadedDriver, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.revoked {
		if b.revokeErr == nil {
			return nil, ErrNoDriverAvailable
		}
		return nil, b.revokeErr
	}
	return b.cur, nil
}

// request builds the DRIVOLUTION_REQUEST for the given database.
func (b *Bootloader) request(database string, leaseID uint64, checksum string) Request {
	return Request{
		Database:         database,
		User:             b.user,
		Password:         b.password,
		API:              b.api,
		ClientPlatform:   b.platform,
		PreferredFormat:  b.preferredFormat,
		PreferredVersion: b.preferredVersion,
		RequiredPackages: b.requiredPackages,
		LeaseID:          leaseID,
		CurrentChecksum:  checksum,
		ClientID:         b.clientID,
	}
}

// dialServer opens a protocol connection, over TLS when configured.
func (b *Bootloader) dialServer(addr string) (*wire.Conn, error) {
	if b.tlsConf != nil {
		d := &net.Dialer{Timeout: b.dialTimeout}
		nc, err := tls.DialWithDialer(d, "tcp", addr, b.tlsConf)
		if err != nil {
			return nil, fmt.Errorf("drivolution: tls dial %s: %w", addr, err)
		}
		return wire.NewConn(nc), nil
	}
	return wire.Dial(addr, b.dialTimeout)
}

// dialClient opens a lease-protocol client to addr; dialTimeout also
// bounds each of its reply waits.
func (b *Bootloader) dialClient(addr string) (*LeaseClient, error) {
	conn, err := b.dialServer(addr)
	if err != nil {
		return nil, err
	}
	return &LeaseClient{conn: conn, addr: addr, timeout: b.dialTimeout}, nil
}

// discover probes every configured server (the DHCP-like broadcast,
// §3.1) and returns the address of the first one that answers with an
// offer.
func (b *Bootloader) discover(database string) (string, error) {
	if len(b.servers) == 0 {
		return "", ErrNoServers
	}
	if len(b.servers) == 1 {
		return b.servers[0], nil
	}
	type answer struct {
		addr string
		err  error
	}
	ch := make(chan answer, len(b.servers))
	req := b.request(database, 0, "")
	for _, addr := range b.servers {
		go func(addr string) {
			c, err := b.dialClient(addr)
			if err == nil {
				_, err = c.Discover(req)
				c.Close()
			}
			ch <- answer{addr, err}
		}(addr)
	}
	var firstErr error
	for range b.servers {
		a := <-ch
		if a.err == nil {
			return a.addr, nil
		}
		if firstErr == nil {
			firstErr = a.err
		}
	}
	return "", fmt.Errorf("%w: %v", ErrNoServers, firstErr)
}

// fetch performs REQUEST → OFFER → FILE_REQUEST → FILE_DATA* against one
// server, following up to two cluster redirect hops: a non-owning
// member answers msgRedirect naming the shard owner rather than
// proxying, and the bootloader repeats the request there. It returns
// the offer, the (possibly empty) driver blob, and the address that
// actually answered — the owner after redirects — so the caller
// records the right home for steady-state renewal traffic. A redirect
// with no address (the answering member lost its cluster majority)
// surfaces as a *Redirect error, which the renewal layer treats like
// any other failed server: keep the driver, try the other servers.
func (b *Bootloader) fetch(addr, database string, leaseID uint64, checksum string) (Offer, []byte, string, error) {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	for hop := 0; ; hop++ {
		offer, blob, err := b.fetchLocked(addr, b.request(database, leaseID, checksum))
		var re *Redirect
		if hop < 2 && errors.As(err, &re) && re.Addr != "" && re.Addr != addr {
			addr = re.Addr
			continue
		}
		return offer, blob, addr, err
	}
}

// fetchLocked runs one fetch against exactly one server; caller holds
// connMu. It reuses the cached client when that is connected to addr,
// and leaves b.srv holding a client only while it is usable.
func (b *Bootloader) fetchLocked(addr string, req Request) (Offer, []byte, error) {
	if b.srv != nil && b.srv.addr != addr {
		b.dropServerLocked() // failover: talking to a different server now
	}
	var offer Offer
	var err error
	if b.srv != nil {
		offer, err = b.srv.Request(req)
		// Retry on a fresh dial ONLY when the cached connection was
		// dead on arrival (send failed, or the very first read hit
		// EOF/reset without a timeout) — then the server cannot have
		// processed the request, so re-sending is safe. A timeout or a
		// mid-exchange failure may mean the REQUEST was applied
		// (lease created, license seat taken); re-sending would apply
		// it twice, so surface the error and let the renewal layer's
		// keep-driver/retry-later policy handle it.
		if err != nil && isNoReply(err) {
			b.dropServerLocked()
		}
	}
	if b.srv == nil {
		if b.srv, err = b.dialClient(addr); err != nil {
			return Offer{}, nil, err
		}
		offer, err = b.srv.Request(req)
	}
	var blob []byte
	if err == nil && offer.HasDriver {
		// The one image-sized allocation of a bootstrap: chunks land in
		// it straight off the connection, and the installed image's
		// payload and signature alias it (driverimg.Decode).
		blob = make([]byte, offer.Size)
		if _, err = b.srv.fetchFile(offer.LeaseID, blob); err != nil {
			err = fmt.Errorf("drivolution: transfer: %w", err)
		} else {
			b.addMetric(func(m *Metrics) { m.BytesFetched += int64(len(blob)) })
		}
	}
	if b.srv.poisoned {
		b.dropServerLocked()
	}
	if err != nil {
		return Offer{}, nil, err
	}
	return offer, blob, nil
}

// dropServerLocked closes the cached lease client; caller holds connMu.
func (b *Bootloader) dropServerLocked() {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

// install decodes, verifies, and loads a driver blob (the paper's
// "recheck_time = ...; decode(...); load(...)" from Table 3).
func (b *Bootloader) install(offer Offer, blob []byte, addr string) (*loadedDriver, error) {
	img, err := driverimg.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("drivolution: decode driver: %w", err)
	}
	// One SHA-256 pass over the canonical bytes, where they lie in blob,
	// is both the checksum and what the signature is checked over.
	var sum string
	if b.trustKey != nil {
		sum, err = driverimg.VerifyEncoded(blob, b.trustKey)
	} else {
		sum, err = driverimg.EncodedChecksum(blob)
	}
	if err != nil {
		return nil, fmt.Errorf("drivolution: reject driver %s: %w", img.Manifest.ID(), err)
	}
	if sum != offer.DriverChecksum {
		return nil, fmt.Errorf("drivolution: driver checksum mismatch (offered %s, got %s)",
			offer.DriverChecksum, sum)
	}
	drv, err := b.runtime.Load(img)
	if err != nil {
		return nil, err
	}
	return &loadedDriver{
		drv:        drv,
		img:        img,
		checksum:   sum,
		leaseID:    offer.LeaseID,
		leaseTime:  offer.LeaseTime,
		expiresAt:  time.Now().Add(offer.LeaseTime),
		renewPol:   offer.RenewPolicy,
		expirePol:  offer.ExpirationPolicy,
		serverAddr: addr,
		conns:      make(map[*managedConn]struct{}),
	}, nil
}

// bootstrap acquires the first driver: discover, request, download,
// verify, load.
func (b *Bootloader) bootstrap(database string) (*loadedDriver, error) {
	addr, err := b.discover(database)
	if err != nil {
		return nil, err
	}
	offer, blob, served, err := b.fetch(addr, database, 0, "")
	if err != nil {
		return nil, err
	}
	if !offer.HasDriver {
		return nil, fmt.Errorf("drivolution: server %s offered no driver data on bootstrap", served)
	}
	return b.install(offer, blob, served)
}

// Close stops renewal goroutines and force-closes every managed
// connection.
func (b *Bootloader) Close() {
	b.mu.Lock()
	started := b.started
	cur := b.cur
	b.cur = nil
	b.revoked = true
	b.revokeErr = ErrNoDriverAvailable
	select {
	case <-b.stopCh:
	default:
		close(b.stopCh)
	}
	b.mu.Unlock()
	b.connMu.Lock()
	b.dropServerLocked()
	b.connMu.Unlock()
	if cur != nil {
		cur.closeAll(b, false)
	}
	if started {
		b.wg.Wait()
	}
}
