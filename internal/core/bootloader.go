package core

import (
	"crypto/ed25519"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/driverimg"
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
	requiredPackages []string
	preferredVersion dbver.Version
	preferredFormat  string
	push             bool

	mu        sync.Mutex
	cur       *loadedDriver
	revoked   bool
	revokeErr error
	started   bool
	stopCh    chan struct{}
	wakeCh    chan struct{}
	wg        sync.WaitGroup

	// boot is the first bootstrap in flight, if any; bootMu guards it.
	// Racing first Connects wait for that one bootstrap and share its
	// outcome, so they cost one REQUEST, one lease and one transfer
	// between them, and against an unreachable server they fail
	// together instead of redialing one after another.
	bootMu sync.Mutex
	boot   *bootCall

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
// from this base, to 16× it with jitter.
func WithRetryInterval(d time.Duration) BootloaderOption {
	return func(b *Bootloader) { b.retryInterval = d }
}

// WithDialTimeout bounds server dials.
func WithDialTimeout(d time.Duration) BootloaderOption {
	return func(b *Bootloader) { b.dialTimeout = d }
}

// WithClientID labels this bootloader instance in lease bookkeeping.
func WithClientID(id string) BootloaderOption {
	return func(b *Bootloader) { b.clientID = id }
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

// bootCall is one first bootstrap; done closes once err is set and,
// on success, the driver installed.
type bootCall struct {
	done chan struct{}
	err  error
}

// ensureDriver returns the installed driver, bootstrapping on first use.
func (b *Bootloader) ensureDriver(database string) (*loadedDriver, error) {
	if ld, err := b.installed(); ld != nil || err != nil {
		return ld, err
	}
	// Bootstrap outside b.mu but one at a time: whoever finds a
	// bootstrap in flight waits for it and adopts its driver instead of
	// taking a second lease (in license mode, a second seat), or returns
	// its error.
	b.bootMu.Lock()
	if c := b.boot; c != nil {
		b.bootMu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		return b.installed()
	}
	if ld, err := b.installed(); ld != nil || err != nil {
		b.bootMu.Unlock()
		return ld, err
	}
	c := &bootCall{done: make(chan struct{})}
	b.boot = c
	b.bootMu.Unlock()

	ld, err := b.bootstrap(database)
	if err == nil {
		b.adopt(ld, database)
	}
	b.bootMu.Lock()
	b.boot = nil
	b.bootMu.Unlock()
	c.err = err
	close(c.done)
	return ld, err
}

// adopt installs the first bootstrap's driver and starts the renewal
// (and push) loops.
func (b *Bootloader) adopt(ld *loadedDriver, database string) {
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

// dialClient opens a lease-protocol client to addr, over TLS when
// configured; dialTimeout also bounds each of its reply waits.
func (b *Bootloader) dialClient(addr string) (*LeaseClient, error) {
	if b.tlsConf == nil {
		return DialLeaseClient(addr, b.dialTimeout)
	}
	nc, err := tls.DialWithDialer(&net.Dialer{Timeout: b.dialTimeout}, "tcp", addr, b.tlsConf)
	if err != nil {
		return nil, fmt.Errorf("drivolution: tls dial %s: %w", addr, err)
	}
	return &LeaseClient{conn: wire.NewConn(nc), addr: addr, timeout: b.dialTimeout}, nil
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

// fetch performs REQUEST → OFFER and, when the OFFER carries a driver
// other than the one the REQUEST says it runs, the transfer —
// FILE_REQUEST → FILE_DATA* after a bootstrap (Table 3), the
// FILE_DATA* the server streams behind the OFFER after an upgrade
// renewal (Table 4) — against one server, following up to two cluster
// redirect hops: a non-owning member answers msgRedirect naming the
// shard owner rather than proxying, and the bootloader repeats the
// request there. It returns the offer, the (possibly empty) driver
// blob, and the address that actually answered — the owner after
// redirects — so the caller records the right home for steady-state
// renewal traffic. A redirect with no address (the answering member
// lost its cluster majority) surfaces as a *Redirect error, which the
// renewal layer treats like any other failed server: keep the driver,
// try the other servers.
func (b *Bootloader) fetch(addr, database string, leaseID uint64, checksum string) (Offer, []byte, string, error) {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	for hop := 0; ; hop++ {
		offer, blob, err := b.fetchLocked(addr, b.request(database, leaseID, checksum))
		if err != nil && hop < 2 {
			var re *Redirect // declared here: errors.As moves it to the heap
			if errors.As(err, &re) && re.Addr != "" && re.Addr != addr {
				addr = re.Addr
				continue
			}
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
	if err == nil && offer.HasDriver && offer.DriverChecksum != req.CurrentChecksum {
		// The image-sized buffer of a bootstrap or an upgrade: chunks
		// land in it straight off the connection, and the decoded
		// image's payload and signature alias it (driverimg.Decode)
		// until install recycles it. An OFFER of the content the REQUEST
		// says it runs (a recovered lease) needs no transfer.
		blob = getImageBuf(int(offer.Size))
		if _, err = b.srv.fetchFile(offer.LeaseID, blob); err != nil {
			putImageBuf(blob)
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

// Image transfer buffers are recycled: fetchLocked takes one and
// install gives it back once Decode, VerifyEncoded and Runtime.Load are
// done with it. That is sound because a factory keeps none of an
// image's bytes (driverimg.Factory), and because fileSink accepts only
// a stream that fills every byte of the buffer, so no byte of an
// earlier image survives into the next.
//
// The buffer given back last waits in imageBuf, where the next transfer
// finds it on whichever P it runs (a sync.Pool keeps a buffer in the
// private slot of the P that put it, out of other Ps' reach), so
// back-to-back bootstraps share one buffer. A buffer it displaces, when
// transfers overlap, goes to imageBufs, which the GC empties while no
// transfer asks for one. A process thus keeps one idle buffer, the size
// of the last image it installed.
var (
	imageBuf  atomic.Pointer[[]byte]
	imageBufs sync.Pool // of *[]byte
)

// getImageBuf returns a buffer of n bytes, recycled when one large
// enough is at hand.
func getImageBuf(n int) []byte {
	p := imageBuf.Swap(nil)
	if p == nil {
		p, _ = imageBufs.Get().(*[]byte)
	}
	if p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// putImageBuf gives b back for the next transfer; nothing may read it
// afterwards.
func putImageBuf(b []byte) {
	if old := imageBuf.Swap(&b); old != nil {
		imageBufs.Put(old)
	}
}

// dropServerLocked closes the cached lease client; caller holds connMu.
func (b *Bootloader) dropServerLocked() {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

// install decodes, verifies, and loads a driver blob (the paper's
// "recheck_time = ...; decode(...); load(...)" from Table 3), then
// recycles blob, whatever the outcome.
func (b *Bootloader) install(offer Offer, blob []byte, addr string) (*loadedDriver, error) {
	defer putImageBuf(blob)
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

// Close gives the lease back, stops renewal goroutines and
// force-closes every managed connection. The lease goes back as §5.4.2
// has it ("the bootloader can notify the Drivolution server when the
// driver is unloaded to give back its lease"), over the cached lease
// connection to the server that holds it and never over a new dial: a
// bootloader cut off from that server spends at most one reply timeout
// here, and its lease expires with its term. The outcome is ignored.
// A crash sends nothing; to model one, cut the path first.
func (b *Bootloader) Close() {
	b.mu.Lock()
	started := b.started
	cur := b.cur
	var leaseID uint64
	var leaseAddr string
	if cur != nil {
		leaseID, leaseAddr = cur.leaseID, cur.serverAddr
	}
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
	if c := b.srv; c != nil && leaseID != 0 && c.addr == leaseAddr && !c.poisoned {
		_ = c.Release(leaseID)
	}
	b.dropServerLocked()
	b.connMu.Unlock()
	if cur != nil {
		cur.closeAll(b, false)
	}
	if started {
		b.wg.Wait()
	}
}
