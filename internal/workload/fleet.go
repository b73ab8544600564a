package workload

import (
	"container/heap"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/faultnet"
)

// Fleet drives a six-figure population of *simulated* bootloaders
// against one Drivolution server address. Each virtual client is ~32
// bytes of state (lease id, interned checksum, schedule counters), not
// a goroutine: a shared min-heap of renewal events, ordered by due
// time, is drained by a small bounded pool of workers, each owning one
// real protocol connection (core.LeaseClient). That separation is what
// makes 100k–1M clients simulable on one box — the population scales
// the event heap, while socket count, goroutine count, and recorder
// shards scale only with Workers.
//
// Virtual clients follow the bootloader's control-plane state machine:
// bootstrap (Table 3), jittered lease renewal (Table 4), upgrade
// transfer on a new driver generation, DHCP-style rebootstrap on
// NO_LEASE, retry-with-jitter on license denial, and keep-driver retry
// on transport failure (§4.1.3 — a cut-off client keeps its lease
// identity and comes back). They do not run drivers or serve SQL; this
// harness measures the control plane under realistic populations,
// which is exactly where renewal stampedes, upgrade storms, and tail
// collapse live.
type Fleet struct {
	cfg   FleetConfig
	addrs []string // resolved server list (cfg.Addrs, or [cfg.Addr])
	rec   *Recorder

	start  time.Time
	stopCh chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	mu      sync.Mutex
	events  eventHeap
	clients []vclient
	// Checksum interning: virtual clients store a uint32 index, the
	// fleet stores each distinct checksum once plus how many clients
	// currently run it (the convergence counter scenarios assert on).
	sums    []string
	sumIDs  map[string]uint32
	sumPop  []int64
	live    int64 // clients currently holding a lease
	stopped bool

	// Flow counters (atomic: workers bump them outside f.mu).
	upgrades      atomic.Int64
	denied        atomic.Int64
	rebootstraps  atomic.Int64
	releases      atomic.Int64
	transferBytes atomic.Int64
	redirects     atomic.Int64

	workerLag []lagSlot
}

// lagSlot is a per-worker schedule-lag maximum, padded onto its own
// cache line.
type lagSlot struct {
	max int64
	_   [56]byte
}

// FleetConfig parameterizes a fleet run. Zero values get defaults
// noted per field.
type FleetConfig struct {
	// Addr is the Drivolution server (or fault proxy) address.
	Addr string
	// Addrs lists every member of a server cluster; when set it
	// supersedes Addr. Clients start spread across the members, chase
	// REDIRECT frames to their shard owners, and fail over to the next
	// member when one stops answering — the simulated analog of the
	// bootloader's multi-server list (§5.3.2).
	Addrs []string
	// Database, User, Password fill every request's credentials.
	Database string
	User     string
	Password string
	// API and Platform of the simulated bootloaders (default JDBC 3.0
	// on linux-amd64).
	API      dbver.API
	Platform dbver.Platform

	// Population is the number of virtual clients (required).
	Population int
	// Workers is the number of real connections draining the event
	// heap (default 8).
	Workers int
	// Seed makes every schedule decision — ramp spacing, renewal
	// jitter, retry jitter — a pure function of (Seed, client, event
	// counter), so a run is reproducible modulo server timing.
	Seed int64

	// RampUp spreads initial bootstraps over this window (default 1s)
	// so the fleet arrives like a deployment, not a thundering herd —
	// set it low to simulate exactly that herd.
	RampUp time.Duration
	// RenewAhead renews at this fraction of the lease term (default
	// 0.9); Jitter smears each renewal into [RenewAhead·(1−Jitter),
	// RenewAhead]·lease (default 0.2, negative disables) so a
	// synchronized fleet de-correlates instead of stampeding every
	// lease period.
	RenewAhead float64
	Jitter     float64
	// RetryInterval is the base delay before a denied or failed client
	// tries again, jittered into [1,2)·RetryInterval (default 1s).
	RetryInterval time.Duration
	// OpTimeout bounds every protocol exchange (default 5s).
	OpTimeout time.Duration

	// FetchOnBootstrap downloads the driver blob at bootstrap (a cold
	// fleet); off, clients take the lease and checksum but skip the
	// transfer (a warm fleet — the first renewal acks the checksum and
	// the server drops the staged blob).
	FetchOnBootstrap bool
	// FetchOnUpgrade downloads the blob when a renewal offers a new
	// driver (default true via NewFleet): an upgrade storm is mostly
	// transfer load, so opting out should be explicit.
	FetchOnUpgrade bool
	// ReleaseAfterRenewals, when >0, has each client release its lease
	// after that many renewals and rebootstrap after an idle period —
	// the churn that makes license capacity circulate (§5.4.2).
	ReleaseAfterRenewals int

	// Recorder defaults to a histogram-only recorder with one shard
	// per worker.
	Recorder *Recorder
}

// vclient is one simulated bootloader. It holds no goroutine and no
// connection; whichever worker pops its next event acts on its behalf.
// A client has exactly one scheduled event at any time, so after the
// pop that worker owns the struct exclusively — only the shared
// convergence/live counters need f.mu.
type vclient struct {
	leaseID  uint64
	checksum uint32 // index into Fleet.sums; 0 is ""
	renewals uint16 // renewals on the current lease (release churn)
	seq      uint16 // per-client event counter feeding the jitter prng
	state    uint8
	home     uint8 // index into Fleet.addrs this client currently talks to
}

const (
	vcBoot uint8 = iota // no lease: next event is a bootstrap attempt
	vcLive              // holds a lease: next event is a renewal
)

// event is one scheduled client action; due is nanoseconds since
// Fleet.start.
type event struct {
	due int64
	id  int32
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// NewFleet validates the config and builds the client population and
// its initial bootstrap schedule.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	addrs := cfg.Addrs
	if len(addrs) == 0 && cfg.Addr != "" {
		addrs = []string{cfg.Addr}
	}
	if len(addrs) == 0 {
		return nil, errors.New("workload: fleet needs a server address")
	}
	if len(addrs) > 256 {
		return nil, errors.New("workload: at most 256 cluster members")
	}
	if cfg.Population <= 0 {
		return nil, errors.New("workload: fleet needs a population")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.API == (dbver.API{}) {
		cfg.API = dbver.APIOf("JDBC", 3, 0)
	}
	if cfg.Platform == "" {
		cfg.Platform = dbver.PlatformLinuxAMD64
	}
	if cfg.RampUp <= 0 {
		cfg.RampUp = time.Second
	}
	if cfg.RenewAhead <= 0 || cfg.RenewAhead > 1 {
		cfg.RenewAhead = 0.9
	}
	if cfg.Jitter == 0 || cfg.Jitter >= 1 {
		cfg.Jitter = 0.2
	} else if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = time.Second
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = NewHistRecorder(cfg.Workers)
	}
	f := &Fleet{
		cfg:       cfg,
		addrs:     addrs,
		rec:       rec,
		stopCh:    make(chan struct{}),
		clients:   make([]vclient, cfg.Population),
		events:    make(eventHeap, 0, cfg.Population),
		sums:      []string{""},
		sumIDs:    map[string]uint32{"": 0},
		sumPop:    []int64{0},
		workerLag: make([]lagSlot, cfg.Workers),
	}
	// Initial schedule: bootstraps spread evenly across the ramp with
	// per-client jitter, already heap-ordered by construction.
	step := float64(cfg.RampUp) / float64(cfg.Population)
	for i := range f.clients {
		// Clients start spread across the members; redirects move each
		// one to its shard owner within its first exchange.
		f.clients[i].home = uint8(i % len(addrs))
		due := int64(float64(i) * step)
		f.events = append(f.events, event{due: due, id: int32(i)})
	}
	return f, nil
}

// Recorder exposes the run's recorder.
func (f *Fleet) Recorder() *Recorder { return f.rec }

// Start launches the worker pool.
func (f *Fleet) Start() {
	f.start = time.Now()
	for w := 0; w < f.cfg.Workers; w++ {
		f.wg.Add(1)
		go f.worker(w)
	}
}

// Stop halts the workers and waits for them.
func (f *Fleet) Stop() {
	f.once.Do(func() {
		close(f.stopCh)
		f.mu.Lock()
		f.stopped = true
		f.mu.Unlock()
	})
	f.wg.Wait()
}

// RunFor starts the fleet, lets it run for d, stops it, and reports.
func (f *Fleet) RunFor(d time.Duration) FleetReport {
	f.Start()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.stopCh:
	}
	f.Stop()
	return f.Report()
}

// FleetReport summarizes a fleet run.
type FleetReport struct {
	Stats   Stats
	Elapsed time.Duration
	// RequestsPerSec is completed protocol exchanges (successes and
	// failures) per wall-clock second. Steady-state renewals cost the
	// server exactly one store statement each, so for a renewal fleet
	// this is also the statements-per-second figure.
	RequestsPerSec float64
	// Live is how many clients held a lease when the run stopped.
	Live int
	// Upgrades counts upgrade offers applied (client moved to a new
	// driver generation); TransferBytes the driver bytes downloaded.
	Upgrades      int64
	TransferBytes int64
	// Denied counts bootstrap attempts refused by the server (license
	// contention); Rebootstraps counts NO_LEASE recoveries; Releases
	// counts voluntary lease give-backs.
	Denied       int64
	Rebootstraps int64
	Releases     int64
	// Redirects counts cluster REDIRECT answers followed (clients
	// relocating to their shard owners).
	Redirects int64
	// ScheduleLagMax is the worst observed delay between an event's
	// due time and a worker starting it. When it approaches the lease
	// term the harness (or the server) is saturated and tail numbers
	// describe queueing, not service — report it rather than hide it.
	ScheduleLagMax time.Duration
}

// Report snapshots current stats; valid during and after a run.
func (f *Fleet) Report() FleetReport {
	elapsed := time.Since(f.start)
	st := f.rec.Stats()
	var lag int64
	for i := range f.workerLag {
		if m := atomic.LoadInt64(&f.workerLag[i].max); m > lag {
			lag = m
		}
	}
	f.mu.Lock()
	live := f.live
	f.mu.Unlock()
	rps := 0.0
	if elapsed > 0 {
		rps = float64(st.Total) / elapsed.Seconds()
	}
	return FleetReport{
		Stats:          st,
		Elapsed:        elapsed,
		RequestsPerSec: rps,
		Live:           int(live),
		Upgrades:       f.upgrades.Load(),
		TransferBytes:  f.transferBytes.Load(),
		Denied:         f.denied.Load(),
		Rebootstraps:   f.rebootstraps.Load(),
		Releases:       f.releases.Load(),
		Redirects:      f.redirects.Load(),
		ScheduleLagMax: time.Duration(lag),
	}
}

// OnChecksum reports how many clients currently run the driver with
// the given content checksum — the convergence count an upgrade-storm
// scenario asserts on.
func (f *Fleet) OnChecksum(sum string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, ok := f.sumIDs[sum]
	if !ok {
		return 0
	}
	return int(f.sumPop[id])
}

// Checksums snapshots the population per driver checksum (only
// non-zero entries; the "" key counts clients that have not yet seen
// any driver). A converged fleet has exactly one non-empty key at
// Population.
func (f *Fleet) Checksums() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int)
	for id, n := range f.sumPop {
		if n > 0 {
			out[f.sums[id]] = int(n)
		}
	}
	return out
}

// Live reports how many clients currently hold a lease.
func (f *Fleet) Live() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.live)
}

func (f *Fleet) now() int64 { return int64(time.Since(f.start)) }

// addrIndex resolves a redirect target to a member slot (-1 when the
// address is not in the configured list).
func (f *Fleet) addrIndex(addr string) int {
	for i, a := range f.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// rand01 derives a deterministic uniform in [0,1) from (seed, client,
// event counter) via splitmix64 — no per-client rng state, no locks.
func (f *Fleet) rand01(id int32, seq uint16) float64 {
	x := uint64(f.cfg.Seed) ^ uint64(id)<<32 ^ uint64(seq)
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// reschedule pushes the client's next event.
func (f *Fleet) reschedule(id int32, delay time.Duration) {
	f.mu.Lock()
	if !f.stopped {
		heap.Push(&f.events, event{due: f.now() + int64(delay), id: id})
	}
	f.mu.Unlock()
}

// renewDelay is the jittered next-renewal offset for a fresh lease
// term: within [RenewAhead·(1−Jitter), RenewAhead]·lease, i.e. always
// ahead of expiry, de-correlated across the fleet.
func (f *Fleet) renewDelay(lease time.Duration, id int32, seq uint16) time.Duration {
	frac := f.cfg.RenewAhead * (1 - f.cfg.Jitter*f.rand01(id, seq))
	return time.Duration(float64(lease) * frac)
}

// retryDelay is the jittered back-off for denied/failed clients:
// [1,2)·RetryInterval.
func (f *Fleet) retryDelay(id int32, seq uint16) time.Duration {
	return time.Duration(float64(f.cfg.RetryInterval) * (1 + f.rand01(id, seq)))
}

// setChecksum moves a client between per-checksum populations.
func (f *Fleet) setChecksum(vc *vclient, sum string) {
	f.mu.Lock()
	sid, ok := f.sumIDs[sum]
	if !ok {
		sid = uint32(len(f.sums))
		f.sums = append(f.sums, sum)
		f.sumPop = append(f.sumPop, 0)
		f.sumIDs[sum] = sid
	}
	f.sumPop[vc.checksum]--
	f.sumPop[sid]++
	vc.checksum = sid
	f.mu.Unlock()
}

func (f *Fleet) setLive(delta int64) {
	f.mu.Lock()
	f.live += delta
	f.mu.Unlock()
}

// worker drains due events with one real connection per cluster
// member (one total against a single server). A transport failure
// poisons the affected connection; the replacement dial follows a
// jittered exponential backoff so a dead server is probed, not
// hammered, and the fleet storms back de-correlated after a heal.
func (f *Fleet) worker(w int) {
	defer f.wg.Done()
	conns := make([]*core.LeaseClient, len(f.addrs))
	defer func() {
		for _, lc := range conns {
			if lc != nil {
				lc.Close()
			}
		}
	}()
	bo := faultnet.NewBackoff(faultnet.Policy{
		Initial: f.cfg.RetryInterval / 4, Max: 4 * f.cfg.RetryInterval,
		Factor: 2, Jitter: 0.5,
	})
	for {
		select {
		case <-f.stopCh:
			return
		default:
		}
		f.mu.Lock()
		if len(f.events) == 0 {
			f.mu.Unlock()
			if !sleepOrStop(time.Millisecond, f.stopCh) {
				return
			}
			continue
		}
		now := f.now()
		if top := f.events[0]; top.due > now {
			f.mu.Unlock()
			wait := time.Duration(top.due - now)
			if wait > 2*time.Millisecond {
				wait = 2 * time.Millisecond
			}
			if !sleepOrStop(wait, f.stopCh) {
				return
			}
			continue
		}
		ev := heap.Pop(&f.events).(event)
		f.mu.Unlock()

		if lag := now - ev.due; lag > atomic.LoadInt64(&f.workerLag[w].max) {
			atomic.StoreInt64(&f.workerLag[w].max, lag)
		}

		home := int(f.clients[ev.id].home)
		if conns[home] == nil {
			lc, err := core.DialLeaseClient(f.addrs[home], f.cfg.OpTimeout)
			if err != nil {
				vc := &f.clients[ev.id]
				vc.seq++
				// The member is unreachable: this client fails over to
				// the next one (no-op against a single server).
				vc.home = uint8((home + 1) % len(f.addrs))
				f.rec.RecordShard(w, Outcome{Start: time.Now(), Err: err, ConnectFail: true})
				f.reschedule(ev.id, f.retryDelay(ev.id, vc.seq))
				if !bo.Sleep(f.stopCh) {
					return
				}
				continue
			}
			bo.Reset()
			conns[home] = lc
		}
		if !f.step(w, conns[home], ev.id) {
			// Transport failure mid-exchange: drop the conn; the next
			// due event dials afresh (after backoff above if it keeps
			// failing).
			conns[home].Close()
			conns[home] = nil
		}
	}
}

func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// step runs one virtual client's due action on the worker's
// connection to the client's current home member. It returns false
// when that connection is no longer usable (transport failure).
func (f *Fleet) step(w int, lc *core.LeaseClient, id int32) bool {
	vc := &f.clients[id]
	vc.seq++
	req := core.Request{
		Database:       f.cfg.Database,
		User:           f.cfg.User,
		Password:       f.cfg.Password,
		API:            f.cfg.API,
		ClientPlatform: f.cfg.Platform,
		ClientID:       "vc-" + strconv.Itoa(int(id)),
	}
	if vc.state == vcLive {
		req.LeaseID = vc.leaseID
		req.CurrentChecksum = f.sums[vc.checksum]
	}

	start := time.Now()
	offer, err := lc.Request(req)
	lat := time.Since(start)

	if err != nil {
		var re *core.Redirect
		if errors.As(err, &re) {
			// A clean cluster redirect: the connection stays healthy.
			// A named owner moves the client there (next event runs at
			// the owner, nearly immediately); an empty redirect means
			// the member is fenced — fail over to the next one.
			f.redirects.Add(1)
			if i := f.addrIndex(re.Addr); i >= 0 {
				vc.home = uint8(i)
				f.reschedule(id, f.retryDelay(id, vc.seq)/16)
			} else {
				vc.home = uint8((int(vc.home) + 1) % len(f.addrs))
				f.reschedule(id, f.retryDelay(id, vc.seq))
			}
			return true
		}
		var pe *core.ProtocolError
		if !errors.As(err, &pe) {
			// Transport failure: record, keep the client's identity
			// (§4.1.3 keep-serving — its lease may still be live), fail
			// over, retry later, and tell the worker to redial.
			vc.home = uint8((int(vc.home) + 1) % len(f.addrs))
			f.rec.RecordShard(w, Outcome{Start: start, Latency: lat, Err: err})
			f.reschedule(id, f.retryDelay(id, vc.seq))
			return false
		}
		f.rec.RecordShard(w, Outcome{Start: start, Latency: lat, Err: err})
		switch pe.Code {
		case core.ErrCodeNoLease:
			// The server no longer knows the lease (reaped, restarted
			// peer, released): DHCP-style recovery — drop to bootstrap
			// state quickly.
			f.dropLease(vc)
			f.rebootstraps.Add(1)
			f.reschedule(id, f.retryDelay(id, vc.seq)/4)
		case core.ErrCodeNoDriver:
			if vc.state == vcBoot {
				// License denial at bootstrap: contend again later.
				f.denied.Add(1)
			} else {
				f.dropLease(vc)
			}
			f.reschedule(id, f.retryDelay(id, vc.seq))
		case core.ErrCodeRevoked:
			f.dropLease(vc)
			f.reschedule(id, f.retryDelay(id, vc.seq))
		default:
			// Internal/transfer trouble: keep state, retry later.
			f.reschedule(id, f.retryDelay(id, vc.seq))
		}
		return true
	}

	f.rec.RecordShard(w, Outcome{Start: start, Latency: lat})

	wasBoot := vc.state == vcBoot
	if wasBoot {
		vc.state = vcLive
		vc.leaseID = offer.LeaseID
		vc.renewals = 0
		f.setLive(1)
		f.setChecksum(vc, offer.DriverChecksum)
		if offer.HasDriver && f.cfg.FetchOnBootstrap {
			if !f.fetch(w, lc, vc, offer) {
				return false
			}
		}
	} else {
		vc.renewals++
		if offer.HasDriver {
			// Upgrade offered. Fetch (when configured), then adopt the
			// new generation; a failed fetch keeps the old checksum so
			// the next renewal re-offers the upgrade.
			if f.cfg.FetchOnUpgrade {
				if ok := f.fetch(w, lc, vc, offer); !ok {
					f.reschedule(id, f.retryDelay(id, vc.seq))
					return false
				}
			}
			f.setChecksum(vc, offer.DriverChecksum)
			f.upgrades.Add(1)
		}
	}

	// Voluntary release churn (license mode): give the seat back after
	// the configured number of renewals, idle, then re-contend.
	if !wasBoot && f.cfg.ReleaseAfterRenewals > 0 && int(vc.renewals) >= f.cfg.ReleaseAfterRenewals {
		rstart := time.Now()
		rerr := lc.Release(vc.leaseID)
		f.rec.RecordShard(w, Outcome{Start: rstart, Latency: time.Since(rstart), Err: rerr})
		if rerr == nil {
			f.releases.Add(1)
			f.dropLease(vc)
			f.reschedule(id, f.retryDelay(id, vc.seq))
			return true
		}
		var pe *core.ProtocolError
		if !errors.As(rerr, &pe) {
			f.reschedule(id, f.retryDelay(id, vc.seq))
			return false
		}
		// A clean protocol error on release: treat the lease as gone.
		f.dropLease(vc)
		f.reschedule(id, f.retryDelay(id, vc.seq))
		return true
	}

	f.reschedule(id, f.renewDelay(offer.LeaseTime, id, vc.seq))
	return true
}

// fetch downloads the staged blob for the client's lease, recording
// the transfer as its own outcome (a storm is mostly transfer load, so
// its latency belongs in the histogram). Returns false on transport
// failure.
func (f *Fleet) fetch(w int, lc *core.LeaseClient, vc *vclient, offer core.Offer) bool {
	start := time.Now()
	n, err := lc.FetchFile(offer.LeaseID)
	f.rec.RecordShard(w, Outcome{Start: start, Latency: time.Since(start), Err: err})
	f.transferBytes.Add(int64(n))
	if err == nil {
		return true
	}
	var pe *core.ProtocolError
	return errors.As(err, &pe)
}

// dropLease returns a client to bootstrap state.
func (f *Fleet) dropLease(vc *vclient) {
	if vc.state == vcLive {
		f.setLive(-1)
	}
	vc.state = vcBoot
	vc.leaseID = 0
	vc.renewals = 0
	// The checksum is kept: a real bootloader still has the driver
	// binary; only the lease is gone.
}

// String implements fmt.Stringer for quick scenario logging.
func (r FleetReport) String() string {
	s := r.Stats
	return fmt.Sprintf(
		"%d reqs (%.0f/s), %d errors (%d timeouts), p50 %v p95 %v p99 %v max %v, window %v, live %d, upgrades %d, denied %d, redirects %d, lag %v",
		s.Total, r.RequestsPerSec, s.Errors, s.Timeouts,
		s.P50, s.P95, s.P99, s.Max, s.ErrorWindow.Round(time.Millisecond),
		r.Live, r.Upgrades, r.Denied, r.Redirects, r.ScheduleLagMax.Round(time.Millisecond))
}
