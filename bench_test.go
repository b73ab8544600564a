package drivolution_test

// Benchmarks regenerating the paper's artifacts (see DESIGN.md §4).
// One bench per table/figure hot path plus the ablations DESIGN.md §6
// calls out. Run: go test -bench=. -benchmem .

import (
	"crypto/ed25519"
	"crypto/tls"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/scenarios"
	"repro/internal/sqlmini"
)

func addDriverB(b *testing.B, s *scenarios.Stack, ver dbver.Version, proto uint16, payload int) int64 {
	b.Helper()
	id, err := s.Drv.AddDriver(s.Image(ver, proto, payload), dbver.FormatImage)
	if err != nil {
		b.Fatal(err)
	}
	return id
}

func newStackB(b *testing.B, cfg scenarios.StackConfig) *scenarios.Stack {
	b.Helper()
	s, err := scenarios.NewStack(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// probe is the one-shot matchmaking check drivoctl runs: dial, one
// DISCOVER exchange, close.
func probe(addr string, req core.Request) (core.Offer, error) {
	c, err := core.DialLeaseClient(addr, 5*time.Second)
	if err != nil {
		return core.Offer{}, err
	}
	defer c.Close()
	return c.Discover(req)
}

// BenchmarkBootstrapProtocol measures the Table 3 flow end to end:
// DISCOVER-less REQUEST → OFFER → FILE transfer → verify → load →
// connect, per fresh bootloader.
func BenchmarkBootstrapProtocol(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	addDriverB(b, s, dbver.V(1, 0, 0), 1, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := s.Bootloader()
		c, err := bl.Connect(s.AppURL(), nil)
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
		bl.Close()
	}
}

// BenchmarkLeaseRenewalNoChange measures the Table 4 RENEW branch: one
// round trip, no transfer.
func BenchmarkLeaseRenewalNoChange(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	addDriverB(b, s, dbver.V(1, 0, 0), 1, 16<<10)
	bl := s.Bootloader()
	if _, err := bl.Connect(s.AppURL(), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bl.ForceRenew("prod"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if m := bl.Stats(); m.Renewals < int64(b.N) {
		b.Fatalf("renewals = %d, want >= %d", m.Renewals, b.N)
	}
}

// fillLeases bulk-inserts n synthetic lease rows so the per-request
// lease statements run against a populated table. driverIDFor spreads
// rows over driver ids (license-check benches) or pins them to one.
func fillLeases(b *testing.B, s *scenarios.Stack, n int, driverIDFor func(i int) int64) {
	b.Helper()
	st := s.Drv.Store()
	now := time.Now()
	args := sqlmini.Args{"g": now, "e": now.Add(24 * time.Hour)}
	const batch = 200
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		var sb strings.Builder
		sb.WriteString(`INSERT INTO ` + core.LeasesTable + ` (lease_id, driver_id,
			database, user, client_id, granted_at, expires_at, released, renewals) VALUES `)
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d, 'prod', 'app', 'filler-%d', $g, $e, FALSE, 0)",
				1_000_000+i, driverIDFor(i), i)
		}
		if _, err := st.Exec(sb.String(), args); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLeaseRenewalAtScale measures the Table 4 no-change renewal with
// the leases table pre-filled to a given population. With the lease_id
// PK driving the guarded UPDATE, ns/op must stay flat in the population
// (the 10000-lease run within ~1.5× of the 100-lease run).
func benchLeaseRenewalAtScale(b *testing.B, leases int) {
	s := newStackB(b, scenarios.StackConfig{})
	drvID := addDriverB(b, s, dbver.V(1, 0, 0), 1, 16<<10)
	bl := s.Bootloader()
	if _, err := bl.Connect(s.AppURL(), nil); err != nil {
		b.Fatal(err)
	}
	fillLeases(b, s, leases-1, func(int) int64 { return drvID })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bl.ForceRenew("prod"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeaseRenewalAt100Leases(b *testing.B)   { benchLeaseRenewalAtScale(b, 100) }
func BenchmarkLeaseRenewalAt10000Leases(b *testing.B) { benchLeaseRenewalAtScale(b, 10000) }

// benchGrantAtScale measures a lease grant (REQUEST without a lease id:
// matchmaking plus the lease INSERT) when the driver it lands on
// already carries a given number of leases — the shape of a fleet
// bootstrapping onto one driver row. Index maintenance must not scan or
// copy the driver's other leases: ns/op and B/op at 20000 leases stay
// within ~2× of the 200-lease run.
func benchGrantAtScale(b *testing.B, leases int) {
	s := newStackB(b, scenarios.StackConfig{})
	drvID := addDriverB(b, s, dbver.V(1, 0, 0), 1, 1<<10)
	fillLeases(b, s, leases, func(int) int64 { return drvID })
	lc, err := core.DialLeaseClient(s.Drv.Addr(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	req := core.Request{
		Database:       "prod",
		User:           "app",
		Password:       "app-pw",
		API:            dbver.APIOf("JDBC", 3, 0),
		ClientPlatform: dbver.PlatformLinuxAMD64,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ClientID = "grant-" + strconv.Itoa(i)
		if offer, err := lc.Request(req); err != nil || offer.LeaseID == 0 {
			b.Fatalf("grant %d: lease %d, err %v", i, offer.LeaseID, err)
		}
	}
}

func BenchmarkGrantAt200LeasesOneDriver(b *testing.B)   { benchGrantAtScale(b, 200) }
func BenchmarkGrantAt20000LeasesOneDriver(b *testing.B) { benchGrantAtScale(b, 20000) }

// BenchmarkLicenseCheckAt10000Leases measures the §5.4.2 license-mode
// lease-free check (DISCOVER through the wire) with 10000 live leases
// spread over 100 foreign drivers. The driver_id index reduces the
// count(*) from a 10000-row scan to one (empty) bucket probe.
func BenchmarkLicenseCheckAt10000Leases(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{
		ServerOpts: []core.ServerOption{core.WithLicenseMode()},
	})
	addDriverB(b, s, dbver.V(1, 0, 0), 1, 4<<10)
	fillLeases(b, s, 10000, func(i int) int64 { return 1000 + int64(i%100) })
	req := core.Request{
		Database:       "prod",
		User:           "app",
		Password:       "app-pw",
		API:            dbver.APIOf("JDBC", 3, 0),
		ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID:       "bench",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe(s.Drv.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExpirySweepAtScale measures the lease-reaper sweep with the
// leases table pre-filled to a given population of live (unexpired)
// leases spread over a given number of driver ids. The sweep skip-scans
// the (driver_id, expires_at) index, seeking each driver's expired
// prefix — empty here — so ns/op must stay near-flat across the 100×
// population growth instead of scanning every lease row, and grow with
// the driver count alone: one O(log n) seek per driver.
func benchExpirySweepAtScale(b *testing.B, leases, drivers int) {
	s := newStackB(b, scenarios.StackConfig{})
	drvID := addDriverB(b, s, dbver.V(1, 0, 0), 1, 4<<10)
	fillLeases(b, s, leases, func(i int) int64 { return drvID + int64(i%drivers) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Drv.ReapExpiredLeases(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpirySweepAt100Leases(b *testing.B)   { benchExpirySweepAtScale(b, 100, 1) }
func BenchmarkExpirySweepAt10000Leases(b *testing.B) { benchExpirySweepAtScale(b, 10000, 1) }
func BenchmarkExpirySweepAt10000LeasesOver100Drivers(b *testing.B) {
	benchExpirySweepAtScale(b, 10000, 100)
}

// BenchmarkLicenseUsageCountAt10000Leases measures the §5.4.2 license
// accounting count with a populated lease log: half the rows released,
// half live. A skip scan of the (driver_id, expires_at) index narrows
// the count to the unexpired window before the released flag is
// filtered residually.
func BenchmarkLicenseUsageCountAt10000Leases(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	drvID := addDriverB(b, s, dbver.V(1, 0, 0), 1, 4<<10)
	fillLeases(b, s, 10000, func(int) int64 { return drvID })
	if _, err := s.Drv.Store().Exec(`UPDATE ` + core.LeasesTable + `
		SET released = TRUE, expires_at = granted_at WHERE lease_id < 1005000`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Drv.LicensesInUse(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaseRenewalUpgrade measures the Table 4 UPGRADE branch: the
// driver changed; renewal downloads, verifies, loads, and hot-swaps it.
func BenchmarkLeaseRenewalUpgrade(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	curID := addDriverB(b, s, dbver.V(1, 0, 0), 1, 16<<10)
	bl := s.Bootloader()
	if _, err := bl.Connect(s.AppURL(), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nextID := addDriverB(b, s, dbver.V(1, 0, i+1), 1, 16<<10)
		if err := s.Drv.DeleteDriver(curID); err != nil {
			b.Fatal(err)
		}
		curID = nextID
		b.StartTimer()
		if err := bl.ForceRenew("prod"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if m := bl.Stats(); m.Upgrades < int64(b.N) {
		b.Fatalf("upgrades = %d, want >= %d", m.Upgrades, b.N)
	}
}

// BenchmarkMatchmaking measures the Sample code 1/2 server logic through
// the wire (DISCOVER; no lease, no transfer) against a 50-driver table.
func BenchmarkMatchmaking(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	for i := 0; i < 50; i++ {
		addDriverB(b, s, dbver.V(1, i, 0), 1, 1<<10)
	}
	req := core.Request{
		Database:       "prod",
		User:           "app",
		Password:       "app-pw",
		API:            dbver.APIOf("JDBC", 3, 0),
		ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID:       "bench",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe(s.Drv.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentMatchmaking hammers one server with parallel
// DISCOVER probes against a 50-driver table — the read-only hot path.
// Matchmaking runs entirely on lock-free catalog and MVCC snapshot
// reads (no write latch anywhere on the path), so aggregate throughput
// should scale near-linearly with GOMAXPROCS; run with -cpu=1,4,8 to
// see the curve (see scripts/bench.sh BENCH_CPU).
func BenchmarkConcurrentMatchmaking(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	for i := 0; i < 50; i++ {
		addDriverB(b, s, dbver.V(1, i, 0), 1, 1<<10)
	}
	req := core.Request{
		Database:       "prod",
		User:           "app",
		Password:       "app-pw",
		API:            dbver.APIOf("JDBC", 3, 0),
		ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID:       "bench",
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := probe(s.Drv.Addr(), req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkConcurrentRenewal measures parallel no-change renewals, each
// goroutine owning its own bootloader and therefore its own lease row.
// The renewals' guarded UPDATEs all target the leases table, so the
// per-table write latch is the serialization point; everything else on
// the path (wire handling, matchmaking reads, plan binding) runs
// concurrently, which is what lets aggregate throughput grow with
// GOMAXPROCS even though the writes themselves serialize.
func BenchmarkConcurrentRenewal(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	addDriverB(b, s, dbver.V(1, 0, 0), 1, 16<<10)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		bl := s.Bootloader()
		defer bl.Close()
		if _, err := bl.Connect(s.AppURL(), nil); err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if err := bl.ForceRenew("prod"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkConcurrentMixed is the 90/10 read/write blend: per worker,
// nine DISCOVER probes for every lease renewal — roughly the steady
// state of a fleet that renews occasionally while matchmaking traffic
// dominates. Snapshot reads never wait on the 10% writer slice, so the
// blend should track the read-only benchmark's scaling closely.
func BenchmarkConcurrentMixed(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	addDriverB(b, s, dbver.V(1, 0, 0), 1, 4<<10)
	req := core.Request{
		Database:       "prod",
		User:           "app",
		Password:       "app-pw",
		API:            dbver.APIOf("JDBC", 3, 0),
		ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID:       "bench",
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		bl := s.Bootloader()
		defer bl.Close()
		if _, err := bl.Connect(s.AppURL(), nil); err != nil {
			b.Error(err)
			return
		}
		op := 0
		for pb.Next() {
			op++
			if op%10 == 0 {
				if err := bl.ForceRenew("prod"); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			if _, err := probe(s.Drv.Addr(), req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkConcurrentBootstrap hammers one server with parallel fresh
// bootstraps (the cluster-restart stampede after an outage). It
// exercises the grant path's concurrency: catalog reads are lock-free,
// and pending-transfer staging, lease-id allocation, and subscriber
// bookkeeping sit behind separate locks.
func BenchmarkConcurrentBootstrap(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	addDriverB(b, s, dbver.V(1, 0, 0), 1, 32<<10)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bl := s.Bootloader()
			c, err := bl.Connect(s.AppURL(), nil)
			if err != nil {
				b.Error(err)
				return
			}
			c.Close()
			bl.Close()
		}
	})
}

// BenchmarkTransferSize sweeps driver binary sizes through the chunked
// FILE transfer (Figure 1's distribution path).
func BenchmarkTransferSize(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			s := newStackB(b, scenarios.StackConfig{})
			addDriverB(b, s, dbver.V(1, 0, 0), 1, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bl := s.Bootloader()
				if _, err := bl.Connect(s.AppURL(), nil); err != nil {
					b.Fatal(err)
				}
				bl.Close()
			}
		})
	}
}

// BenchmarkConnectOverhead is the interception-cost ablation: the same
// connect+query through the legacy driver vs through the bootloader
// (after its driver is installed).
func BenchmarkConnectOverhead(b *testing.B) {
	s := newStackB(b, scenarios.StackConfig{})
	addDriverB(b, s, dbver.V(1, 0, 0), 1, 4<<10)

	b.Run("legacy-driver", func(b *testing.B) {
		drv := s.LegacyDriver(1)
		for i := 0; i < b.N; i++ {
			c, err := drv.Connect(s.AppURL(), s.LegacyProps())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Query("SELECT 1"); err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
	})
	b.Run("bootloader", func(b *testing.B) {
		bl := s.Bootloader()
		if _, err := bl.Connect(s.AppURL(), nil); err != nil {
			b.Fatal(err) // install once, outside the loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := bl.Connect(s.AppURL(), nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Query("SELECT 1"); err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
	})
}

// BenchmarkSecureTransfer is the DESIGN.md §6 ablation 4: bootstrap cost
// plaintext+unsigned vs signed vs TLS.
func BenchmarkSecureTransfer(b *testing.B) {
	const payload = 64 << 10
	b.Run("plain", func(b *testing.B) {
		s := newStackB(b, scenarios.StackConfig{})
		addDriverB(b, s, dbver.V(1, 0, 0), 1, payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bl := s.Bootloader()
			if _, err := bl.Connect(s.AppURL(), nil); err != nil {
				b.Fatal(err)
			}
			bl.Close()
		}
	})
	b.Run("signed", func(b *testing.B) {
		pub, priv, err := ed25519.GenerateKey(nil)
		if err != nil {
			b.Fatal(err)
		}
		s := newStackB(b, scenarios.StackConfig{ServerOpts: []core.ServerOption{core.WithSigningKey(priv)}})
		addDriverB(b, s, dbver.V(1, 0, 0), 1, payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bl := s.Bootloader(core.WithTrustKey(pub))
			if _, err := bl.Connect(s.AppURL(), nil); err != nil {
				b.Fatal(err)
			}
			bl.Close()
		}
	})
	b.Run("tls", func(b *testing.B) {
		cert, roots, err := core.GenerateTLSCert("127.0.0.1")
		if err != nil {
			b.Fatal(err)
		}
		s := newStackB(b, scenarios.StackConfig{})
		addDriverB(b, s, dbver.V(1, 0, 0), 1, payload)
		tlsSrv, err := core.NewServer("tls", core.NewLocalStore(s.Drv.Store().(*core.LocalStore).DB))
		if err != nil {
			b.Fatal(err)
		}
		if err := tlsSrv.StartTLS("127.0.0.1:0", cert); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(tlsSrv.Stop)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bl := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
				[]string{tlsSrv.Addr()}, s.RT,
				core.WithCredentials("app", "app-pw"),
				core.WithTLS(&tls.Config{RootCAs: roots, ServerName: "127.0.0.1"}))
			if _, err := bl.Connect(s.AppURL(), nil); err != nil {
				b.Fatal(err)
			}
			bl.Close()
		}
	})
}

// BenchmarkExpirationPolicies measures the connection-transition sweep
// of an upgrade for each Table 2 expiration policy, with 8 idle
// connections per iteration.
func BenchmarkExpirationPolicies(b *testing.B) {
	for _, pol := range []core.ExpirationPolicy{core.AfterClose, core.AfterCommit, core.Immediate} {
		b.Run(pol.String(), func(b *testing.B) {
			s := newStackB(b, scenarios.StackConfig{
				ServerOpts: []core.ServerOption{core.WithDefaultPolicies(core.RenewUpgrade, pol)},
			})
			curID := addDriverB(b, s, dbver.V(1, 0, 0), 1, 8<<10)
			bl := s.Bootloader()
			if _, err := bl.Connect(s.AppURL(), nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				conns := make([]client.Conn, 8)
				for j := range conns {
					c, err := bl.Connect(s.AppURL(), nil)
					if err != nil {
						b.Fatal(err)
					}
					conns[j] = c
				}
				nextID := addDriverB(b, s, dbver.V(1, 0, i+1), 1, 8<<10)
				if err := s.Drv.DeleteDriver(curID); err != nil {
					b.Fatal(err)
				}
				curID = nextID
				b.StartTimer()
				if err := bl.ForceRenew("prod"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, c := range conns {
					c.Close()
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkUpgradePropagation compares the complete rollout of one
// driver upgrade to a fleet of 8 clients: the traditional lifecycle
// (stop app, replace driver, restart, reconnect — modelled as a full
// reconnect cycle per client plus the server bounce) vs Drivolution (one
// insert + per-client renewals). This is the paper's 10-steps-vs-1
// claim in wall-clock form (Q1).
func BenchmarkUpgradePropagation(b *testing.B) {
	const fleet = 8
	b.Run("traditional-restart", func(b *testing.B) {
		s := newStackB(b, scenarios.StackConfig{})
		drv := s.LegacyDriver(1)
		for i := 0; i < b.N; i++ {
			// Each client: stop (close), driver replaced, restart
			// (reconnect + first query).
			for cNum := 0; cNum < fleet; cNum++ {
				c, err := drv.Connect(s.AppURL(), s.LegacyProps())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Query("SELECT 1"); err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		}
	})
	b.Run("drivolution-hot-swap", func(b *testing.B) {
		s := newStackB(b, scenarios.StackConfig{})
		curID := addDriverB(b, s, dbver.V(1, 0, 0), 1, 8<<10)
		bls := make([]*core.Bootloader, fleet)
		for j := range bls {
			bls[j] = s.Bootloader()
			if _, err := bls[j].Connect(s.AppURL(), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nextID := addDriverB(b, s, dbver.V(1, 0, i+1), 1, 8<<10)
			if err := s.Drv.DeleteDriver(curID); err != nil {
				b.Fatal(err)
			}
			curID = nextID
			b.StartTimer()
			for _, bl := range bls {
				if err := bl.ForceRenew("prod"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkLeaseTrafficSweep measures the §3.2 trade-off (Q2): server
// request rate as a function of lease time, for a fixed observation
// window per iteration. ns/op is the window; the reported metric
// renewals/s is the traffic.
func BenchmarkLeaseTrafficSweep(b *testing.B) {
	for _, lease := range []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 160 * time.Millisecond} {
		b.Run(lease.String(), func(b *testing.B) {
			s := newStackB(b, scenarios.StackConfig{
				ServerOpts: []core.ServerOption{core.WithDefaultLease(lease)},
			})
			addDriverB(b, s, dbver.V(1, 0, 0), 1, 4<<10)
			bl := s.Bootloader(core.WithRenewAhead(0.8))
			if _, err := bl.Connect(s.AppURL(), nil); err != nil {
				b.Fatal(err)
			}
			const window = 200 * time.Millisecond
			b.ResetTimer()
			var renewals int64
			for i := 0; i < b.N; i++ {
				before := bl.Stats().Renewals
				time.Sleep(window)
				renewals += bl.Stats().Renewals - before
			}
			b.StopTimer()
			secs := window.Seconds() * float64(b.N)
			b.ReportMetric(float64(renewals)/secs, "renewals/s")
		})
	}
}

// externalStack boots the Figure 2 shape for benchmarking: a legacy
// DBMS holding both the application data ("prod") and the Drivolution
// schema ("meta"), an external Drivolution server reaching the schema
// through a ConnStore over the legacy native driver, and a driver
// runtime.
type externalStack struct {
	legacy *dbms.Server
	store  *core.ConnStore
	drv    *core.Server
	rt     *driverimg.Runtime
}

func newExternalStackB(b *testing.B) *externalStack {
	return newExternalStackProto(b, 1)
}

// newExternalStackProto boots the external stack with the Drivolution
// server's legacy connection pinned to storeProto: 1 keeps the v1 SQL
// path (no remote prepare, no generation probes), 2 negotiates the full
// v2 session contract.
func newExternalStackProto(b *testing.B, storeProto uint16) *externalStack {
	b.Helper()
	appDB := sqlmini.NewDB()
	appDB.MustExec("CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)")
	appDB.MustExec("INSERT INTO items (id, name) VALUES (1, 'widget')")
	legacy := dbms.NewServer("legacy-db",
		dbms.WithUser("app", "app-pw"),
		dbms.WithUser("drivolution", "svc-pw"))
	legacy.AddDatabase("prod", appDB)
	legacy.AddDatabase("meta", sqlmini.NewDB())
	if err := legacy.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(legacy.Stop)

	legacyDriver := dbms.NewNativeDriver(dbver.V(1, 0, 0), storeProto)
	addr := legacy.Addr()
	store := core.NewConnStore(func() (client.Conn, error) {
		return legacyDriver.Connect("dbms://"+addr+"/meta",
			client.Props{"user": "drivolution", "password": "svc-pw"})
	})
	b.Cleanup(store.Close)

	drv, err := core.NewServer("external-drivolution", store)
	if err != nil {
		b.Fatal(err)
	}
	if err := drv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(drv.Stop)

	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	return &externalStack{legacy: legacy, store: store, drv: drv, rt: rt}
}

func (s *externalStack) image(payload int) *driverimg.Image {
	body := make([]byte, payload)
	for i := range body {
		body[i] = byte(i * 13)
	}
	return &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         dbver.V(1, 0, 0),
			ProtocolVersion: 1,
			Options:         map[string]string{"user": "app", "password": "app-pw"},
		},
		Payload: body,
	}
}

// BenchmarkExternalLeaseRenewal measures the Table 4 no-change renewal
// against the external deployment (Figure 2): every matchmaking and
// lease statement crosses a real driver connection to the legacy DBMS
// through the pooled ConnStore, so this tracks the per-renewal wire
// cost of the SQL path (ConnStore has no generation counter, so no
// catalog shortcut applies).
func BenchmarkExternalLeaseRenewal(b *testing.B) {
	s := newExternalStackB(b)
	if _, err := s.drv.AddDriver(s.image(16<<10), dbver.FormatImage); err != nil {
		b.Fatal(err)
	}
	bl := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{s.drv.Addr()}, s.rt,
		core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(2*time.Second))
	b.Cleanup(bl.Close)
	if _, err := bl.Connect("dbms://"+s.legacy.Addr()+"/prod", nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bl.ForceRenew("prod"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExternalReapAt1000Leases measures the expiry sweep against
// the external deployment with 1000 live leases in the remote log: the
// whole sweep is one statement on the legacy connection (staged-blob
// reclamation is in-memory), so ns/op tracks a single wire round trip
// regardless of the lease population.
func BenchmarkExternalReapAt1000Leases(b *testing.B) {
	s := newExternalStackB(b)
	if _, err := s.drv.AddDriver(s.image(4<<10), dbver.FormatImage); err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	args := sqlmini.Args{"g": now, "e": now.Add(24 * time.Hour)}
	const batch = 200
	for lo := 0; lo < 1000; lo += batch {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO ` + core.LeasesTable + ` (lease_id, driver_id,
			database, user, client_id, granted_at, expires_at, released, renewals) VALUES `)
		for i := lo; i < lo+batch; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, 1, 'prod', 'app', 'filler-%d', $g, $e, FALSE, 0)", 1_000_000+i, i)
		}
		if _, err := s.store.Exec(sb.String(), args); err != nil {
			b.Fatal(err)
		}
	}
	queriesBefore := s.legacy.QueriesServed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.drv.ReapExpiredLeases(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := s.legacy.QueriesServed() - queriesBefore; got != int64(b.N) {
		b.Fatalf("sweeps must cost one statement each: %d statements for %d sweeps", got, b.N)
	}
}

// BenchmarkExternalMatchmaking measures steady-state matchmaking on the
// external deployment over a v2 session: the wire generation probe
// (msgTableVersions) validates the in-memory catalog, so a DISCOVER
// costs ZERO SQL statements on the legacy DBMS — the Sample code 1/2
// queries that BenchmarkExternalLeaseRenewal's v1 path still pays per
// request are gone. Pinned: the measured window must reach the legacy
// server with no statements at all.
func BenchmarkExternalMatchmaking(b *testing.B) {
	s := newExternalStackProto(b, 2)
	for i := 0; i < 50; i++ {
		if _, err := s.drv.AddDriver(s.image(1<<10), dbver.FormatImage); err != nil {
			b.Fatal(err)
		}
	}
	req := core.Request{
		Database:       "prod",
		User:           "app",
		Password:       "app-pw",
		API:            dbver.APIOf("JDBC", 3, 0),
		ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID:       "bench",
	}
	// Warm: load the catalog and fix capability detection.
	if _, err := probe(s.drv.Addr(), req); err != nil {
		b.Fatal(err)
	}
	queriesBefore := s.legacy.QueriesServed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe(s.drv.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := s.legacy.QueriesServed() - queriesBefore; got != 0 {
		b.Fatalf("steady-state external matchmaking leaked %d SQL statements for %d probes, want 0", got, b.N)
	}
}

// BenchmarkExternalPreparedRenewal measures the Table 4 no-change
// renewal on the external deployment over a v2 session: matchmaking is
// served from the catalog and the single guarded UPDATE runs through a
// remote prepared handle (msgExecStmt), whose reply carries the table
// versions the catalog is checked against — the legacy DBMS sees
// exactly one pre-parsed statement, and one frame, per renewal.
// Compare BenchmarkExternalLeaseRenewal, the same flow over a v1
// session (full SQL matchmaking, per-call parsing).
func BenchmarkExternalPreparedRenewal(b *testing.B) {
	s := newExternalStackProto(b, 2)
	if _, err := s.drv.AddDriver(s.image(16<<10), dbver.FormatImage); err != nil {
		b.Fatal(err)
	}
	bl := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{s.drv.Addr()}, s.rt,
		core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(2*time.Second))
	b.Cleanup(bl.Close)
	if _, err := bl.Connect("dbms://"+s.legacy.Addr()+"/prod", nil); err != nil {
		b.Fatal(err)
	}
	if err := bl.ForceRenew("prod"); err != nil { // warm catalog + handles
		b.Fatal(err)
	}
	queriesBefore := s.legacy.QueriesServed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bl.ForceRenew("prod"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := s.legacy.QueriesServed() - queriesBefore; got != int64(b.N) {
		b.Fatalf("renewals must cost one statement each: %d statements for %d renewals", got, b.N)
	}
}
