// Command drivolutiond runs a standalone Drivolution server (§4.1.4): a
// driver distribution service backed by an embedded database. Driver
// images are loaded from a directory of encoded image files at startup
// (and re-scanned on SIGHUP-like demand is out of scope; use drivoctl to
// build image files).
//
//	drivolutiond -addr 127.0.0.1:7070 -drivers ./drivers -lease 1h
//	drivolutiond -addr 127.0.0.1:7070 -tls            # self-signed TLS
//	drivolutiond -cluster 3 -drivers ./drivers       # 3-member control plane
//
// With -cluster N (N > 1) the process runs an N-member clustered
// control plane (internal/cluster): sharded lease ownership, the
// catalog replicated to every member, heartbeat-driven failover.
// Member addresses are assigned by the kernel and logged at startup;
// probe them with `drivoctl cluster-status -server <cluster addr>`.
//
// In both modes expired leases are swept once a second
// (Server.ReapExpiredLeases): their licenses free up, their rows leave
// the lease table and the driver blobs staged for clients that never
// fetched them are dropped.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	drivolution "repro"
	"repro/internal/cluster"
	"repro/internal/dbver"
	"repro/internal/driverimg"
)

// reapInterval is how often the daemon sweeps expired leases.
const reapInterval = time.Second

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7070", "listen address")
		dir     = flag.String("drivers", "", "directory of encoded driver image files to load")
		lease   = flag.Duration("lease", time.Hour, "default lease time")
		useTLS  = flag.Bool("tls", false, "serve over TLS with a self-signed certificate")
		license = flag.Bool("license", false, "license mode: one live lease per driver")
		renew   = flag.Int("renew-policy", int(drivolution.RenewUpgrade), "default renew policy (0=RENEW 1=UPGRADE 2=REVOKE)")
		expire  = flag.Int("expiration-policy", int(drivolution.AfterCommit), "default expiration policy (0=AFTER_CLOSE 1=AFTER_COMMIT 2=IMMEDIATE)")
		members = flag.Int("cluster", 0, "run an N-member clustered control plane (0/1 = standalone)")
		shards  = flag.Int("cluster-shards", 0, "shard count for cluster mode (default 16 per member)")
		jitter  = flag.Float64("lease-jitter", 0, "± fraction smeared onto granted lease periods (e.g. 0.1)")
	)
	flag.Parse()

	opts := []drivolution.ServerOption{
		drivolution.WithDefaultLease(*lease),
		drivolution.WithDefaultPolicies(
			drivolution.RenewPolicy(*renew), drivolution.ExpirationPolicy(*expire)),
	}
	if *license {
		opts = append(opts, drivolution.WithLicenseMode())
	}
	if *jitter > 0 {
		opts = append(opts, drivolution.WithLeaseJitter(*jitter))
	}

	if *members > 1 {
		runCluster(*members, *shards, *dir, *useTLS, opts)
		return
	}
	srv, stop, err := startStandalone(*addr, *dir, *useTLS, reapInterval, opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("drivolutiond serving on %s (tls=%v)", srv.Addr(), *useTLS)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	stop()
}

// startStandalone assembles the standalone daemon: a server over an
// embedded database, the driver images of dir loaded into it, a
// listener on addr, and the reaper sweeping every reap. The returned
// stop function ends the reaper, then the server.
func startStandalone(addr, dir string, useTLS bool, reap time.Duration,
	opts []drivolution.ServerOption) (*drivolution.Server, func(), error) {
	srv, err := drivolution.NewServer("drivolutiond", drivolution.NewLocalStore(drivolution.NewDB()), opts...)
	if err != nil {
		return nil, nil, err
	}
	if dir != "" {
		n, err := loadDrivers(srv, dir)
		if err != nil {
			return nil, nil, err
		}
		log.Printf("loaded %d driver image(s) from %s", n, dir)
	}
	if useTLS {
		host, _, _ := splitHostPort(addr)
		cert, _, err := drivolution.GenerateTLSCert(host)
		if err != nil {
			return nil, nil, err
		}
		err = srv.StartTLS(addr, cert)
	} else {
		err = srv.Start(addr)
	}
	if err != nil {
		return nil, nil, err
	}
	stopReaper := reapEvery(srv, reap)
	return srv, func() { stopReaper(); srv.Stop() }, nil
}

// reapEvery sweeps srv's expired leases once per interval until the
// returned stop function is called; stop returns when the loop has
// exited. A failed sweep is logged and the next tick tries again.
func reapEvery(srv *drivolution.Server, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if _, err := srv.ReapExpiredLeases(); err != nil {
					log.Printf("lease sweep failed: %v", err)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runCluster boots an N-member clustered control plane in this
// process and blocks until interrupted. Driver images load through one
// member; statement replication puts them in every member's catalog.
func runCluster(members, shards int, dir string, useTLS bool, opts []drivolution.ServerOption) {
	if useTLS {
		log.Fatal("cluster mode does not serve TLS yet; drop -tls or -cluster")
	}
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Members:       members,
		Shards:        shards,
		NamePrefix:    "drivolutiond",
		ReapInterval:  reapInterval,
		Logf:          log.Printf,
		ServerOptions: func(int) []drivolution.ServerOption { return opts },
	})
	if err != nil {
		log.Fatal(err)
	}
	if dir != "" {
		n, err := loadDrivers(f.Servers[0], dir)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d driver image(s) from %s (replicated to %d members)", n, dir, members)
	}
	clusterAddrs := f.ClusterAddrs()
	for i, addr := range f.Addrs() {
		log.Printf("member %d (drivolutiond-%d): clients %s, cluster %s", i, i, addr, clusterAddrs[i])
	}
	log.Printf("cluster of %d serving; bootloaders take the full client address list", members)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down cluster")
	f.Stop()
}

func splitHostPort(addr string) (host, port string, err error) {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i], addr[i+1:], nil
		}
	}
	return addr, "", fmt.Errorf("no port in %q", addr)
}

// loadDrivers inserts every *.img file in dir.
func loadDrivers(srv *drivolution.Server, dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.img"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return n, fmt.Errorf("read %s: %w", p, err)
		}
		img, err := driverimg.Decode(blob)
		if err != nil {
			return n, fmt.Errorf("decode %s: %w", p, err)
		}
		id, err := srv.AddDriver(img, dbver.FormatImage)
		if err != nil {
			return n, fmt.Errorf("insert %s: %w", p, err)
		}
		log.Printf("driver %d <- %s (%s)", id, filepath.Base(p), img.Manifest.ID())
		n++
	}
	return n, nil
}
