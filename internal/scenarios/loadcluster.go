package scenarios

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/workload"
)

// This file is the cluster tier of the load harness: the same
// simulated-bootloader fleet the single-server scenarios drive, pointed
// at a multi-member control plane (internal/cluster), with one member
// killed mid-run. It is the paper's Figure 4 failover experiment lifted
// from the database tier to the Drivolution servers themselves, at
// fleet scale. The tier is opt-in (`make loadtest CLUSTER=3`) so the
// tier-1 critical path stays single-server.

// loadCluster runs the steady-state fleet against a cfg.Cluster-member
// cluster and kills one member halfway through the measured phase.
// Invariants pinned, per the clustering design:
//
//   - routing works: clients follow REDIRECT answers to shard owners
//     (the run must observe redirects — every client starts on an
//     arbitrary member);
//   - the kill costs no lease: survivors renew the dead member's
//     leases from the replicated store under the original identity, so
//     the fleet finishes fully live with zero rebootstraps;
//   - availability loss is bounded by one renewal round: errors stop
//     once every client whose home died has failed over, not at the
//     end of the run.
func loadCluster(cfg LoadConfig) (*LoadResult, error) {
	members := cfg.Cluster
	if members <= 0 {
		members = 3
	}
	if members < 2 {
		return nil, fmt.Errorf("cluster scenario needs >= 2 members to survive a kill, got %d", members)
	}

	// Membership timings scaled for the scenario: takeover within
	// 400ms of the kill, far inside a lease term, so failover cost is
	// set by client retry schedules rather than failure detection.
	hb := 50 * time.Millisecond
	cf, err := cluster.NewFleet(cluster.FleetConfig{
		Members:           members,
		DefaultLease:      cfg.Lease,
		HeartbeatInterval: hb,
		FenceAfter:        4 * hb,
		FailAfter:         8 * hb,
		DialTimeout:       time.Second,
		// No reaper, like the single-server tiers: expiry stays lazy,
		// so a renewal the failover delayed past expiry re-extends the
		// same lease row instead of rebootstrapping. The cluster chaos
		// test covers the aggressive-reap regime.
		SweepInterval: cfg.Lease / 4,
	})
	if err != nil {
		return nil, err
	}
	defer cf.Stop()
	// One AddDriver on any member replicates the catalog everywhere.
	if _, err := cf.Servers[0].AddDriver(loadImage(dbver.V(1, 0, 0), cfg.Payload), dbver.FormatImage); err != nil {
		return nil, err
	}
	stmts0 := clusterStmts(cf)

	f, err := workload.NewFleet(workload.FleetConfig{
		Addrs:         cf.Addrs(),
		Database:      "prod",
		User:          "app",
		Password:      "app-pw",
		Population:    cfg.Population,
		Workers:       cfg.Workers,
		Seed:          cfg.Seed,
		RampUp:        rampFor(cfg),
		RenewAhead:    0.8,
		RetryInterval: cfg.Lease / 4,
		OpTimeout:     5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	f.Start()
	defer f.Stop()
	if err := settle(f, cfg); err != nil {
		return nil, err
	}

	//lint:sleep-ok scripted failover timeline: steady multi-member traffic before the kill
	time.Sleep(cfg.Duration / 2)
	cf.Kill(members - 1)
	// Ride out the failover under load: every client renews at least
	// once after the kill (renewals fire at 0.8 of a term), so by half
	// a duration plus one term the whole population has either failed
	// over or lost its lease — exactly what the report distinguishes.
	//lint:sleep-ok scripted failover timeline: survivors absorb the dead member's shards under load
	time.Sleep(cfg.Duration/2 + cfg.Lease)

	f.Stop()
	rep := f.Report()
	res := result("cluster", cfg, rep, int64(clusterStmts(cf)-stmts0))
	if rep.Redirects == 0 {
		return res, fmt.Errorf("no redirects across %d members — shard routing was not exercised", members)
	}
	if rep.Live != cfg.Population {
		return res, fmt.Errorf("cluster fleet: %d/%d clients hold a lease after the kill", rep.Live, cfg.Population)
	}
	if rep.Rebootstraps != 0 {
		return res, fmt.Errorf("%d clients lost their lease across the member kill", rep.Rebootstraps)
	}
	// Errors are expected (clients whose home died fail mid-exchange)
	// but must stop within one renewal round of the kill, not track
	// run length.
	if bound := 2 * cfg.Lease; rep.Stats.ErrorWindow > bound {
		return res, fmt.Errorf("failover cost not bounded: error window %v > %v (two lease terms)",
			rep.Stats.ErrorWindow, bound)
	}
	return res, nil
}

// clusterStmts sums the effective mutating statements applied to one
// member's store. Statement replication applies every write on every
// member, so a single member observes the cluster-wide write stream;
// sqlmini table versions advance once per effective mutation (a
// renewal's guarded UPDATE always changes expires_at, so renewals are
// never no-ops).
func clusterStmts(cf *cluster.Fleet) uint64 {
	return cf.DBs[0].TableVersions(core.DriversTable, core.PermissionTable, core.LeasesTable)
}
