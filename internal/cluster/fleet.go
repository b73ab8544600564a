package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// FleetConfig describes an in-process cluster of Drivolution servers.
type FleetConfig struct {
	Members int // cluster size; must be ≥ 1
	Shards  int // default 16 per member

	Database    string // replicated database name; default "drivolution"
	NamePrefix  string // member names are <prefix>-<i>; default "drivolution"
	LicenseMode bool   // license servers (§5.4); forces driver-keyed shards

	LeaseJitter  float64       // ± fraction applied to granted lease periods
	DefaultLease time.Duration // passed to core.WithDefaultLease when set

	HeartbeatInterval time.Duration // membership cadence; default 250ms
	FailAfter         time.Duration // takeover deadline; default 8× heartbeat
	FenceAfter        time.Duration // self-fencing deadline; default 4× heartbeat
	DialTimeout       time.Duration

	ReapInterval  time.Duration // expired-lease reaping; 0 disables
	SweepInterval time.Duration // MVCC background sweep per store; 0 disables

	// ClusterDial lets tests interpose faultnet proxies on the
	// member-to-member links (client links are untouched).
	ClusterDial func(from, to int, addr string, timeout time.Duration) (*wire.Conn, error)

	// ServerOptions appends extra core.ServerOption values per member.
	ServerOptions func(i int) []core.ServerOption

	Logf func(format string, args ...any)
}

// Fleet assembles N members in one process: per-member store, a
// full-mesh replication hub, the core server, and the membership
// layer. Tests, benchmarks, examples and `drivolutiond -cluster` drive
// whole clusters through it.
type Fleet struct {
	DBs     []*sqlmini.DB
	Hubs    []*dbms.Server
	Servers []*core.Server
	Members []*Member

	cfg        FleetConfig
	slots      []atomic.Pointer[Member]
	killed     []atomic.Bool
	sweepStops []func()
	stopCh     chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

// NewFleet builds and starts the whole cluster. On return every member
// is serving clients and heartbeating its peers.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	n := cfg.Members
	if n <= 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one member, got %d", n)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16 * n
	}
	if cfg.Database == "" {
		cfg.Database = "drivolution"
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "drivolution"
	}
	f := &Fleet{
		cfg:     cfg,
		DBs:     make([]*sqlmini.DB, n),
		Hubs:    make([]*dbms.Server, n),
		Servers: make([]*core.Server, n),
		Members: make([]*Member, n),
		slots:   make([]atomic.Pointer[Member], n),
		killed:  make([]atomic.Bool, n),
		stopCh:  make(chan struct{}),
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("%s-%d", cfg.NamePrefix, i)
	}

	// Stores first: each member owns a database carrying the full
	// schema. Schema DDL runs locally per member, before the mesh
	// exists, so it is never replicated (replicating CREATE TABLE to a
	// peer that already ran its own would fail).
	for i := 0; i < n; i++ {
		db := sqlmini.NewDB()
		if err := core.EnsureSchema(core.NewLocalStore(db)); err != nil {
			return nil, fmt.Errorf("cluster: schema on %s: %w", names[i], err)
		}
		f.DBs[i] = db
		hub := dbms.NewServer(names[i] + "-hub")
		hub.AddDatabase(cfg.Database, db)
		f.Hubs[i] = hub
	}
	// Full-mesh statement replication: a mutation on any member
	// re-executes synchronously on every other, so each store holds
	// the complete catalog and lease table at all times.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				f.Hubs[i].AttachReplica(f.Hubs[j])
			}
		}
	}

	// Core servers. The router indirects through an atomic slot: the
	// membership layer needs the servers' client addresses to exist,
	// so until the slot is filled everything routes locally.
	for i := 0; i < n; i++ {
		slot := &f.slots[i]
		router := func(driverID int64, clientID string) core.Route {
			if mem := slot.Load(); mem != nil {
				return mem.Route(driverID, clientID)
			}
			return core.Route{Local: true}
		}
		opts := []core.ServerOption{
			core.WithShardRouter(router),
			// Distinct id residues per member: concurrent grants on
			// different members can never collide on a lease id.
			core.WithIDStride(uint64(i), uint64(n)),
		}
		if cfg.LicenseMode {
			opts = append(opts, core.WithLicenseMode())
		}
		if cfg.LeaseJitter > 0 {
			opts = append(opts, core.WithLeaseJitter(cfg.LeaseJitter))
		}
		if cfg.DefaultLease > 0 {
			opts = append(opts, core.WithDefaultLease(cfg.DefaultLease))
		}
		if cfg.ServerOptions != nil {
			opts = append(opts, cfg.ServerOptions(i)...)
		}
		srv, err := core.NewServer(names[i], &replicatedStore{
			db: f.DBs[i], hub: f.Hubs[i], name: cfg.Database,
		}, opts...)
		if err != nil {
			f.Stop()
			return nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			f.Stop()
			return nil, err
		}
		f.Servers[i] = srv
	}

	clientAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		clientAddrs[i] = f.Servers[i].Addr()
	}
	for i := 0; i < n; i++ {
		i := i
		mcfg := MemberConfig{
			Index:             i,
			Names:             names,
			ClientAddrs:       clientAddrs,
			Shards:            cfg.Shards,
			ByDriver:          cfg.LicenseMode,
			HeartbeatInterval: cfg.HeartbeatInterval,
			FailAfter:         cfg.FailAfter,
			FenceAfter:        cfg.FenceAfter,
			DialTimeout:       cfg.DialTimeout,
			Logf:              cfg.Logf,
		}
		if cfg.ClusterDial != nil {
			mcfg.Dial = func(to int, addr string, timeout time.Duration) (*wire.Conn, error) {
				return cfg.ClusterDial(i, to, addr, timeout)
			}
		}
		mem, err := NewMember(mcfg)
		if err != nil {
			f.Stop()
			return nil, err
		}
		f.Members[i] = mem
	}
	clusterAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		clusterAddrs[i] = f.Members[i].ClusterAddr()
	}
	for i := 0; i < n; i++ {
		if err := f.Members[i].Start(clusterAddrs); err != nil {
			f.Stop()
			return nil, err
		}
		f.slots[i].Store(f.Members[i])
	}

	if cfg.SweepInterval > 0 {
		for _, db := range f.DBs {
			f.sweepStops = append(f.sweepStops, db.StartSweeper(cfg.SweepInterval))
		}
	}
	if cfg.ReapInterval > 0 {
		f.wg.Add(1)
		go f.reapLoop()
	}
	return f, nil
}

// replicatedStore is the member-local Store: statements and batches
// run on the local database through the replication hub, which ships
// every applied mutation to the peers; version probes read the local
// counters directly.
type replicatedStore struct {
	db   *sqlmini.DB
	hub  *dbms.Server
	name string
}

func (s *replicatedStore) Exec(sql string, args ...any) (*sqlmini.Result, error) {
	return s.hub.Execute(s.name, sql, args...)
}

// Prepare returns a handle over the hub, so prepared executions
// replicate like plain ones.
func (s *replicatedStore) Prepare(sql string) (core.Stmt, error) {
	return hubStmt{s: s, sql: sql}, nil
}

// ExecBatch runs stmts as one atomic unit on the local database; peers
// receive its mutations only once the whole unit applied.
func (s *replicatedStore) ExecBatch(stmts []core.Statement) ([]*sqlmini.Result, error) {
	return s.hub.ExecuteBatch(s.name, stmts)
}

// Versions reads the local database's counters; replicated peer
// mutations bump them like local ones, so the catalog cache
// invalidates cluster-wide.
func (s *replicatedStore) Versions() (drivers, perms uint64, ok bool) {
	return s.db.TableVersion(core.DriversTable), s.db.TableVersion(core.PermissionTable), true
}

type hubStmt struct {
	s   *replicatedStore
	sql string
}

func (h hubStmt) Exec(args ...any) (*sqlmini.Result, error) { return h.s.Exec(h.sql, args...) }
func (h hubStmt) Close() error                              { return nil }

// reapLoop expires leases once per interval on the first live member;
// the deleting statements replicate, so one reaper covers the fleet.
func (f *Fleet) reapLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
		}
		for i := range f.Servers {
			if f.killed[i].Load() {
				continue
			}
			if _, err := f.Servers[i].ReapExpiredLeases(); err != nil && f.cfg.Logf != nil {
				f.cfg.Logf("cluster: reap on member %d: %v", i, err)
			}
			break
		}
	}
}

// Addrs lists the members' client-facing addresses — the server list a
// multi-server bootloader is configured with (§5.3.2).
func (f *Fleet) Addrs() []string {
	addrs := make([]string, len(f.Servers))
	for i, s := range f.Servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

// ClusterAddrs lists the members' cluster-protocol addresses (status
// probes, transfers).
func (f *Fleet) ClusterAddrs() []string {
	addrs := make([]string, len(f.Members))
	for i, m := range f.Members {
		addrs[i] = m.ClusterAddr()
	}
	return addrs
}

// HomeOf reports which member a (driver, client) grant routes to when
// every member is alive.
func (f *Fleet) HomeOf(driverID int64, clientID string) int {
	sm := ShardMap{Shards: f.cfg.Shards, ByDriver: f.cfg.LicenseMode}
	return sm.Home(sm.Shard(driverID, clientID), len(f.Servers))
}

// Kill simulates the death of one member: its client listener,
// cluster listener and heartbeats stop, and its hub is detached from
// the mesh in both directions so nothing reaches its store anymore.
// Peers notice through missed heartbeats and take over its shards.
func (f *Fleet) Kill(i int) {
	if f.killed[i].Swap(true) {
		return
	}
	f.Members[i].Stop()
	f.Servers[i].Stop()
	for j := range f.Hubs {
		if j != i {
			f.Hubs[j].DetachReplica(f.Hubs[i])
			f.Hubs[i].DetachReplica(f.Hubs[j])
		}
	}
}

// Stop tears the whole fleet down.
func (f *Fleet) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.wg.Wait()
	for _, stop := range f.sweepStops {
		stop()
	}
	f.sweepStops = nil
	for _, m := range f.Members {
		if m != nil {
			m.Stop()
		}
	}
	for _, s := range f.Servers {
		if s != nil {
			s.Stop()
		}
	}
}
