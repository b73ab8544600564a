package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Membership timings for tests: fast enough that failover completes
// in well under a second, with the fencing invariant
// (FenceAfter + 2×heartbeat < FailAfter) intact.
const (
	tHeartbeat = 40 * time.Millisecond
	tFence     = 160 * time.Millisecond
	tFail      = 600 * time.Millisecond
	tDial      = 250 * time.Millisecond
)

func testFleetConfig(members int) FleetConfig {
	return FleetConfig{
		Members:           members,
		HeartbeatInterval: tHeartbeat,
		FenceAfter:        tFence,
		FailAfter:         tFail,
		DialTimeout:       tDial,
	}
}

func newTestFleet(t testing.TB, cfg FleetConfig) *Fleet {
	t.Helper()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// newTarget starts the application DBMS the driver images point at.
func newTarget(t testing.TB) *dbms.Server {
	t.Helper()
	appDB := sqlmini.NewDB()
	appDB.MustExec("CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)")
	appDB.MustExec("INSERT INTO items (id, name) VALUES (1, 'widget')")
	target := dbms.NewServer("prod-db", dbms.WithUser("app", "app-pw"))
	target.AddDatabase("prod", appDB)
	if err := target.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(target.Stop)
	return target
}

func testImage(version dbver.Version) *driverimg.Image {
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         version,
			ProtocolVersion: 1,
			Options:         map[string]string{"user": "app", "password": "app-pw"},
			Packages:        []string{"core"},
		},
		Payload: payload,
	}
}

func newRuntime() *driverimg.Runtime {
	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	return rt
}

// seedDriver inserts one driver plus a permission for user through one
// member; replication carries both to every peer.
func seedDriver(t testing.TB, f *Fleet, via int, user string, lease time.Duration) int64 {
	t.Helper()
	id, err := f.Servers[via].AddDriver(testImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Servers[via].SetPermission(core.Permission{
		User: user, DriverID: id, LeaseTime: lease,
		RenewPolicy: core.RenewUpgrade, ExpirationPolicy: core.AfterClose,
		TransferMethod: core.TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	return id
}

func testRequest(user, clientID string) core.Request {
	return core.Request{
		Database: "prod", User: user, Password: user + "-pw",
		API:            dbver.APIOf("JDBC", 3, 0),
		ClientPlatform: dbver.PlatformLinuxAMD64,
		ClientID:       clientID,
	}
}

// clientOwnedBy searches for a client id whose shard (in client-keyed
// mode, every member alive) is homed on the wanted member.
func clientOwnedBy(t testing.TB, f *Fleet, want int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("client-%d", i)
		if f.HomeOf(0, id) == want {
			return id
		}
	}
	t.Fatal("no client id hashes to the wanted member")
	return ""
}

// TestCatalogReplication pins the replicated-catalog half of the
// design: a driver added through one member is answerable — from the
// local store, via DISCOVER — by every member, and the row physically
// exists in each member's own database.
func TestCatalogReplication(t *testing.T) {
	f := newTestFleet(t, testFleetConfig(3))
	seedDriver(t, f, 0, "", time.Hour)

	for i, db := range f.DBs {
		//lint:scan-ok test introspection: counting rows in a 1-row table
		res, err := db.Exec("SELECT driver_id FROM " + core.DriversTable)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("member %d store has %d driver rows, want 1 (replication)", i, len(res.Rows))
		}
	}
	for i, addr := range f.Addrs() {
		lc, err := core.DialLeaseClient(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		offer, err := lc.Discover(testRequest("app", fmt.Sprintf("probe-%d", i)))
		lc.Close()
		if err != nil {
			t.Fatalf("member %d declined discover: %v", i, err)
		}
		if !offer.HasDriver || offer.DriverChecksum == "" {
			t.Fatalf("member %d offered no driver: %+v", i, offer)
		}
	}
}

// TestRedirectToOwner pins the sharded-ownership half: a REQUEST sent
// to a non-owning member comes back as a REDIRECT frame naming the
// owner — no proxying — and the same request succeeds at the owner.
func TestRedirectToOwner(t *testing.T) {
	f := newTestFleet(t, testFleetConfig(3))
	seedDriver(t, f, 0, "", time.Hour)

	clientID := clientOwnedBy(t, f, 1)
	lc0, err := core.DialLeaseClient(f.Servers[0].Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lc0.Close()
	_, err = lc0.Request(testRequest("app", clientID))
	var re *core.Redirect
	if !errors.As(err, &re) {
		t.Fatalf("non-owner answered %v, want redirect", err)
	}
	if re.Addr != f.Servers[1].Addr() {
		t.Fatalf("redirect names %q, want owner %q", re.Addr, f.Servers[1].Addr())
	}
	if got := f.Servers[0].Counters().Redirects; got != 1 {
		t.Fatalf("redirect counter = %d, want 1", got)
	}

	// The connection survived the redirect (it is a clean exchange)…
	if _, err := lc0.Discover(testRequest("app", clientID)); err != nil {
		t.Fatalf("connection poisoned by redirect: %v", err)
	}
	// …and the owner grants.
	lc1, err := core.DialLeaseClient(re.Addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lc1.Close()
	offer, err := lc1.Request(testRequest("app", clientID))
	if err != nil {
		t.Fatalf("owner declined: %v", err)
	}
	if offer.LeaseID == 0 {
		t.Fatal("owner granted no lease")
	}

	// An operator's status probe over the cluster listener reports the
	// same ring: quorate, every peer alive, the shards split evenly.
	st, err := FetchStatus(f.Members[0].ClusterAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quorate || st.Shards != uint32(f.cfg.Shards) || len(st.Peers) != 3 {
		t.Fatalf("status = %+v", st)
	}
	for i, p := range st.Peers {
		if !p.Alive || p.Self != (i == 0) || p.OwnedShards != st.Shards/3 {
			t.Fatalf("status peer %d = %+v, want alive owning %d shards", i, p, st.Shards/3)
		}
	}
}

// TestOwnerDeathKeepsLease is the §4.1.3 keep-serving pin at cluster
// scope: the member holding a bootloader's lease dies mid-lease; the
// bootloader fails over, a survivor renews from its replicated lease
// row, and the lease keeps its identity — same id, no revocation, no
// re-bootstrap.
func TestOwnerDeathKeepsLease(t *testing.T) {
	f := newTestFleet(t, testFleetConfig(3))
	target := newTarget(t)
	seedDriver(t, f, 0, "", time.Hour)

	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		f.Addrs(), newRuntime(),
		core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(time.Second),
		core.WithRetryInterval(20*time.Millisecond))
	defer b.Close()
	conn, err := b.Connect("dbms://"+target.Addr()+"/prod", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	leaseID := b.LeaseID()
	owner := b.ServerAddr()
	victim := -1
	for i, addr := range f.Addrs() {
		if addr == owner {
			victim = i
		}
	}
	if leaseID == 0 || victim < 0 {
		t.Fatalf("no lease established (id %d, owner %q)", leaseID, owner)
	}

	f.Kill(victim)

	// Until the survivors' failure detector fires, renewals bounce
	// (dead owner, or redirects back to it); the bootloader must keep
	// the driver through all of it. Poll until a renewal lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := b.ForceRenew("prod"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no survivor took over the dead member's shard")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := b.LeaseID(); got != leaseID {
		t.Fatalf("lease lost its identity across failover: %d -> %d", leaseID, got)
	}
	if m := b.Stats(); m.Revocations != 0 || m.Bootstraps != 1 {
		t.Fatalf("failover was not seamless: %+v", m)
	}
	if b.ServerAddr() == owner {
		t.Fatal("renewal still pinned to the dead member")
	}
	// The connection opened before the failure kept serving throughout
	// (§4.1.3: applications never notice a control-plane death).
	if _, err := conn.Exec("SELECT id FROM items", nil); err != nil {
		t.Fatalf("data path broke during failover: %v", err)
	}
}

// linkCutter partitions a member's cluster links on demand: new dials
// fail and established heartbeat connections are severed, while
// client-facing links stay up — exactly the asymmetry fencing exists
// for.
type linkCutter struct {
	mu    sync.Mutex
	cut   bool
	conns []*wire.Conn
}

func (lc *linkCutter) dial(addr string, timeout time.Duration) (*wire.Conn, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.cut {
		return nil, errors.New("cluster link partitioned")
	}
	c, err := wire.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	c.SetWriteTimeout(timeout)
	lc.conns = append(lc.conns, c)
	return c, nil
}

func (lc *linkCutter) Cut() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.cut = true
	for _, c := range lc.conns {
		c.Close()
	}
	lc.conns = nil
}

func (lc *linkCutter) Heal() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.cut = false
}

// grantVia sends one REQUEST to addr, chasing up to two redirects.
func grantVia(addr string, req core.Request) (core.Offer, error) {
	for hop := 0; hop < 3; hop++ {
		lc, err := core.DialLeaseClient(addr, 2*time.Second)
		if err != nil {
			return core.Offer{}, err
		}
		offer, err := lc.Request(req)
		lc.Close()
		var re *core.Redirect
		if errors.As(err, &re) && re.Addr != "" && re.Addr != addr {
			addr = re.Addr
			continue
		}
		return offer, err
	}
	return core.Offer{}, errors.New("redirect loop")
}

// TestFencingBlocksMinority pins split-brain protection: a member cut
// off from the majority declines grants (empty redirect) instead of
// serving shards the survivors are about to take over — and rejoins
// cleanly when the partition heals.
func TestFencingBlocksMinority(t *testing.T) {
	cutter := &linkCutter{}
	cfg := testFleetConfig(3)
	cfg.ClusterDial = func(from, to int, addr string, timeout time.Duration) (*wire.Conn, error) {
		if from == 2 || to == 2 {
			return cutter.dial(addr, timeout)
		}
		c, err := wire.Dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		c.SetWriteTimeout(timeout)
		return c, nil
	}
	f := newTestFleet(t, cfg)
	seedDriver(t, f, 0, "", time.Hour)
	clientID := clientOwnedBy(t, f, 2)

	// Sanity: before the partition the minority-to-be serves its shard.
	if _, err := grantVia(f.Servers[2].Addr(), testRequest("app", clientID)); err != nil {
		t.Fatalf("member 2 declined its own shard pre-partition: %v", err)
	}

	cutter.Cut()
	waitFor(t, 5*time.Second, "member 2 did not fence", func() bool {
		return !f.Members[2].Quorate()
	})

	// The fenced member declines: an empty redirect, naming no owner.
	lc, err := core.DialLeaseClient(f.Servers[2].Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, err = lc.Request(testRequest("app", clientID+"-fenced"))
	lc.Close()
	var re *core.Redirect
	if !errors.As(err, &re) || re.Addr != "" {
		t.Fatalf("fenced member answered %v, want empty redirect", err)
	}

	// The majority takes the shard over once the failure detector fires.
	waitFor(t, 5*time.Second, "survivors never took over member 2's shard", func() bool {
		_, err := grantVia(f.Servers[0].Addr(), testRequest("app", clientID+"-over"))
		return err == nil
	})

	cutter.Heal()
	waitFor(t, 5*time.Second, "member 2 did not rejoin after heal", func() bool {
		return f.Members[2].Quorate()
	})
	waitFor(t, 5*time.Second, "shard never returned home after heal", func() bool {
		_, err := grantVia(f.Servers[2].Addr(), testRequest("app", clientID+"-back"))
		return err == nil
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// schemaDigest renders one member's drivers, permissions and leases in
// key order: equal digests mean the replicas converged.
func schemaDigest(t *testing.T, db *sqlmini.DB) string {
	t.Helper()
	var b strings.Builder
	for _, sql := range []string{
		//lint:scan-ok test introspection over a handful of rows
		"SELECT driver_id, driver_version_major FROM " + core.DriversTable + " ORDER BY driver_id",
		//lint:scan-ok test introspection over a handful of rows
		"SELECT permission_id, driver_id, user FROM " + core.PermissionTable + " ORDER BY permission_id",
		//lint:scan-ok test introspection over a handful of rows
		"SELECT lease_id, driver_id, released FROM " + core.LeasesTable + " ORDER BY lease_id",
	} {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, res.Rows)
	}
	return b.String()
}

// TestReplicatedBatchIsAtomic: a batch through one member's store whose
// second statement fails (a duplicate-key INSERT) applies nowhere — its
// first statement neither lands on the member nor replicates to a peer.
func TestReplicatedBatchIsAtomic(t *testing.T) {
	f := newTestFleet(t, testFleetConfig(3))
	id := seedDriver(t, f, 0, "steady", time.Hour)
	want := schemaDigest(t, f.DBs[0])
	args := []any{sqlmini.Args{"id": id}}
	_, err := f.Servers[1].Store().ExecBatch([]core.Statement{
		{SQL: `DELETE FROM ` + core.PermissionTable + ` WHERE driver_id = $id`, Args: args},
		{SQL: `INSERT INTO ` + core.DriversTable + ` (driver_id, api_name, binary_code, binary_format)
			VALUES ($id, 'JDBC', 'x', 'IMAGE')`, Args: args},
	})
	if !errors.Is(err, sqlmini.ErrDuplicateKey) {
		t.Fatalf("err = %v, want a duplicate key", err)
	}
	for i, db := range f.DBs {
		if got := schemaDigest(t, db); got != want {
			t.Fatalf("member %d changed by a failed batch:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestReplicatedReapConverges: the reaper's two statements — the sweep
// UPDATE and the retention DELETE — carry a bound cutoff, not now(), so
// every member that replays them deletes the same rows: after one
// member reaps, each member's own lease table holds exactly the live
// lease, whichever member granted what. A DeleteDriver issued on
// another member converges the same way.
func TestReplicatedReapConverges(t *testing.T) {
	f := newTestFleet(t, testFleetConfig(3))
	const short = 40 * time.Millisecond
	id := seedDriver(t, f, 0, "brief", short)
	retired := seedDriver(t, f, 1, "retired", time.Hour)
	if _, err := f.Servers[0].SetPermission(core.Permission{
		User: "steady", DriverID: id, LeaseTime: time.Hour,
		RenewPolicy: core.RenewUpgrade, ExpirationPolicy: core.AfterClose,
		TransferMethod: core.TransferAny,
	}); err != nil {
		t.Fatal(err)
	}
	grant := func(member int, user string) uint64 {
		t.Helper()
		lc, err := core.DialLeaseClient(f.Servers[member].Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer lc.Close()
		offer, err := lc.Request(testRequest(user, clientOwnedBy(t, f, member)))
		if err != nil {
			t.Fatalf("grant for %s at member %d: %v", user, member, err)
		}
		return offer.LeaseID
	}
	for member := range f.Servers {
		grant(member, "brief")
	}
	live := grant(2, "steady")
	time.Sleep(2 * short) // the short leases run out; the hour-long one does not

	swept, err := f.Servers[1].ReapExpiredLeases()
	if err != nil {
		t.Fatal(err)
	}
	if swept != len(f.Servers) {
		t.Fatalf("swept %d leases, want the %d short ones", swept, len(f.Servers))
	}
	for i, db := range f.DBs {
		//lint:scan-ok test introspection: the table holds one row
		res, err := db.Exec("SELECT lease_id, released FROM " + core.LeasesTable)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || uint64(res.Rows[0][0].Int()) != live || res.Rows[0][1].Bool() {
			t.Fatalf("member %d holds %v after the replicated reap, want only live lease %d", i, res.Rows, live)
		}
	}

	if err := f.Servers[0].DeleteDriver(retired); err != nil {
		t.Fatal(err)
	}
	want := schemaDigest(t, f.DBs[0])
	if strings.Contains(want, "retired") {
		t.Fatalf("member 0 still holds the deleted driver's permission: %s", want)
	}
	for i, db := range f.DBs {
		if got := schemaDigest(t, db); got != want {
			t.Fatalf("member %d diverged after DeleteDriver:\n got %s\nwant %s", i, got, want)
		}
	}
}
