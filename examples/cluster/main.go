// Command cluster lifts the paper's Figure 4 failover story from the
// database tier to the control plane itself: three clustered
// Drivolution servers share the lease space by shard, replicate the
// driver catalog to every member, and watch each other over
// heartbeats. An application bootstraps through the member list, one
// member is killed mid-lease, and the client's renewal lands on a
// survivor — under the same lease identity (§4.1.3), with no
// application reconfiguration.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"time"

	drivolution "repro"
	"repro/internal/cluster"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Figure 4 at the server tier: control-plane failover ==")

	// Fast membership timings so the demo's failover completes in
	// under a second; production defaults detect in a few seconds.
	hb := 40 * time.Millisecond
	fleet, err := cluster.NewFleet(cluster.FleetConfig{
		Members:           3,
		NamePrefix:        "drivolution",
		DefaultLease:      2 * time.Second,
		HeartbeatInterval: hb,
		FenceAfter:        4 * hb,
		FailAfter:         8 * hb,
		DialTimeout:       time.Second,
	})
	if err != nil {
		return err
	}
	defer fleet.Stop()
	fmt.Println("step 0: 3 members up — sharded lease ownership, full-mesh catalog replication")

	// The application database the granted driver will actually reach.
	appDB := sqlmini.NewDB()
	appDB.MustExec("CREATE TABLE orders (id INTEGER NOT NULL PRIMARY KEY, item VARCHAR)")
	appDB.MustExec("INSERT INTO orders (id, item) VALUES (1, 'widget')")
	target := dbms.NewServer("prod-db", dbms.WithUser("app", "pw"))
	target.AddDatabase("prod", appDB)
	if err := target.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer target.Stop()

	// One admin op against ONE member; statement replication puts the
	// driver in every member's catalog, so any member answers
	// matchmaking locally.
	img := &drivolution.Image{
		Manifest: drivolution.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         dbver.V(1, 0, 0),
			ProtocolVersion: 1,
			Options:         map[string]string{"user": "app", "password": "pw"},
		},
		Payload: []byte("dbms driver payload"),
	}
	if _, err := fleet.Servers[0].AddDriver(img, dbver.FormatImage); err != nil {
		return err
	}
	fmt.Println("step 1: driver added through member 0, replicated to all 3 catalogs")

	rt := drivolution.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	bl := drivolution.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		fleet.Addrs(), rt,
		drivolution.WithCredentials("app", "pw"),
		drivolution.WithClientID("order-service"),
		drivolution.WithDialTimeout(time.Second),
		drivolution.WithRetryInterval(25*time.Millisecond))
	defer bl.Close()

	conn, err := bl.Connect("dbms://"+target.Addr()+"/prod", nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	leaseID := bl.LeaseID()
	owner := memberIndex(fleet, bl.ServerAddr())
	fmt.Printf("step 2: app bootstrapped; shard owner member %d granted lease %d\n", owner, leaseID)
	printStatus(fleet, (owner+1)%3)

	fmt.Printf("step 3: killing member %d — the lease owner — mid-lease\n", owner)
	fleet.Kill(owner)

	// The client keeps renewing; once a survivor's membership view
	// expires the dead member it takes over the shard, and the renewal
	// extends the replicated lease row — same identity, new server.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := bl.ForceRenew("prod"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("renewal never converged after the kill")
		}
		//lint:sleep-ok demo retry pacing while the survivors detect the death
		time.Sleep(25 * time.Millisecond)
	}
	if bl.LeaseID() != leaseID {
		return fmt.Errorf("lease identity lost: %d -> %d", leaseID, bl.LeaseID())
	}
	fmt.Printf("step 4: renewal served by member %d — lease %d survived the owner's death\n",
		memberIndex(fleet, bl.ServerAddr()), leaseID)

	// The granted driver was never disturbed: the connection opened
	// before the kill still queries the application database.
	res, err := conn.Query("SELECT item FROM orders")
	if err != nil {
		return err
	}
	fmt.Printf("step 5: pre-failover connection still live, orders -> %q\n", res.Rows[0][0].Str())
	printStatus(fleet, (owner+1)%3)
	return nil
}

// memberIndex maps a client-facing address back to its member index.
func memberIndex(f *cluster.Fleet, addr string) int {
	for i, a := range f.Addrs() {
		if a == addr {
			return i
		}
	}
	return -1
}

// printStatus renders one member's membership view, the same picture
// `drivoctl cluster-status` gives an operator.
func printStatus(f *cluster.Fleet, via int) {
	st, err := cluster.FetchStatus(f.ClusterAddrs()[via], time.Second)
	if err != nil {
		fmt.Printf("  status probe failed: %v\n", err)
		return
	}
	fmt.Printf("  [%s] quorate %v:", st.Name, st.Quorate)
	for _, p := range st.Peers {
		state := "alive"
		if !p.Alive {
			state = "DOWN"
		}
		fmt.Printf("  %s=%s(%d shards)", p.Name, state, p.OwnedShards)
	}
	fmt.Println()
}
