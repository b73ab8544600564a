package sequoia

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// cluster is a 2-controller × 2-backend Sequoia deployment over real
// dbms servers, the Figure 5/6 topology.
type cluster struct {
	group       *Group
	controllers []*Controller
	backends    []*dbms.Server
}

func newCluster(t *testing.T, controllers, backendsPer int) *cluster {
	t.Helper()
	cl := &cluster{group: NewGroup()}
	for ci := 0; ci < controllers; ci++ {
		ctrl := NewController(fmt.Sprintf("controller-%d", ci+1), "vdb", cl.group,
			WithControllerUser("app", "app-pw"))
		for bi := 0; bi < backendsPer; bi++ {
			name := fmt.Sprintf("db%d-%d", ci+1, bi+1)
			db := sqlmini.NewDB()
			db.MustExec("CREATE TABLE kv (k VARCHAR NOT NULL PRIMARY KEY, v INTEGER)")
			srv := dbms.NewServer(name, dbms.WithUser("seq", "seq-pw"))
			srv.AddDatabase("shard", db)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Stop)
			cl.backends = append(cl.backends, srv)

			b := &Backend{
				Name:   name,
				URL:    "dbms://" + srv.Addr() + "/shard",
				Props:  client.Props{"user": "seq", "password": "seq-pw"},
				Driver: dbms.NewNativeDriver(dbver.V(1, 0, 0), 1),
			}
			ctrl.AddBackend(b)
			if err := ctrl.EnableBackend(name); err != nil {
				t.Fatal(err)
			}
		}
		if err := ctrl.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ctrl.Stop)
		cl.controllers = append(cl.controllers, ctrl)
	}
	return cl
}

func (cl *cluster) url() string {
	hosts := cl.controllers[0].Addr()
	for _, c := range cl.controllers[1:] {
		hosts += "," + c.Addr()
	}
	return "sequoia://" + hosts + "/vdb"
}

func (cl *cluster) connect(t *testing.T) client.Conn {
	t.Helper()
	d := NewDriver(dbver.V(1, 0, 0), 1)
	c, err := d.Connect(cl.url(), client.Props{"user": "app", "password": "app-pw"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestWriteReplicatesToAllBackends(t *testing.T) {
	cl := newCluster(t, 2, 2)
	c := cl.connect(t)

	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES ('a', 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE kv SET v = v + 41 WHERE k = 'a'"); err != nil {
		t.Fatal(err)
	}
	// Every one of the 4 backends holds the row.
	for _, srv := range cl.backends {
		res, err := srv.Database("shard").Query("SELECT v FROM kv WHERE k = 'a'")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
			t.Fatalf("backend %s: rows = %+v", srv.Name(), res.Rows)
		}
	}
}

func TestReadsLoadBalance(t *testing.T) {
	cl := newCluster(t, 1, 2)
	c := cl.connect(t)
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES ('x', 7)"); err != nil {
		t.Fatal(err)
	}
	before0 := cl.backends[0].QueriesServed()
	before1 := cl.backends[1].QueriesServed()
	for i := 0; i < 10; i++ {
		if _, err := c.Query("SELECT v FROM kv WHERE k = 'x'"); err != nil {
			t.Fatal(err)
		}
	}
	d0 := cl.backends[0].QueriesServed() - before0
	d1 := cl.backends[1].QueriesServed() - before1
	if d0 == 0 || d1 == 0 {
		t.Fatalf("reads not balanced: %d vs %d", d0, d1)
	}
}

func TestDriverFailoverAcrossControllers(t *testing.T) {
	cl := newCluster(t, 2, 1)
	c := cl.connect(t)
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES ('f', 1)"); err != nil {
		t.Fatal(err)
	}
	// Kill whichever controller the connection currently uses.
	host := c.(*seqConn).Host()
	for _, ctrl := range cl.controllers {
		if ctrl.Addr() == host {
			ctrl.Stop()
		}
	}
	// The very next statement succeeds via the surviving controller.
	res, err := c.Query("SELECT v FROM kv WHERE k = 'f'")
	if err != nil {
		t.Fatalf("failover failed: %v", err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if got := c.(*seqConn).Host(); got == host {
		t.Fatal("connection did not move to the other controller")
	}
}

func TestConnectTimeFailover(t *testing.T) {
	cl := newCluster(t, 2, 1)
	cl.controllers[0].Stop()
	c := cl.connect(t) // first host dead; connect must succeed via second
	if _, err := c.Query("SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
}

// TestBackendDisableEnableResync: the §5.3.1 maintenance workflow. A
// stopped controller disables its backend at a journal checkpoint;
// writes continue through the other controller; re-enabling the backend
// replays the journal from that checkpoint, and it serves later writes.
func TestBackendDisableEnableResync(t *testing.T) {
	cl := newCluster(t, 2, 1)
	ctrl := cl.controllers[1]
	d := NewDriver(dbver.V(1, 0, 0), 1)
	c, err := d.Connect("sequoia://"+cl.controllers[0].Addr()+"/vdb", client.Props{"user": "app", "password": "app-pw"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES ('pre', 1)"); err != nil {
		t.Fatal(err)
	}
	// Take controller-2, and with it backend db2-1, down for maintenance.
	ctrl.Stop()
	// Writes continue through controller-1.
	for i := 0; i < 5; i++ {
		if _, err := c.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", fmt.Sprintf("during-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	// The disabled backend is stale.
	res, _ := cl.backends[1].Database("shard").Query("SELECT count(*) FROM kv")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("disabled backend saw writes: count = %d", res.Rows[0][0].Int())
	}
	// Restart and re-enable: journal replay catches it up from its
	// checkpoint.
	if err := ctrl.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.EnableBackend("db2-1"); err != nil {
		t.Fatal(err)
	}
	res, _ = cl.backends[1].Database("shard").Query("SELECT count(*) FROM kv")
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("resync incomplete: count = %d", res.Rows[0][0].Int())
	}
	// And it serves subsequent writes.
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES ('post', 9)"); err != nil {
		t.Fatal(err)
	}
	res, _ = cl.backends[1].Database("shard").Query("SELECT count(*) FROM kv")
	if res.Rows[0][0].Int() != 7 {
		t.Fatalf("post-resync write missing: count = %d", res.Rows[0][0].Int())
	}
}

func TestControllerProtocolMismatch(t *testing.T) {
	cl := newCluster(t, 1, 1)
	d := NewDriver(dbver.V(1, 0, 0), 2) // wrong protocol
	_, err := d.Connect(cl.url(), client.Props{"user": "app", "password": "app-pw"})
	if !errors.Is(err, client.ErrProtocolMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestControllerAuthAndDatabaseChecks(t *testing.T) {
	cl := newCluster(t, 1, 1)
	d := NewDriver(dbver.V(1, 0, 0), 1)
	if _, err := d.Connect(cl.url(), client.Props{"user": "app", "password": "nope"}); !errors.Is(err, client.ErrAuth) {
		t.Fatalf("err = %v", err)
	}
	badDB := "sequoia://" + cl.controllers[0].Addr() + "/other"
	if _, err := d.Connect(badDB, client.Props{"user": "app", "password": "app-pw"}); !errors.Is(err, client.ErrNoDatabase) {
		t.Fatalf("err = %v", err)
	}
}

func TestTransactionsRejected(t *testing.T) {
	cl := newCluster(t, 1, 1)
	c := cl.connect(t)
	if err := c.Begin(); err == nil {
		t.Fatal("controller must reject explicit transactions")
	}
}

// TestSequoiaDriverThroughDrivolution wires Figure 5's client side: the
// Sequoia driver itself is distributed by a standalone Drivolution
// server, and a rolling controller restart doesn't interrupt clients.
func TestSequoiaDriverThroughDrivolution(t *testing.T) {
	cl := newCluster(t, 2, 1)

	// Standalone Drivolution service holding the Sequoia driver.
	store := core.NewLocalStore(sqlmini.NewDB())
	dsrv, err := core.NewServer("standalone", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := dsrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dsrv.Stop)

	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         dbver.V(1, 0, 0),
			ProtocolVersion: 1,
			Options:         map[string]string{"user": "app", "password": "app-pw"},
		},
		Payload: []byte("sequoia driver body"),
	}
	if _, err := dsrv.AddDriver(img, dbver.FormatImage); err != nil {
		t.Fatal(err)
	}

	rt := driverimg.NewRuntime()
	rt.Register(DriverKind, ImageFactory())
	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{dsrv.Addr()}, rt,
		core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(2*time.Second))
	t.Cleanup(b.Close)

	c, err := b.Connect(cl.url(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES ('d', 4)"); err != nil {
		t.Fatal(err)
	}

	// Rolling restart: stop controller 1; the driver fails over, no
	// client-visible error.
	cl.controllers[0].Stop()
	if _, err := c.Query("SELECT v FROM kv WHERE k = 'd'"); err != nil {
		t.Fatalf("query during rolling restart: %v", err)
	}
}

// TestEmbeddedDrivolution wires Figure 6: embedded, replicated servers;
// one controller dies; clients keep upgrading via the survivor.
func TestEmbeddedDrivolution(t *testing.T) {
	cl := newCluster(t, 2, 1)
	rd, err := EmbedDrivolution(cl.group, core.WithDefaultLease(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rd.Stop)

	mkImg := func(v dbver.Version) *driverimg.Image {
		return &driverimg.Image{
			Manifest: driverimg.Manifest{
				Kind:            DriverKind,
				API:             dbver.APIOf("JDBC", 3, 0),
				Version:         v,
				ProtocolVersion: 1,
				Options:         map[string]string{"user": "app", "password": "app-pw"},
			},
		}
	}
	if _, err := rd.AddDriver(mkImg(dbver.V(1, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	// Both embedded servers hold the driver.
	for _, name := range []string{"controller-1", "controller-2"} {
		drvs, err := rd.ServerFor(name).Drivers()
		if err != nil {
			t.Fatal(err)
		}
		if len(drvs) != 1 {
			t.Fatalf("%s has %d drivers", name, len(drvs))
		}
	}

	rt := driverimg.NewRuntime()
	rt.Register(DriverKind, ImageFactory())
	b := core.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		rd.Addrs(), rt,
		core.WithCredentials("app", "app-pw"),
		core.WithDialTimeout(time.Second))
	t.Cleanup(b.Close)
	c, err := b.Connect(cl.url(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Kill controller-1 and its embedded Drivolution server.
	cl.controllers[0].Stop()
	rd.StopFor("controller-1")

	// An upgrade added to the survivor still reaches the client.
	if _, err := rd.ServerFor("controller-2").AddDriver(mkImg(dbver.V(2, 0, 0)), dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	if err := b.ForceRenew("vdb"); err != nil {
		t.Fatalf("renew via surviving embedded server: %v", err)
	}
	if b.Version() != dbver.V(2, 0, 0) {
		t.Fatalf("Version = %v", b.Version())
	}
	// And the upgraded driver still reaches the cluster.
	c2, err := b.Connect(cl.url(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Query("SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSeqAndJournal(t *testing.T) {
	cl := newCluster(t, 1, 1)
	c := cl.connect(t)
	before := cl.group.Seq()
	if _, err := c.Exec("INSERT INTO kv (k, v) VALUES ('j', 1)"); err != nil {
		t.Fatal(err)
	}
	if cl.group.Seq() != before+1 {
		t.Fatalf("seq = %d, want %d", cl.group.Seq(), before+1)
	}
	// Reads don't advance the journal.
	if _, err := c.Query("SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if cl.group.Seq() != before+1 {
		t.Fatal("read advanced the journal")
	}
}
