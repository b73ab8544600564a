package dbms

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// fixtureDB is the "app" database every test server starts from: a
// seeded accounts table. A replica starts from a fixtureDB of its own:
// attached before the master's first statement, it then holds what the
// master holds.
func fixtureDB() *sqlmini.DB {
	db := sqlmini.NewDB()
	db.MustExec("CREATE TABLE accounts (id INTEGER NOT NULL PRIMARY KEY, balance INTEGER)")
	db.MustExec("INSERT INTO accounts (id, balance) VALUES (1, 100), (2, 200)")
	return db
}

// startServer boots a server with one fixtureDB named "app" and user
// alice/secret.
func startServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	all := append([]ServerOption{WithUser("alice", "secret")}, opts...)
	s := NewServer("testdb", all...)
	s.AddDatabase("app", fixtureDB())
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func dial(t *testing.T, s *Server, proto uint16) client.Conn {
	t.Helper()
	d := NewNativeDriver(dbver.V(1, 0, 0), proto)
	c, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestConnectAndQuery(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)

	res, err := c.Query("SELECT balance FROM accounts WHERE id = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 100 {
		t.Fatalf("rows = %+v", res.Rows)
	}

	if _, err := c.Exec("UPDATE accounts SET balance = balance + 5 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	res, _ = c.Query("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 105 {
		t.Fatalf("balance = %d", res.Rows[0][0].Int())
	}
	if s.QueriesServed() < 3 {
		t.Errorf("QueriesServed = %d", s.QueriesServed())
	}
}

func TestNamedArgsOverWire(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	res, err := c.Query("SELECT id FROM accounts WHERE balance > $min ORDER BY id", sqlmini.Args{"min": 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestProtocolMismatch(t *testing.T) {
	s := startServer(t, WithProtocolVersion(2))
	d := NewNativeDriver(dbver.V(1, 0, 0), 1) // old driver, new server
	_, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
	if !errors.Is(err, client.ErrProtocolMismatch) {
		t.Fatalf("err = %v, want ErrProtocolMismatch", err)
	}
	// Matching version connects fine.
	d2 := NewNativeDriver(dbver.V(2, 0, 0), 2)
	c, err := d2.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestAuthFailure(t *testing.T) {
	s := startServer(t)
	d := NewNativeDriver(dbver.V(1, 0, 0), 1)
	_, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "wrong"})
	if !errors.Is(err, client.ErrAuth) {
		t.Fatalf("err = %v", err)
	}
	_, err = d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "mallory", "password": "x"})
	if !errors.Is(err, client.ErrAuth) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoSuchDatabase(t *testing.T) {
	s := startServer(t)
	d := NewNativeDriver(dbver.V(1, 0, 0), 1)
	_, err := d.Connect("dbms://"+s.Addr()+"/nope", client.Props{"user": "alice", "password": "secret"})
	if !errors.Is(err, client.ErrNoDatabase) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryErrorDoesNotKillConnection(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	if _, err := c.Query("SELECT * FROM missing_table"); err == nil {
		t.Fatal("expected query error")
	}
	// Connection still usable.
	if _, err := c.Query("SELECT 1"); err != nil {
		t.Fatalf("connection died after query error: %v", err)
	}
}

func TestTransactionsOverWire(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if !c.InTx() {
		t.Error("InTx should be true")
	}
	if _, err := c.Exec("UPDATE accounts SET balance = 0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	if c.InTx() {
		t.Error("InTx should be false after rollback")
	}
	res, _ := c.Query("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("rollback over wire failed: %d", res.Rows[0][0].Int())
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE accounts SET balance = 42 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res, _ = c.Query("SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 42 {
		t.Fatalf("commit over wire failed: %d", res.Rows[0][0].Int())
	}
}

// TestPingAndActiveSessions: a pinged session is live for its user
// alone, and it is gone once the client closes it.
func TestPingAndActiveSessions(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if !s.UserHasSession("alice") {
		t.Error("UserHasSession(alice) = false")
	}
	if s.UserHasSession("bob") {
		t.Error("UserHasSession(bob) = true")
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.UserHasSession("alice") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.UserHasSession("alice") {
		t.Error("UserHasSession(alice) after close = true")
	}
}

func TestStopKillsSessionsAndRestartWorks(t *testing.T) {
	s := startServer(t)
	c := dial(t, s, 1)
	addr := s.Addr()
	s.Stop()

	if _, err := c.Query("SELECT 1"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Maintenance done: restart on the same address; data survived.
	if err := s.Start(addr); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, s, 1)
	res, err := c2.Query("SELECT count(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("data lost across restart")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	s := startServer(t)
	if err := s.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestStatementReplication(t *testing.T) {
	master := startServer(t)
	slave := startServer(t)
	master.AttachReplica(slave)

	mc := dial(t, master, 1)
	if _, err := mc.Exec("INSERT INTO accounts (id, balance) VALUES (3, 300)"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Exec("UPDATE accounts SET balance = balance * 2 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	// Replica sees both changes.
	sc := dial(t, slave, 1)
	res, err := sc.Query("SELECT balance FROM accounts WHERE id IN (1, 3) ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 200 || res.Rows[1][0].Int() != 300 {
		t.Fatalf("replica rows = %+v", res.Rows)
	}

	// Detach stops the flow.
	master.DetachReplica(slave)
	if _, err := mc.Exec("INSERT INTO accounts (id, balance) VALUES (4, 400)"); err != nil {
		t.Fatal(err)
	}
	res, _ = sc.Query("SELECT count(*) FROM accounts WHERE id = 4")
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("detached replica still received statements")
	}
}

// TestFailoverPromoteSlave: when the master stops for maintenance, its
// replica already holds every statement the master applied and takes
// the writes the master no longer can.
// TestReplicationFailuresCounted: a statement a replica cannot apply
// is counted once per replica, on the master that shipped it. The
// replica here lacks the database; a healthy replica beside it applies
// every write and adds nothing.
func TestReplicationFailuresCounted(t *testing.T) {
	master := NewServer("master")
	master.AddDatabase("app", fixtureDB())
	healthy, lacking := NewServer("healthy"), NewServer("lacking")
	healthy.AddDatabase("app", fixtureDB())
	master.AttachReplica(healthy)
	if _, err := master.Execute("app", "UPDATE accounts SET balance = 150 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if n := master.ReplicationFailures(); n != 0 {
		t.Fatalf("a healthy replica counted %d replication failures, want 0", n)
	}
	master.AttachReplica(lacking)
	for i, sql := range []string{
		"INSERT INTO accounts (id, balance) VALUES (3, 300)",
		"UPDATE accounts SET balance = 250 WHERE id = 2",
		"SELECT balance FROM accounts WHERE id = 1", // not shipped: a read
	} {
		if _, err := master.Execute("app", sql); err != nil {
			t.Fatal(err)
		}
		if n, want := master.ReplicationFailures(), int64(min(i+1, 2)); n != want {
			t.Fatalf("after %q: %d replication failures, want %d", sql, n, want)
		}
	}
	res := healthy.Database("app").MustExec("SELECT count(*) FROM accounts WHERE balance IN (150, 250, 300)")
	if n := res.Rows[0][0].Int(); n != 3 {
		t.Fatalf("the healthy replica holds %d of the 3 written rows", n)
	}
}

func TestFailoverPromoteSlave(t *testing.T) {
	master := startServer(t)
	slave := startServer(t)
	master.AttachReplica(slave)
	if _, err := dial(t, master, 1).Exec("INSERT INTO accounts (id, balance) VALUES (3, 300)"); err != nil {
		t.Fatal(err)
	}

	// Maintenance: stop master, fail over to the slave.
	master.Stop()
	sc := dial(t, slave, 1)
	if _, err := sc.Exec("INSERT INTO accounts (id, balance) VALUES (10, 1)"); err != nil {
		t.Fatalf("promoted slave must accept writes: %v", err)
	}
	res, err := sc.Query("SELECT count(*) FROM accounts WHERE id IN (3, 10)")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 2 {
		t.Fatalf("promoted slave holds %d of the master's row and its own, want 2", n)
	}
}

func TestImageFactory(t *testing.T) {
	s := startServer(t, WithProtocolVersion(3))
	rt := driverimg.NewRuntime()
	rt.Register(DriverKind, ImageFactory())

	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         dbver.V(2, 1, 0),
			ProtocolVersion: 3,
			Options:         map[string]string{"user": "alice", "password": "secret"},
		},
	}
	decoded, err := driverimg.Decode(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	drv, err := rt.Load(decoded)
	if err != nil {
		t.Fatal(err)
	}
	// Credentials come from manifest options; the app passes none.
	c, err := drv.Connect("dbms://"+s.Addr()+"/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("SELECT count(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("query through image-loaded driver failed")
	}
	if drv.Version() != dbver.V(2, 1, 0) {
		t.Errorf("Version = %v", drv.Version())
	}
}

func TestPinnedURLFailoverDriver(t *testing.T) {
	// Two servers; a pre-configured driver pins connections to the
	// second one regardless of the application URL (paper §5.2).
	a := startServer(t)
	bDB := sqlmini.NewDB()
	bDB.MustExec("CREATE TABLE whoami (name VARCHAR)")
	bDB.MustExec("INSERT INTO whoami (name) VALUES ('server-b')")
	b := NewServer("server-b", WithUser("alice", "secret"))
	b.AddDatabase("app", bDB)
	if err := b.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)

	rt := driverimg.NewRuntime()
	rt.Register(DriverKind, ImageFactory())
	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            DriverKind,
			Version:         dbver.V(1, 0, 0),
			ProtocolVersion: 1,
			PinnedURL:       "dbms://" + b.Addr() + "/app",
			Options:         map[string]string{"user": "alice", "password": "secret"},
		},
	}
	drv, err := rt.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	// Application asks for server A; the pinned driver goes to B.
	c, err := drv.Connect("dbms://"+a.Addr()+"/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("SELECT name FROM whoami")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "server-b" {
		t.Fatalf("connected to %s, want server-b", res.Rows[0][0].Str())
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewNativeDriver(dbver.V(1, 0, 0), 1)
			c, err := d.Connect("dbms://"+s.Addr()+"/app", client.Props{"user": "alice", "password": "secret"})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Exec("UPDATE accounts SET balance = balance + 1 WHERE id = 2"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := dial(t, s, 1)
	res, err := c.Query("SELECT balance FROM accounts WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 200+n*20 {
		t.Fatalf("balance = %d, want %d", got, 200+n*20)
	}
}

func TestWrongSchemeRejected(t *testing.T) {
	d := NewNativeDriver(dbver.V(1, 0, 0), 1)
	if _, err := d.Connect("sequoia://h:1/db", nil); err == nil {
		t.Fatal("expected scheme rejection")
	}
}
