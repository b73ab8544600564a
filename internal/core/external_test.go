package core

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// TestExternalServer reproduces Figure 2: the Drivolution schema lives
// inside a legacy DBMS; the Drivolution server reaches it through a
// conventional driver; bootloaders bootstrap through that chain.
func TestExternalServer(t *testing.T) {
	// The legacy database holding both the application data and the
	// Drivolution schema.
	legacyDB := sqlmini.NewDB()
	legacyDB.MustExec("CREATE TABLE items (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR)")
	legacyDB.MustExec("INSERT INTO items (id, name) VALUES (1, 'widget')")
	legacy := dbms.NewServer("legacy-db",
		dbms.WithUser("app", "app-pw"),
		dbms.WithUser("drivolution", "svc-pw"))
	legacy.AddDatabase("prod", legacyDB)
	if err := legacy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(legacy.Stop)

	// Step 2 of Figure 2: the external Drivolution server connects with
	// its own legacy driver.
	legacyDriver := dbms.NewNativeDriver(dbver.V(1, 0, 0), 1)
	store := NewConnStore(func() (client.Conn, error) {
		return legacyDriver.Connect("dbms://"+legacy.Addr()+"/prod",
			client.Props{"user": "drivolution", "password": "svc-pw"})
	})
	t.Cleanup(store.Close)

	srv, err := NewServer("external-drivolution", store)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	// The DBA inserts a driver — it lands in the legacy database's
	// information schema, via the legacy driver.
	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         dbver.V(1, 0, 0),
			ProtocolVersion: 1,
			Options:         map[string]string{"user": "app", "password": "app-pw"},
		},
		Payload: []byte("driver body"),
	}
	if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	res, err := legacyDB.Exec("SELECT count(*) FROM " + DriversTable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("driver row must live in the legacy database")
	}

	// Steps 1, 3, 4: bootloader → external server → driver download →
	// direct connection to the legacy database.
	rt := driverimg.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	b := NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
		[]string{srv.Addr()}, rt,
		WithCredentials("app", "app-pw"),
		WithDialTimeout(2*time.Second))
	t.Cleanup(b.Close)
	c, err := b.Connect("dbms://"+legacy.Addr()+"/prod", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Query("SELECT name FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Str() != "widget" {
		t.Fatalf("row = %v", r.Rows[0][0])
	}

	// Lease bookkeeping also flowed through the legacy driver.
	leases, err := srv.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 1 {
		t.Fatalf("leases = %+v", leases)
	}
}

// TestExternalStoreRedial: the external store survives a bounce of the
// legacy database (paper §4.1.3: the Drivolution server can be restarted
// without impacting running applications).
func TestExternalStoreRedial(t *testing.T) {
	legacyDB := sqlmini.NewDB()
	legacy := dbms.NewServer("legacy-db", dbms.WithUser("svc", "pw"))
	legacy.AddDatabase("meta", legacyDB)
	if err := legacy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := legacy.Addr()
	t.Cleanup(legacy.Stop)

	drv := dbms.NewNativeDriver(dbver.V(1, 0, 0), 1)
	store := NewConnStore(func() (client.Conn, error) {
		return drv.Connect("dbms://"+addr+"/meta", client.Props{"user": "svc", "password": "pw"})
	})
	t.Cleanup(store.Close)
	if err := EnsureSchema(store); err != nil {
		t.Fatal(err)
	}

	// Bounce the legacy database.
	legacy.Stop()
	if err := legacy.Start(addr); err != nil {
		t.Fatal(err)
	}

	// The store redials transparently.
	if _, err := store.Exec("SELECT count(*) FROM " + DriversTable); err != nil {
		t.Fatalf("store should redial after a database bounce: %v", err)
	}
}
