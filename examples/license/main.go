// Command license reproduces §5.4.2, "Drivolution as a License Server":
// per-user license keys distributed as single-lease drivers, with the
// database engine acting as the failure detector for crashed clients.
//
//	go run ./examples/license
package main

import (
	"fmt"
	"log"
	"time"

	drivolution "repro"
	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/faultnet"
	"repro/internal/license"
	"repro/internal/sqlmini"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== §5.4.2: Drivolution as a license server ==")

	db := sqlmini.NewDB()
	db.MustExec("CREATE TABLE t (x INTEGER)")
	target := dbms.NewServer("db2-like",
		dbms.WithUser("analyst1", "pw"), dbms.WithUser("analyst2", "pw"))
	target.AddDatabase("prod", db)
	if err := target.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer target.Stop()

	srv, err := drivolution.NewServer("license-server",
		drivolution.NewLocalStore(drivolution.NewDB()),
		drivolution.WithLicenseMode(),
		drivolution.WithDefaultLease(time.Hour))
	if err != nil {
		return err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Stop()

	// One license key = one driver row. Per-user licensing: one holder
	// at a time.
	img := &drivolution.Image{
		Manifest: drivolution.Manifest{
			Kind:            dbms.DriverKind,
			API:             dbver.APIOf("JDBC", 3, 0),
			Version:         dbver.V(1, 0, 0),
			ProtocolVersion: 1,
		},
		Payload: []byte("per-user license key #0001"),
	}
	if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
		return err
	}
	fmt.Println("license key stored as a single-lease driver")

	rt := drivolution.NewRuntime()
	rt.Register(dbms.DriverKind, dbms.ImageFactory())
	mk := func(addr, user, id string) *drivolution.Bootloader {
		return drivolution.NewBootloader(dbver.APIOf("JDBC", 3, 0), dbver.PlatformLinuxAMD64,
			[]string{addr}, rt,
			drivolution.WithCredentials(user, "pw"),
			drivolution.WithClientID(id))
	}
	url := "dbms://" + target.Addr() + "/prod"

	// analyst1's workstation reaches the server through a proxy, so its
	// crash can cut the network path: a bootloader that closes cleanly
	// gives its lease back, a crashed one sends nothing.
	path1, err := faultnet.NewProxy(srv.Addr(), 1)
	if err != nil {
		return err
	}
	defer path1.Close()
	b1 := mk(path1.Addr(), "analyst1", "workstation-1")
	defer b1.Close()
	c1, err := b1.Connect(url, client.Props{"user": "analyst1", "password": "pw"})
	if err != nil {
		return err
	}
	fmt.Printf("analyst1 acquired the license (lease %d) and is connected\n", b1.LeaseID())

	b2 := mk(srv.Addr(), "analyst2", "workstation-2")
	defer b2.Close()
	if _, err := b2.Connect(url, client.Props{"user": "analyst2", "password": "pw"}); err != nil {
		fmt.Printf("analyst2 denied while the license is held: %v\n", err)
	} else {
		return fmt.Errorf("license exclusivity broken")
	}

	// analyst1's workstation crashes without releasing.
	path1.DropAll()
	_ = c1.Close()
	b1.Close()
	for target.UserHasSession("analyst1") {
		//lint:sleep-ok demo pacing: waiting for the engine's session teardown, bounded by the demo itself
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("analyst1 crashed (no release sent); engine shows no active session")

	// The license manager reclaims via the DBMS failure detector.
	mgr := license.NewManager(srv, license.DetectorFromDBMS(target))
	n, err := mgr.SweepOnce()
	if err != nil {
		return err
	}
	fmt.Printf("license manager reclaimed %d license via the engine's session table\n", n)

	if _, err := b2.Connect(url, client.Props{"user": "analyst2", "password": "pw"}); err != nil {
		return err
	}
	fmt.Println("analyst2 acquired the freed license — no human intervention, no restart")
	return nil
}
