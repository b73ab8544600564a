package main

import (
	"testing"
	"time"

	drivolution "repro"
	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/driverimg"
)

// TestStandaloneDaemonReaps: the daemon as main assembles it sweeps on
// its own — a lease nobody renews is released and its row gone within
// two ticks of expiring, and stop ends the reaper with the server.
func TestStandaloneDaemonReaps(t *testing.T) {
	const tick = 25 * time.Millisecond
	srv, stop, err := startStandalone("127.0.0.1:0", "", false, tick,
		[]drivolution.ServerOption{drivolution.WithDefaultLease(tick)})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	img := &driverimg.Image{
		Manifest: driverimg.Manifest{Kind: "dbms-native", API: dbver.APIOf("JDBC", 3, 0), Version: dbver.V(1, 0, 0)},
		Payload:  []byte("driver body"),
	}
	if _, err := srv.AddDriver(img, dbver.FormatImage); err != nil {
		t.Fatal(err)
	}
	c, err := core.DialLeaseClient(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	granted := time.Now()
	if _, err := c.Request(core.Request{Database: "prod", API: dbver.APIOf("JDBC", 3, 0), ClientID: "gone"}); err != nil {
		t.Fatal(err)
	}
	// Expired one tick after the grant, swept at most one tick later; a
	// loaded box may hand the ticker its turn late, so the deadline that
	// fails the test is far beyond the two ticks it asserts on a quiet one.
	for deadline := granted.Add(5 * time.Second); ; time.Sleep(tick / 5) {
		leases, err := srv.Leases()
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease still in the table %v after it expired: %+v", time.Since(granted)-tick, leases)
		}
	}
	t.Logf("lease reaped %v after the grant (lease %v, sweep every %v)", time.Since(granted), tick, tick)
}
