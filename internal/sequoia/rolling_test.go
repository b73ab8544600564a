package sequoia

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
)

// TestRollingRestartUnderLoad reproduces the F5 maintenance flow: stop a
// controller under write load, restart it on the same address, and
// resynchronize its backends from the journal while writes continue.
func TestRollingRestartUnderLoad(t *testing.T) {
	cl := newCluster(t, 2, 2)
	ctrl1 := cl.controllers[0]
	addr1 := ctrl1.Addr()

	// Constant writes through controller 2 (stable during the restart).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	d := NewDriver(dbver.V(1, 0, 0), 1)
	c2, err := d.Connect("sequoia://"+cl.controllers[1].Addr()+"/vdb",
		client.Props{"user": "app", "password": "app-pw"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = c2.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", fmt.Sprintf("load-%d", i), i)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(20 * time.Millisecond)
	ctrl1.Stop()
	time.Sleep(30 * time.Millisecond)
	if err := ctrl1.Start(addr1); err != nil {
		t.Fatal(err)
	}
	for name := range ctrl1.Backends() {
		if err := ctrl1.EnableBackend(name); err != nil {
			t.Fatalf("EnableBackend(%s): %v", name, err)
		}
	}
	close(stop)
	wg.Wait()

	// All four backends converge.
	var counts []int64
	for _, srv := range cl.backends {
		res, err := srv.Database("shard").Exec("SELECT count(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Rows[0][0].Int())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("backends diverged: %v", counts)
		}
	}
}
