package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dbver"
	"repro/internal/workload"
)

// floor is what the null-server runs measured: the cost of harness +
// wire with no store, no catalog and no dispatch behind them.
type floor struct {
	canned *canned

	rttP50Us      float64 // renewal round trip, one connection
	rttSamples    int
	allocsPerTrip float64
	fileMBPerS    float64
	// The closed loop on both connections against the null server:
	// the harness's share of the runtime's figures.
	nullAllocsPerOp  float64
	nullAllocKBPerOp float64
	// workload.Fleet (two workers) driven at r1 against the null
	// server.
	fleetP50Us    float64
	fleetLagMaxMs float64
	fleetRequests int
}

// measureFloor records one real exchange of each kind from a server
// holding the workload's image, then replays it.
func measureFloor(p runParams, in *instance) (*floor, error) {
	var opts []core.ServerOption
	if in.signKey != nil {
		opts = append(opts, core.WithSigningKey(in.signKey))
	}
	// The recorded OFFER's lease time is what paces the fleet
	// cross-check below.
	c, err := recordCanned(newImage(dbver.V(1, 0, 0), p.cfg.PayloadBytes), p.fleetLease, opts...)
	if err != nil {
		return nil, err
	}
	null, err := newNullServer(c)
	if err != nil {
		return nil, err
	}
	defer null.close()
	fl := &floor{canned: c}
	floorBudget := p.floorBudget

	renewal := baseRequest("recorded-client")
	renewal.LeaseID, renewal.CurrentChecksum = c.leaseID, c.checksum
	dial := func() (*core.LeaseClient, error) { return core.DialLeaseClient(null.addr(), opTimeout) }
	// failed is shared by both connections' loops below, hence locked.
	var (
		failedMu sync.Mutex
		failed   firstError
	)
	renew := func(lc *core.LeaseClient) func() {
		return func() {
			offer, err := lc.Request(renewal)
			if err == nil && (offer.LeaseID != c.leaseID || offer.HasDriver) {
				err = fmt.Errorf("null server answered a renewal with %+v", offer)
			}
			if err != nil {
				failedMu.Lock()
				failed.note(err)
				failedMu.Unlock()
			}
		}
	}

	// One connection: the round-trip floor under the solo budget.
	lc, err := dial()
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	fl.rttP50Us, fl.rttSamples = perCallUs(floorBudget, 1, renew(lc))
	fl.allocsPerTrip = mallocsPer(2000, renew(lc))

	// FILE_DATA stream of the workload's blob into a sink.
	start, bytes := time.Now(), 0
	for time.Since(start) < floorBudget/2 {
		n, err := lc.FetchFile(c.leaseID)
		if err != nil {
			return nil, fmt.Errorf("null transfer: %w", err)
		}
		if n != c.blobBytes {
			return nil, fmt.Errorf("null transfer: %d bytes, recorded %d", n, c.blobBytes)
		}
		bytes += n
	}
	fl.fileMBPerS = float64(bytes) / (1 << 20) / time.Since(start).Seconds()

	// Both connections, closed loop: what the harness itself allocates.
	mem0 := readMem()
	var ops [conns]int
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lc, err := dial()
			if err != nil {
				errs[i] = err
				return
			}
			defer lc.Close()
			_, ops[i] = perCallUs(floorBudget, 1, renew(lc))
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	mem := memSince(mem0)
	total := 0
	for _, n := range ops {
		total += n
	}
	fl.nullAllocsPerOp = float64(mem.mallocs) / float64(total)
	fl.nullAllocKBPerOp = float64(mem.bytes) / 1024 / float64(total)
	if failed.err != nil {
		return nil, failed.err
	}

	// The repo's own fleet harness at r1: a client renews about every
	// 0.72 lease terms (RenewAhead 0.8, mean jitter 0.9), so this
	// population arrives at r1. Its latencies are timed from send and
	// its only lateness figure is a maximum; set beside the floor above
	// they say how much of a fleet-tier tail is the harness queueing.
	const renewEvery = 0.72
	fleet, err := workload.NewFleet(workload.FleetConfig{
		Addr:       null.addr(),
		Database:   "prod",
		User:       appUser,
		Password:   appPassword,
		Population: int(p.cfg.R1 * renewEvery * c.lease.Seconds()),
		Workers:    conns,
		Seed:       p.seed,
		RampUp:     c.lease / 2,
		RenewAhead: 0.8,
		OpTimeout:  opTimeout,
	})
	if err != nil {
		return nil, err
	}
	rep := fleet.RunFor(c.lease/2 + 2*floorBudget)
	if rep.Stats.Errors != 0 {
		return nil, fmt.Errorf("fleet against the null server: %s", rep)
	}
	fl.fleetP50Us = float64(rep.Stats.P50) / 1e3
	fl.fleetLagMaxMs = float64(rep.ScheduleLagMax) / 1e6
	fl.fleetRequests = int(rep.Stats.Total)
	return fl, nil
}

func (fl *floor) report(res *result) {
	res.add("wire.rtt_floor_p50_us", fl.rttP50Us, "us", fl.rttSamples, "")
	res.add("wire.allocs_per_roundtrip", fl.allocsPerTrip, "count", 2000, "")
	res.add("wire.file_chunk_mb_per_s", fl.fileMBPerS, "MB/s", 0, "")
	res.add("proc.null_allocs_per_op", fl.nullAllocsPerOp, "count", 0, "the harness's share of proc.allocs_per_op")
	res.add("proc.null_alloc_kb_per_op", fl.nullAllocKBPerOp, "KB", 0, "the harness's share of proc.alloc_kb_per_op")
	res.add("workload.fleet.floor_p50_us", fl.fleetP50Us, "us", fl.fleetRequests, "timed from send")
	res.add("workload.fleet.sched_lag_max_ms", fl.fleetLagMaxMs, "ms", fl.fleetRequests, "")
}
