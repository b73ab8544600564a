// Command experiments regenerates every table and figure of the paper
// plus the quantitative measurements backing its prose claims (-list
// prints the index), and doubles as the fleet-scale load harness
// driver.
//
//	go run ./cmd/experiments            # run everything
//	go run ./cmd/experiments -exp F4    # one experiment
//	go run ./cmd/experiments -list      # list experiment ids
//
//	go run ./cmd/experiments -load steady,storm -population 100000 \
//	    -duration 20s -out BENCH_tail.json   # fleet-scale load scenarios
//	go run ./cmd/experiments -load all       # all four canonical scenarios
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/scenarios"
)

func main() {
	var (
		exp  = flag.String("exp", "", "experiment id to run (default: all)")
		list = flag.Bool("list", false, "list experiment ids and exit")

		load       = flag.String("load", "", "load scenarios to run, comma-separated or 'all' (steady, storm, license, restart; 'cluster' is opt-in)")
		population = flag.Int("population", 100000, "simulated bootloaders per load scenario")
		workers    = flag.Int("workers", 8, "real connections driving the fleet")
		duration   = flag.Duration("duration", 10*time.Second, "measured steady phase per load scenario")
		seed       = flag.Int64("seed", 1, "load schedule seed")
		lease      = flag.Duration("lease", 0, "lease term override (default scales with population)")
		members    = flag.Int("cluster", 0, "member count for the cluster load scenario (default 3)")
		out        = flag.String("out", "", "write load results as JSON to this file (default: stdout only)")
	)
	flag.Parse()

	if *load != "" {
		os.Exit(runLoad(*load, scenarios.LoadConfig{
			Population: *population,
			Workers:    *workers,
			Duration:   *duration,
			Seed:       *seed,
			Lease:      *lease,
			Cluster:    *members,
		}, *out))
	}

	if *list {
		for _, e := range scenarios.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var toRun []scenarios.Experiment
	if *exp == "" {
		toRun = scenarios.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e := scenarios.ByID(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			toRun = append(toRun, *e)
		}
	}

	failed := 0
	for _, e := range toRun {
		fmt.Printf("\n=== %s: %s ===\n", e.ID, e.Title)
		rep, err := e.Run()
		if err != nil {
			fmt.Printf("ERROR: %v\n", err)
			failed++
			continue
		}
		for _, line := range rep.Lines {
			fmt.Println("  " + line)
		}
		verdict := "REPRODUCED"
		if !rep.Pass {
			verdict = "NOT REPRODUCED"
			failed++
		}
		fmt.Printf("  -> %s\n", verdict)
	}
	fmt.Printf("\n%d/%d experiments reproduced\n", len(toRun)-failed, len(toRun))
	if failed > 0 {
		os.Exit(1)
	}
}

// runLoad runs the requested load scenarios and persists their
// results; it returns the process exit code. A scenario that violates
// its own invariants (cap exceeded, fleet not converged, unbounded
// error window) still reports its numbers before the run fails.
func runLoad(names string, cfg scenarios.LoadConfig, outPath string) int {
	var toRun []string
	if names == "all" {
		toRun = scenarios.LoadScenarios()
	} else {
		toRun = strings.Split(names, ",")
		for i := range toRun {
			toRun[i] = strings.TrimSpace(toRun[i])
		}
	}

	results := make([]*scenarios.LoadResult, 0, len(toRun))
	failed := 0
	for _, name := range toRun {
		fmt.Printf("=== load %s: %d clients, %d workers, seed %d ===\n",
			name, cfg.Population, cfg.Workers, cfg.Seed)
		start := time.Now()
		res, err := scenarios.RunLoad(name, cfg)
		if res != nil {
			results = append(results, res)
			fmt.Printf("  %d reqs (%.0f/s, %.0f stmts/s), errors %d, "+
				"p50 %.0fµs p95 %.0fµs p99 %.0fµs max %.0fµs, lag %.0fms\n",
				res.Requests, res.RequestsPerSec, res.StatementsPerSec, res.Errors,
				res.P50Us, res.P95Us, res.P99Us, res.MaxUs, res.ScheduleLagMaxMs)
			if res.ConvergeMs > 0 {
				fmt.Printf("  converged in %.0fms, %d upgrades, %d transfer bytes\n",
					res.ConvergeMs, res.Upgrades, res.TransferBytes)
			}
			if res.LicenseCap > 0 {
				fmt.Printf("  licenses: peak %d of cap %d, %d denials\n",
					res.PeakLicenses, res.LicenseCap, res.Denied)
			}
		}
		if err != nil {
			fmt.Printf("  FAILED: %v\n", err)
			failed++
			continue
		}
		fmt.Printf("  -> ok in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if outPath != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal results: %v\n", err)
			return 1
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", outPath, err)
			return 1
		}
		fmt.Printf("wrote %d results to %s\n", len(results), outPath)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
