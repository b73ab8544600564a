// Command bench is drivobench: one benchmark for lease renewal, cold
// bootstrap, upgrade storm and the external-store path, end to end
// and per layer. It boots the real servers in-process on loopback
// TCP, drives them through the public clients from two connections,
// checks every answer, and prints named metrics with units. See
// README.md for the glossary and BENCHMARK.json for the contract.
//
//	bash bench/run.sh --workload steady_renew --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload all -repeat 10
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of client order, arrival gaps and op mix")
		seconds  = flag.Int("seconds", defaultSeconds, "measured seconds per run, split over three phases")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		repeat   = flag.Int("repeat", 0, "run this many full sets on the one seed and judge the spreads between them")
		outDir   = flag.String("out", "bench/out", "directory for span files")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(os.Stdout, *workload, *seed, *seconds, *trace == 1, *repeat, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}
