package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// contract is BENCHMARK.json: the metric names, units, directions and
// bounds the benchmark answers to. The program reads it instead of
// repeating it, so a printed name is a declared name.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// declared returns the declarations a run of this kind must print.
func (c *contract) declared(traced bool) []metricDecl {
	if traced {
		return c.PerLayer
	}
	return c.EndToEnd
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line builds the contract line: exactly the declared metrics. The
// contract wants every per-layer name from every workload, so a layer
// the workload never enters, which the report omits, reads 0 here. An
// end-to-end metric is never missing.
func (c *contract) line(res *result) (*contractLine, error) {
	out := &contractLine{
		Correct:   len(res.Errors) == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]contractValue),
	}
	for _, d := range c.declared(res.Traced) {
		v, ok := res.value(d.Name)
		if !ok && !res.Traced {
			return nil, fmt.Errorf("%s: declared metric %s was not measured", res.Workload, d.Name)
		}
		out.Metrics[d.Name] = contractValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printResult writes one run as a text table. Metrics the contract
// declares carry their bound; the rest are the harness's own guards.
func printResult(w io.Writer, c *contract, res *result) {
	bounds := make(map[string]metricDecl)
	for _, d := range c.declared(res.Traced) {
		bounds[d.Name] = d
	}
	fmt.Fprintf(w, "== %s  seed=%d  trace=%v  attempted=%d  failed=%d ==\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed)
	fmt.Fprintf(w, "%-42s %16s %-6s %9s %6s  %s\n", "metric", "value", "unit", "samples", "bound", "note")
	for _, m := range res.Metrics {
		bound := "-"
		if d, ok := bounds[m.Name]; ok && d.Bound > 0 {
			bound = fmt.Sprintf("%.2f", d.Bound)
		}
		samples := "-"
		if m.Samples > 0 {
			samples = fmt.Sprint(m.Samples)
		}
		fmt.Fprintf(w, "%-42s %16.4f %-6s %9s %6s  %s\n", m.Name, m.Value, m.Unit, samples, bound, m.Note)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(w, "spans: %s\n", res.SpanFile)
	}
	fmt.Fprintln(w)
}

// summary is the last line of an all-workloads or repeated run.
type summary struct {
	Results []summaryRow `json:"results"`
	Spreads []spreadRow  `json:"spreads,omitempty"`
	Correct bool         `json:"correct"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type summaryRow struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// spreadRow is one (metric, workload) pair over the repeated sets.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	// IQRShare is (q3-q1)/median, the spread the driver judges;
	// RangeShare is (max-min)/median.
	IQRShare   float64 `json:"iqr_share"`
	RangeShare float64 `json:"range_share"`
	Bound      float64 `json:"bound"`
	Within     bool    `json:"within"`
}

func rowOf(res *result) summaryRow {
	return summaryRow{Workload: res.Workload, Seed: res.Seed, Traced: res.Traced,
		Attempted: res.Attempted, Failed: res.Failed, Errors: res.Errors, Metrics: res.Metrics}
}

// spreads judges every declared end-to-end metric of every workload
// over the repeated runs. setup_s is reported but, as in the driver's
// rule, its spread is not held to the bound.
func spreads(c *contract, runs []*result) []spreadRow {
	values := make(map[[2]string][]float64)
	for _, res := range runs {
		for _, m := range res.Metrics {
			key := [2]string{res.Workload, m.Name}
			values[key] = append(values[key], m.Value)
		}
	}
	var rows []spreadRow
	for _, w := range c.Workloads {
		for _, d := range c.EndToEnd {
			v := values[[2]string{w.Name, d.Name}]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			s := sortedCopy(v)
			row := spreadRow{Workload: w.Name, Metric: d.Name, Unit: d.Unit, N: len(v),
				Q1: q1, Median: q2, Q3: q3,
				IQRShare: (q3 - q1) / q2, RangeShare: (s[len(s)-1] - s[0]) / q2, Bound: d.Bound}
			row.Within = row.IQRShare <= d.Bound || d.Name == "setup_s"
			rows = append(rows, row)
		}
	}
	return rows
}

func printSpreads(w io.Writer, rows []spreadRow) {
	fmt.Fprintf(w, "%-16s %-18s %3s %14s %14s %14s %8s %8s %6s\n",
		"workload", "metric", "n", "q1", "median", "q3", "iqr/med", "rng/med", "bound")
	for _, r := range rows {
		flag := ""
		if !r.Within {
			flag = "  EXCEEDS BOUND"
		}
		fmt.Fprintf(w, "%-16s %-18s %3d %14.4f %14.4f %14.4f %8.4f %8.4f %6.2f%s\n",
			r.Workload, r.Metric, r.N, r.Q1, r.Median, r.Q3, r.IQRShare, r.RangeShare, r.Bound, flag)
	}
}

// run is the command: one workload prints the contract line last; all
// workloads, or repeated sets, print a summary ending in "claim": null.
// The returned code is 0 only when every check passed and, for
// repeated sets, every spread stayed inside its bound.
func run(w io.Writer, workload string, seed int64, seconds int, traced bool, repeat int, outDir string) (int, error) {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return 1, err
	}
	var cfgs []workloadConfig
	if workload == "all" {
		cfgs = workloads
	} else {
		cfg, ok := workloadByName(workload)
		if !ok {
			return 1, fmt.Errorf("unknown workload %q (have %s, all)", workload, strings.Join(workloadNames(), ", "))
		}
		cfgs = []workloadConfig{cfg}
	}

	one := func(cfg workloadConfig, seed int64) (*result, error) {
		p := defaultParams(cfg, seed, seconds, outDir)
		var res *result
		var err error
		if traced {
			res, err = runTraced(p)
		} else {
			res, err = runUntraced(p)
		}
		if err != nil {
			return nil, err
		}
		printResult(w, c, res)
		return res, nil
	}

	if len(cfgs) == 1 && repeat == 0 {
		res, err := one(cfgs[0], seed)
		if err != nil {
			return 1, err
		}
		line, err := c.line(res)
		if err != nil {
			return 1, err
		}
		if err := json.NewEncoder(w).Encode(line); err != nil {
			return 1, err
		}
		if !line.Correct {
			return 1, nil
		}
		return 0, nil
	}

	sets := repeat
	if sets == 0 {
		sets = 1
	}
	sum := summary{Correct: true}
	var runs []*result
	for i := 0; i < sets; i++ {
		for _, cfg := range cfgs {
			res, err := one(cfg, seed)
			if err != nil {
				return 1, err
			}
			runs = append(runs, res)
			sum.Results = append(sum.Results, rowOf(res))
			if len(res.Errors) > 0 {
				sum.Correct = false
			}
		}
	}
	code := 0
	if repeat > 1 && !traced {
		sum.Spreads = spreads(c, runs)
		printSpreads(w, sum.Spreads)
		for _, r := range sum.Spreads {
			if !r.Within {
				code = 1
			}
		}
	}
	if !sum.Correct {
		code = 1
	}
	if err := json.NewEncoder(w).Encode(sum); err != nil {
		return 1, err
	}
	return code, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return names
}
