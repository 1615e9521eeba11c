// Command fistbench is the repository's benchmark: it runs one named
// workload of the fistful reproduction, checks the program's outputs against
// computations of its own, and prints every metric by name with its unit.
//
//	fistbench --workload reproduce|analyze|serve [--seed N] [--seconds S] [--trace 0|1]
//	fistbench steady [--runs N] [--seconds S] [--workloads a,b]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 the run records spans around the
// calls into each layer and the metrics are the per-layer ones. A failed
// check prints its name on standard error and exits with status 1. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
)

// defaultSeed is the DefaultConfig economy's own seed.
const defaultSeed = 20130827

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates what one invocation measured.
type run struct {
	metrics map[string]metric
	// ops counts attempted and failed operations by kind, for the report.
	ops map[string]*opCount
}

type opCount struct{ attempted, failed int }

func newRun() *run {
	return &run{metrics: make(map[string]metric), ops: make(map[string]*opCount)}
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) op(kind string, ok bool) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if !ok {
		c.failed++
	}
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is the run's private scratch directory, removed at exit.
	dir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "fistbench steady:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchmain(os.Args[1:]))
}

func benchmain(args []string) int {
	fs := flag.NewFlagSet("fistbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: reproduce, analyze or serve")
	seed := fs.Int64("seed", defaultSeed, "economy seed")
	seconds := fs.Float64("seconds", 10, "how long the timed part runs")
	trace := fs.Int("trace", 0, "1 records per-layer spans instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "fistbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fistbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	// Everything a run writes lives under one private directory in the
	// working directory (the checkout), removed however the run ends.
	if err := os.MkdirAll(".bench_build", 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "fistbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fistbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	r := newRun()
	err = wl(ctx, opts, r)
	r.set("peak_rss_mb", "MB", peakRSSMB())

	metrics, merr := r.printed(opts.trace)
	if err == nil {
		err = merr
	}
	res := result{Correct: err == nil, Metrics: metrics}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := r.ops[k]
		res.Attempted += c.attempted
		res.Failed += c.failed
		fmt.Printf("ops %-16s attempted %6d failed %d\n", k, c.attempted, c.failed)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "fistbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fistbench:", err)
		return 1
	}
	return 0
}
