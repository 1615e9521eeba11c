package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs each workload in two sets of runs, each run with its own
// seed, and prints per metric and set the median and quartiles, the spread
// (quartile distance over median) and whether the second set's median is
// within the metric's bound of the first's. It reads the bounds from
// BENCHMARK.json in the working directory.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per set")
	seconds := fs.Int("seconds", 0, "run length; 0 means BENCHMARK.json's run_seconds")
	list := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	seed := fs.Int64("seed", 1, "seed of the first run; later runs count up from it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	allOK := true
	next := *seed
	for _, wl := range strings.Split(*list, ",") {
		var sets [2][]result
		for s := range sets {
			for i := 0; i < *runs; i++ {
				res, err := steadyRun(self, wl, next, *seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, next, err)
				}
				next++
				sets[s] = append(sets[s], res)
			}
		}
		fmt.Printf("workload %s: %d runs per set, %d s each\n", wl, *runs, *seconds)
		fmt.Printf("  %-16s %10s %10s %10s %7s | %10s %10s %10s %7s | %6s %7s  %s\n",
			"metric", "median1", "q1", "q3", "spread", "median2", "q1", "q3", "spread", "bound", "drift", "verdict")
		for _, m := range bf.EndToEnd {
			var st [2]struct{ med, q1, q3 float64 }
			for s := range sets {
				var xs []float64
				for _, res := range sets[s] {
					xs = append(xs, res.Metrics[m.Name].Value)
				}
				st[s].med = median(xs)
				st[s].q1, st[s].q3 = pyQuartiles(xs)
			}
			spread := func(i int) float64 { return (st[i].q3 - st[i].q1) / st[i].med }
			drift := (st[1].med - st[0].med) / st[0].med
			if m.Better == "higher" {
				drift = -drift
			}
			ok := drift <= m.Bound
			if m.Name != "setup_s" {
				ok = ok && spread(0) <= m.Bound && spread(1) <= m.Bound
			}
			verdict := "ok"
			if !ok {
				verdict, allOK = "OUT OF BOUND", false
			}
			fmt.Printf("  %-16s %10.4f %10.4f %10.4f %7.4f | %10.4f %10.4f %10.4f %7.4f | %6.3f %7.4f  %s\n",
				m.Name, st[0].med, st[0].q1, st[0].q3, spread(0), st[1].med, st[1].q1, st[1].q3, spread(1), m.Bound, drift, verdict)
		}
		for s := range sets {
			att, failed := 0, 0
			for _, res := range sets[s] {
				att += res.Attempted
				failed += res.Failed
			}
			fmt.Printf("  set %d: %d operations attempted, %d failed\n", s+1, att, failed)
		}
	}
	if !allOK {
		return errors.New("some metric is out of its bound")
	}
	return nil
}

// steadyRun runs one benchmark invocation and parses its result line.
func steadyRun(self, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return result{}, errors.New("run reports incorrect output")
	}
	return res, nil
}
