package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one printed metric. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatchesDeclaredMetrics keeps them in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
// What each means on each workload is tabled in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"visible_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A layer the workload
// never calls reads 0.
var perLayer = []metricDef{
	{"econ.generate_s", "s"},
	{"econ.txs_per_s", "1/s"},
	{"chain.decode_s", "s"},
	{"chain.decode_allocs_per_block", "count"},
	{"txgraph.build_s", "s"},
	{"txgraph.append_us", "us"},
	{"txgraph.freeze_ms", "ms"},
	{"cluster.h1_ms", "ms"},
	{"cluster.h2_naive_ms", "ms"},
	{"cluster.h2_refined_ms", "ms"},
	{"cluster.ladder_ms", "ms"},
	{"cluster.evaluate_ms", "ms"},
	{"tags.name_ms", "ms"},
	{"tags.dice_ms", "ms"},
	{"fistful.owners_ms", "ms"},
	{"fistful.table1_ms", "ms"},
	{"balance.figure2_ms", "ms"},
	{"flow.table2_ms", "ms"},
	{"flow.table3_ms", "ms"},
	{"report.render_ms", "ms"},
	{"serve.apply_us", "us"},
	{"serve.publish_ms", "ms"},
	{"serve.checkpoint_save_ms", "ms"},
	{"serve.checkpoint_mb", "MB"},
	{"serve.checkpoint_load_ms", "ms"},
	{"serve.bytes_written_mb", "MB"},
	{"serve.feed_wait_ms", "ms"},
	{"serve.ingest_delay_ms", "ms"},
	{"serve.publish_delay_ms", "ms"},
	{"serve.epochs_per_block", "ratio"},
	{"serve.lookup_ns", "ns"},
	{"serve.catchup_blocks_per_s", "blocks/s"},
	{"serve.visible_p90_ms", "ms"},
	{"serve.restart_s", "s"},
	{"http.handler_us", "us"},
	{"http.cluster_p50_us", "us"},
	{"http.balance_p50_us", "us"},
	{"http.members_p50_us", "us"},
	{"http.stats_p50_us", "us"},
	{"http.tags_p50_us", "us"},
	{"http.query_p50_us", "us"},
	{"http.query_p99_us", "us"},
	{"http.queries_per_s", "1/s"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_mb", "MB"},
	{"load.writer_late_ms", "ms"},
	{"trace.pass_s", "s"},
}

// printed selects the metrics the result line carries: the end-to-end set
// for an untraced run, the per-layer set for a traced one. A per-layer
// metric the workload never measured is a layer it does not call and reads
// 0; a missing end-to-end metric is a benchmark bug.
func (r *run) printed(trace bool) (map[string]metric, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case !ok && trace:
			m = metric{Value: 0, Unit: d.unit}
		case !ok:
			return out, fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return out, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It panics on an empty sample,
// which only a benchmark bug produces.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("quantile of an empty sample")
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median and pyQuartiles compute what Python's statistics.median and
// statistics.quantiles(xs, n=4) (the default exclusive method) give.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func pyQuartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// durs converts durations to float64 in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// writeBytes reads the bytes this process caused to be written to storage
// (write_bytes of /proc/self/io), 0 where unavailable.
func writeBytes() float64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "write_bytes:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0
			}
			return v
		}
	}
	return 0
}

// goStats is a reading of the Go runtime's cumulative GC and allocation
// counters.
type goStats struct {
	gcCycles, gcCPU, allocBytes float64
}

var goStatNames = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{gcCycles: val(0), gcCPU: val(1), allocBytes: val(2)}
}

// recordSince records the runtime counters' growth since start, divided by
// the number of passes the interval held.
func (r *run) recordGoSince(start goStats, passes int) {
	end := readGoStats()
	n := float64(max(passes, 1))
	r.set("go.gc_cycles", "count", (end.gcCycles-start.gcCycles)/n)
	r.set("go.gc_cpu_s", "s", (end.gcCPU-start.gcCPU)/n)
	r.set("go.alloc_mb", "MB", (end.allocBytes-start.allocBytes)/n/(1<<20))
}
