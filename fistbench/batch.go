package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	fistful "repro"
	"repro/internal/address"
	"repro/internal/cluster"
	"repro/internal/econ"
	"repro/internal/txgraph"
)

// setupReps is how many times every workload repeats its set-up; setup_s is
// the median.
const setupReps = 3

// minPasses is the fewest timed passes a batch run makes, however short
// --seconds is.
const minPasses = 3

// figure2Samples is the sample count `fistful experiments` uses.
const figure2Samples = 12

// workloads maps each workload name to its implementation.
var workloads = map[string]func(context.Context, options, *run) error{
	"reproduce": runReproduce,
	"analyze":   runAnalyze,
	"serve":     runServe,
}

func workloadNames() []string { return []string{"reproduce", "analyze", "serve"} }

// config is the DefaultConfig economy at the run's seed.
func config(seed int64) fistful.Config {
	cfg := fistful.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// experimentResults are the typed results of the tables `fistful
// experiments` prints, plus their rendered text.
type experimentResults struct {
	h1       fistful.H1Result
	h2       fistful.H2Result
	share    [][]float64
	table2   fistful.Table2Result
	table3   []fistful.Table3Row
	selfChg  float64
	rendered []string
}

// runExperiments computes and renders exactly the tables `fistful
// experiments` prints.
func runExperiments(p *fistful.Pipeline) (experimentResults, error) {
	var r experimentResults
	t1 := p.Table1()
	h1, h1r := p.Heuristic1()
	h2, h2r, err := p.Heuristic2()
	if err != nil {
		return r, err
	}
	f2, series := p.Figure2(figure2Samples)
	t2, t2r := p.Table2()
	t3, t3r := p.Table3()
	r.selfChg = p.SelfChangeShare()
	for _, t := range []interface{ Render() string }{t1, h1, h2, f2, t2, t3} {
		r.rendered = append(r.rendered, t.Render())
	}
	r.h1, r.h2, r.share, r.table2, r.table3 = h1r, h2r, series.SharePct, t2r, t3r
	return r, nil
}

// passDigest is what one batch pass produced, reduced to what the checks
// need: the typed results and hashes of the partitions and balances in the
// replay's address order. The first pass additionally keeps the full
// vectors (in full) for the comparisons with the replay.
type passDigest struct {
	numTxs, numAddrs                        int
	height                                  int64
	h1Hash, naiveHash, refinedHash, balHash [32]byte
	results                                 experimentResults
	naiveSets                               [][]string
	refinedSets                             [][]string

	// full, only on the digest the replay checks read.
	h1, naive, refined []int32
	balances           []int64
	owners             []int32
}

// digestPipeline reduces a pipeline and its experiment results to a digest
// in the replay's address order. keepFull keeps the vectors themselves.
func digestPipeline(rp *replay, p *fistful.Pipeline, res experimentResults, keepFull bool) (passDigest, error) {
	g := p.Graph
	d := passDigest{numTxs: g.NumTxs(), numAddrs: g.NumAddrs(), height: g.Height(), results: res}
	if err := checkCounts(rp, d.numTxs, d.numAddrs, d.height); err != nil {
		return d, err
	}
	lookup := func(a address.Address) (uint32, bool) {
		id, ok := g.LookupAddr(a)
		return uint32(id), ok
	}
	labels := func(c *cluster.Clustering) ([]int32, error) {
		ls, err := inReplayOrder(rp, lookup, func(id uint32) int32 { return c.ClusterOf(txgraph.AddrID(id)) })
		return canonical(ls), err
	}
	var err error
	if d.h1, err = labels(p.H1); err != nil {
		return d, err
	}
	if d.naive, err = labels(p.Naive); err != nil {
		return d, err
	}
	if d.refined, err = labels(p.Refined); err != nil {
		return d, err
	}
	bal := g.Balances()
	if d.balances, err = inReplayOrder(rp, lookup, func(id uint32) int64 { return int64(bal[id]) }); err != nil {
		return d, err
	}
	if d.owners, err = inReplayOrder(rp, lookup, func(id uint32) int32 { return p.Owners[id] }); err != nil {
		return d, err
	}
	ownerName := func(i int) string {
		if o := d.owners[i]; o >= 0 {
			return p.World.Actors[o].Name
		}
		return ""
	}
	d.naiveSets = bigFourSets(d.naive, ownerName)
	d.refinedSets = bigFourSets(d.refined, ownerName)
	d.h1Hash, d.naiveHash, d.refinedHash = hashInts(d.h1), hashInts(d.naive), hashInts(d.refined)
	d.balHash = hashInts(d.balances)
	if !keepFull {
		d.h1, d.naive, d.refined, d.balances, d.owners = nil, nil, nil, nil, nil
	}
	return d, nil
}

func hashInts[T int32 | int64](xs []T) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// diff names the first field in which two passes differ, "" if none. The
// super-cluster sets are left out: the program breaks ties between equally
// large sets by map iteration order (bigFourTogether, experiments.go), so
// they may differ between passes; checkBigFour covers them per pass.
func (d passDigest) diff(o passDigest) string {
	strip := func(x passDigest) passDigest {
		x.h1, x.naive, x.refined, x.balances, x.owners = nil, nil, nil, nil, nil
		x.results.h2.NaiveBigFour, x.results.h2.RefinedBigFour = nil, nil
		x.results.rendered = stripBigFour(x.results.rendered)
		return x
	}
	a, b := strip(d), strip(o)
	fields := []struct {
		name string
		x, y any
	}{
		{"graph dimensions", [3]int64{int64(a.numTxs), int64(a.numAddrs), a.height}, [3]int64{int64(b.numTxs), int64(b.numAddrs), b.height}},
		{"H1 partition", a.h1Hash, b.h1Hash},
		{"naive partition", a.naiveHash, b.naiveHash},
		{"refined partition", a.refinedHash, b.refinedHash},
		{"balances", a.balHash, b.balHash},
		{"Heuristic 1 results", a.results.h1, b.results.h1},
		{"Heuristic 2 results", a.results.h2, b.results.h2},
		{"Figure 2", a.results.share, b.results.share},
		{"Table 2", a.results.table2, b.results.table2},
		{"Table 3", a.results.table3, b.results.table3},
		{"self-change share", a.results.selfChg, b.results.selfChg},
		{"rendered tables", a.results.rendered, b.results.rendered},
	}
	for _, f := range fields {
		if !reflect.DeepEqual(f.x, f.y) {
			return f.name
		}
	}
	return ""
}

// stripBigFour drops the rendered notes that print the super-cluster sets.
func stripBigFour(rendered []string) []string {
	out := make([]string, len(rendered))
	for i, t := range rendered {
		var keep []string
		for _, line := range strings.Split(t, "\n") {
			if strings.Contains(line, "share one cluster") {
				continue
			}
			keep = append(keep, line)
		}
		out[i] = strings.Join(keep, "\n")
	}
	return out
}

// checkBatch runs every batch check over a run's passes. ref is the digest
// whose full vectors the replay comparisons read; every other pass must
// equal it.
func checkBatch(rp *replay, cfg fistful.Config, digests []passDigest) error {
	ref := digests[0]
	checks := []error{
		checkPartition("h1_partition", rp.h1, ref.h1),
		checkBalances(rp.balance, ref.balances),
		checkCoarsens("naive_coarsens_h1", ref.h1, ref.naive),
		checkCoarsens("refined_coarsens_h1", ref.h1, ref.refined),
		checkPurity(ref.h1, ref.owners, ref.results.h1),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	for i, d := range digests {
		for _, err := range []error{
			checkLadder(d.results.h2.Ladder),
			checkFigure2(d.results.share),
			checkTable2(d.results.table2, cfg.PeelHops),
			checkBigFour("naive_super_cluster", d.results.h2.NaiveBigFour, d.naiveSets),
			checkBigFour("refined_super_cluster", d.results.h2.RefinedBigFour, d.refinedSets),
		} {
			if err != nil {
				return fmt.Errorf("pass %d: %w", i, err)
			}
		}
	}
	return checkSamePasses("passes_equal", digests)
}

// passTimes are the timings of one batch pass.
type passTimes struct {
	pass, visible time.Duration
}

// timedPasses runs pass until the run's time is up (at least minPasses
// times), digesting each pipeline between passes, outside the timed part.
func timedPasses(ctx context.Context, o options, r *run, rp *replay, pass func() (*fistful.Pipeline, time.Duration, error)) ([]passDigest, []passTimes, error) {
	var (
		digests []passDigest
		times   []passTimes
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(times) < minPasses || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		runtime.GC() // each pass starts from a collected heap
		start := time.Now()
		p, visible, err := pass()
		if err != nil {
			r.op("pass", false)
			return nil, nil, err
		}
		res, err := runExperiments(p)
		elapsed := time.Since(start)
		r.op("pass", err == nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, passTimes{pass: elapsed, visible: visible})
		d, err := digestPipeline(rp, p, res, len(digests) == 0)
		if err != nil {
			return nil, nil, err
		}
		digests = append(digests, d)
	}
	return digests, times, nil
}

// recordPasses records the end-to-end metrics of a batch run.
func recordPasses(r *run, times []passTimes) {
	pass := make([]time.Duration, len(times))
	vis := make([]time.Duration, len(times))
	for i, t := range times {
		pass[i], vis[i] = t.pass, t.visible
	}
	r.set("pass_s", "s", median(durs(pass, time.Second)))
	r.set("visible_p50_ms", "ms", median(durs(vis, time.Millisecond)))
	fmt.Fprintf(os.Stderr, "passes: %d, pass times %v\n", len(times), pass)
}

// setupWorld runs a workload's set-up, generate, setupReps times, records
// the median time as setup_s and returns the last world.
func setupWorld(ctx context.Context, r *run, generate func() (*econ.World, error)) (*econ.World, error) {
	var (
		w     *econ.World
		times []time.Duration
	)
	for i := 0; i < setupReps; i++ {
		w = nil // let the previous world go before generating the next
		start := time.Now()
		var err error
		if w, err = generate(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	r.set("setup_s", "s", median(durs(times, time.Second)))
	return w, nil
}

// runReproduce repeats full reproductions: generate the economy, build the
// pipeline, compute and render every table `fistful experiments` prints.
// Set-up generates the reference world the replay checks read.
func runReproduce(ctx context.Context, o options, r *run) error {
	cfg := config(o.seed)
	w, err := setupWorld(ctx, r, func() (*econ.World, error) { return econ.GenerateCtx(ctx, cfg) })
	if err != nil {
		return err
	}
	rp, err := replayChain(w.Chain.Blocks(), -1, nil)
	if err != nil {
		return err
	}
	if o.trace {
		return traceBatch(ctx, o, r, rp, nil, newTracer(o))
	}
	digests, times, err := timedPasses(ctx, o, r, rp, func() (*fistful.Pipeline, time.Duration, error) {
		start := time.Now()
		p, err := fistful.New(ctx, cfg, fistful.Options{})
		return p, time.Since(start), err
	})
	if err != nil {
		return err
	}
	recordPasses(r, times)
	return checkBatch(rp, cfg, digests)
}

// runAnalyze repeats re-analyses of one chain file: set-up generates the
// world and writes its framed chain file; each pass builds the pipeline by
// streaming that file and computes every table. A resident-chain pass made
// once in set-up must give the same results.
func runAnalyze(ctx context.Context, o options, r *run) error {
	cfg := config(o.seed)
	path := filepath.Join(o.dir, "chain.fbc")
	var tr *tracer
	if o.trace {
		tr = newTracer(o)
	}
	w, err := setupWorld(ctx, r, func() (*econ.World, error) {
		sp := tr.start("econ.generate")
		defer sp.end()
		w, err := econ.GenerateToFileCtx(ctx, cfg, path)
		if err == nil {
			tr.count("econ.txs", float64(txCount(w)))
		}
		return w, err
	})
	if err != nil {
		return err
	}
	rp, err := replayChain(w.Chain.Blocks(), -1, nil)
	if err != nil {
		return err
	}
	if o.trace {
		return traceBatch(ctx, o, r, rp, &traceFile{world: w, path: path}, tr)
	}
	resident, err := fistful.New(ctx, cfg, fistful.Options{Source: fistful.SourceWorld(w)})
	if err != nil {
		return err
	}
	res, err := runExperiments(resident)
	if err != nil {
		return err
	}
	residentDigest, err := digestPipeline(rp, resident, res, false)
	if err != nil {
		return err
	}
	resident = nil

	digests, times, err := timedPasses(ctx, o, r, rp, func() (*fistful.Pipeline, time.Duration, error) {
		start := time.Now()
		p, err := fistful.New(ctx, cfg, fistful.Options{Source: fistful.SourceWorldChainFile(w, path)})
		return p, time.Since(start), err
	})
	if err != nil {
		return err
	}
	recordPasses(r, times)
	if err := checkBatch(rp, cfg, digests); err != nil {
		return err
	}
	return checkSamePasses("resident_equals_file", []passDigest{residentDigest, digests[0]})
}
