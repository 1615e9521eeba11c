package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	fistful "repro"
	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/econ"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/tags"
	"repro/internal/txgraph"
)

// span is one timed call into a layer. Spans of one run share its run id.
// A span with count > 1 aggregates that many calls made back to back (one
// per block, say) into one interval.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
	Run    string  `json:"run"`
	Count  int     `json:"count,omitempty"`
}

// tracer keeps a run's spans in memory; flush writes them out as JSON
// lines on standard error when the run ends. A nil tracer records nothing,
// so untraced code paths call it unconditionally.
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// open is the stack of spans opened by start, on the run's main
	// goroutine; a new span's parent is the innermost open one.
	open   []int
	counts map[string]float64
}

func newTracer(o options) *tracer {
	return &tracer{
		run:    fmt.Sprintf("%s-%d-%d", o.workload, o.seed, time.Now().UnixNano()),
		t0:     time.Now(),
		counts: make(map[string]float64),
	}
}

// spanRef closes a span opened by start.
type spanRef struct {
	t  *tracer
	id int
}

// start opens a span on the run's main goroutine.
func (t *tracer) start(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	now := time.Now()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now.Sub(t.t0).Seconds(), Run: t.run, Count: 1})
	t.open = append(t.open, id)
	return spanRef{t: t, id: id}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.id-1].End = time.Since(s.t.t0).Seconds()
	if n := len(s.t.open); n > 0 && s.t.open[n-1] == s.id {
		s.t.open = s.t.open[:n-1]
	}
}

// spanID returns the span's id, the parent to give spans recorded for it
// from other goroutines.
func (s spanRef) spanID() int { return s.id }

// record adds a finished span under parent: count calls that together took
// busy, ending at end. Safe from any goroutine.
func (t *tracer) record(name string, parent int, end time.Time, busy time.Duration, count int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := end.Sub(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: e - busy.Seconds(), End: e, Run: t.run, Count: count})
}

// count adds to a named counter recorded at the same boundaries as spans.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes sums, per span name, the self time (duration minus the part
// its children cover) of root and every span below it, and the number of
// calls.
func (t *tracer) selfTimes(root int) (self map[string]time.Duration, calls map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	self = make(map[string]time.Duration)
	calls = make(map[string]int)
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id-1]
		d := s.End - s.Start
		for _, c := range children[id] {
			cs := t.spans[c-1]
			d -= cs.End - cs.Start
			walk(c)
		}
		self[s.Name] += time.Duration(d * float64(time.Second))
		calls[s.Name] += s.Count
	}
	walk(root)
	return self, calls
}

// flush writes every span as one JSON line on standard error.
func (t *tracer) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(os.Stderr)
	for _, s := range t.spans {
		enc.Encode(s)
	}
}

// timedSource wraps the file BlockSource handed to txgraph.BuildStream and
// times each NextBlock, counting its heap allocations.
type timedSource struct {
	src    chain.BlockSource
	busy   time.Duration
	blocks int
	allocs uint64
	sample []metrics.Sample
}

func newTimedSource(src chain.BlockSource) *timedSource {
	return &timedSource{src: src, sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (s *timedSource) NextBlock() (*chain.Block, error) {
	metrics.Read(s.sample)
	a0 := s.sample[0].Value.Uint64()
	start := time.Now()
	b, err := s.src.NextBlock()
	s.busy += time.Since(start)
	metrics.Read(s.sample)
	s.allocs += s.sample[0].Value.Uint64() - a0
	if err == nil {
		s.blocks++
	}
	return b, err
}

// traceFile is the analyze workload's input for the traced run.
type traceFile struct {
	world *econ.World
	path  string
}

// tagStore combines the researcher's and the public tags, as the pipeline
// and the daemon both do.
func tagStore(w *econ.World) *tags.Store {
	s := tags.NewStore()
	s.AddAll(w.Tags.All())
	s.AddAll(w.PublicTags)
	return s
}

// tracedPipeline builds a Pipeline from the layer calls, in the order the
// pipeline itself makes them, with a span around each.
func tracedPipeline(ctx context.Context, tr *tracer, cfg fistful.Config, file *traceFile) (*fistful.Pipeline, error) {
	workers := par.Workers(0)
	var (
		w   *econ.World
		g   *txgraph.Graph
		err error
	)
	if file == nil {
		sp := tr.start("econ.generate")
		w, err = econ.GenerateCtx(ctx, cfg)
		sp.end()
		if err != nil {
			return nil, err
		}
		tr.count("econ.txs", float64(txCount(w)))
		sp = tr.start("txgraph.build")
		g, err = txgraph.BuildWorkers(w.Chain, workers)
		sp.end()
	} else {
		w = file.world
		src, oerr := chain.OpenReader(file.path)
		if oerr != nil {
			return nil, oerr
		}
		ts := newTimedSource(src)
		sp := tr.start("txgraph.build")
		g, err = txgraph.BuildStream(ts, workers)
		tr.record("chain.decode", sp.spanID(), time.Now(), ts.busy, ts.blocks)
		sp.end()
		src.Close()
		tr.count("chain.decode_allocs", float64(ts.allocs))
		tr.count("chain.blocks", float64(ts.blocks))
	}
	if err != nil {
		return nil, err
	}
	if g.Height() != w.Chain.Height() {
		return nil, fmt.Errorf("graph height %d, world height %d", g.Height(), w.Chain.Height())
	}
	p := &fistful.Pipeline{World: w, Graph: g, Parallelism: workers}
	p.Tags = tagStore(w)

	sp := tr.start("cluster.h1")
	base := cluster.Heuristic1Forest(g, workers)
	p.H1 = cluster.ClusteringFromForest(g, base)
	sp.end()
	sp = tr.start("tags.name")
	p.NamingH1 = tags.NameClusters(p.H1, g, p.Tags)
	sp.end()
	sp = tr.start("tags.dice")
	p.Dice = tags.ServiceAddrSet(p.H1, p.NamingH1, g, w.DiceServiceNames())
	sp.end()
	h2Workers := par.Split(workers, 2)
	sp = tr.start("cluster.h2_naive")
	p.Naive = cluster.Heuristic2OnForest(g, cluster.Unrefined(), base, h2Workers)
	sp.end()
	sp = tr.start("cluster.h2_refined")
	p.Refined = cluster.Heuristic2OnForest(g, cluster.Refined(p.Dice, 7*w.BlocksPerDay), base, h2Workers)
	sp.end()
	sp = tr.start("tags.name")
	p.Naming = tags.NameClusters(p.Refined, g, p.Tags)
	sp.end()
	sp = tr.start("fistful.owners")
	p.Owners = w.OwnersForGraph(g)
	sp.end()
	return p, nil
}

// tracedExperiments runs the experiment methods with a span around each.
func tracedExperiments(tr *tracer, p *fistful.Pipeline) (experimentResults, error) {
	var r experimentResults
	sp := tr.start("fistful.table1")
	t1 := p.Table1()
	sp.end()
	sp = tr.start("cluster.evaluate")
	h1, h1r := p.Heuristic1()
	sp.end()
	sp = tr.start("cluster.ladder")
	h2, h2r, err := p.Heuristic2()
	sp.end()
	if err != nil {
		return r, err
	}
	sp = tr.start("balance.figure2")
	f2, series := p.Figure2(figure2Samples)
	sp.end()
	sp = tr.start("flow.table2")
	t2, t2r := p.Table2()
	sp.end()
	sp = tr.start("flow.table3")
	t3, t3r := p.Table3()
	sp.end()
	sp = tr.start("fistful.selfchange")
	r.selfChg = p.SelfChangeShare()
	sp.end()
	sp = tr.start("report.render")
	for _, t := range []interface{ Render() string }{t1, h1, h2, f2, t2, t3} {
		r.rendered = append(r.rendered, t.Render())
	}
	sp.end()
	r.h1, r.h2, r.share, r.table2, r.table3 = h1r, h2r, series.SharePct, t2r, t3r
	return r, nil
}

// batchLayerMetrics maps span names to the per-layer metrics of the batch
// workloads, with the unit each is printed in.
var batchLayerMetrics = []struct {
	span, metric string
	unit         time.Duration
}{
	{"chain.decode", "chain.decode_s", time.Second},
	{"txgraph.build", "txgraph.build_s", time.Second},
	{"cluster.h1", "cluster.h1_ms", time.Millisecond},
	{"cluster.h2_naive", "cluster.h2_naive_ms", time.Millisecond},
	{"cluster.h2_refined", "cluster.h2_refined_ms", time.Millisecond},
	{"cluster.ladder", "cluster.ladder_ms", time.Millisecond},
	{"cluster.evaluate", "cluster.evaluate_ms", time.Millisecond},
	{"tags.name", "tags.name_ms", time.Millisecond},
	{"tags.dice", "tags.dice_ms", time.Millisecond},
	{"fistful.owners", "fistful.owners_ms", time.Millisecond},
	{"fistful.table1", "fistful.table1_ms", time.Millisecond},
	{"balance.figure2", "balance.figure2_ms", time.Millisecond},
	{"flow.table2", "flow.table2_ms", time.Millisecond},
	{"flow.table3", "flow.table3_ms", time.Millisecond},
	{"report.render", "report.render_ms", time.Millisecond},
}

// traceBatch is the traced run of a batch workload: passes built from the
// layer calls until the run's time is up, per-layer self times reported as
// medians over the passes, and the same checks as the untraced passes.
// file is nil for reproduce (each pass generates its world). tr may already
// hold the set-up's spans.
func traceBatch(ctx context.Context, o options, r *run, rp *replay, file *traceFile, tr *tracer) error {
	defer tr.flush()
	cfg := config(o.seed)
	var (
		digests []passDigest
		roots   []int
		walls   []time.Duration
	)
	gcStart := readGoStats()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(roots) < minPasses || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.GC()
		sp := tr.start("pass")
		start := time.Now()
		p, err := tracedPipeline(ctx, tr, cfg, file)
		var res experimentResults
		if err == nil {
			res, err = tracedExperiments(tr, p)
		}
		walls = append(walls, time.Since(start))
		sp.end()
		r.op("pass", err == nil)
		if err != nil {
			return err
		}
		roots = append(roots, sp.spanID())
		d, err := digestPipeline(rp, p, res, len(digests) == 0)
		if err != nil {
			return err
		}
		digests = append(digests, d)
	}
	r.recordGoSince(gcStart, len(roots))
	r.set("trace.pass_s", "s", median(durs(walls, time.Second)))

	perPass := make(map[string][]float64)
	for _, root := range roots {
		self, _ := tr.selfTimes(root)
		for _, m := range batchLayerMetrics {
			if d, ok := self[m.span]; ok {
				perPass[m.metric] = append(perPass[m.metric], float64(d)/float64(m.unit))
			}
		}
		if d, ok := self["econ.generate"]; ok {
			perPass["econ.generate_s"] = append(perPass["econ.generate_s"], d.Seconds())
		}
	}
	for _, m := range batchLayerMetrics {
		if xs := perPass[m.metric]; len(xs) > 0 {
			r.set(m.metric, unitName(m.unit, m.metric), median(xs))
		}
	}
	if xs := perPass["econ.generate_s"]; len(xs) > 0 {
		r.set("econ.generate_s", "s", median(xs))
	}
	recordEconRate(r, tr)
	if n := tr.counts["chain.blocks"]; n > 0 {
		r.set("chain.decode_allocs_per_block", "count", tr.counts["chain.decode_allocs"]/n)
	}
	printSelfTimes(tr, roots[0])
	if err := checkBatch(rp, cfg, digests); err != nil {
		return err
	}
	return nil
}

// recordEconRate records generated transactions per second of generation,
// over every generation span of the run (set-up or passes).
func recordEconRate(r *run, tr *tracer) {
	var busy time.Duration
	for _, s := range tr.spans {
		if s.Name == "econ.generate" {
			busy += time.Duration((s.End - s.Start) * float64(time.Second))
		}
	}
	if busy > 0 {
		r.set("econ.txs_per_s", "1/s", tr.counts["econ.txs"]/busy.Seconds())
		if _, ok := r.metrics["econ.generate_s"]; !ok {
			var gens []float64
			for _, s := range tr.spans {
				if s.Name == "econ.generate" {
					gens = append(gens, s.End-s.Start)
				}
			}
			r.set("econ.generate_s", "s", median(gens))
		}
	}
}

func unitName(u time.Duration, metric string) string {
	switch u {
	case time.Second:
		return "s"
	case time.Millisecond:
		return "ms"
	case time.Microsecond:
		return "us"
	}
	panic("no unit for " + metric)
}

// printSelfTimes prints one pass's per-layer self times on standard error.
func printSelfTimes(tr *tracer, root int) {
	self, calls := tr.selfTimes(root)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "self time per layer, one traced pass:")
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-22s %10.3f ms  %d calls\n", name, float64(self[name])/float64(time.Millisecond), calls[name])
	}
}

// analysisFor is the serve analysis configuration NewServer derives from a
// world.
func analysisFor(w *econ.World) serve.Analysis {
	return serve.Analysis{Tags: tagStore(w), DiceNames: w.DiceServiceNames(), WaitBlocks: 7 * w.BlocksPerDay}
}

// tracedDaemon is the daemon NewServer builds, assembled from the serve
// package so the traced run can wrap its feed and time its checkpoint load.
type tracedDaemon struct {
	d   *serve.Daemon
	api *serve.API
}

func (t *tracedDaemon) Run(ctx context.Context) error { return t.d.Run(ctx) }
func (t *tracedDaemon) Handler() http.Handler         { return t.api.Handler() }
func (t *tracedDaemon) HTTPServer(addr string) *http.Server {
	return serve.NewHTTPServer(addr, t.api.Handler(), serve.HTTPOptions{})
}
func (t *tracedDaemon) Health() serve.Health      { return t.d.Health() }
func (t *tracedDaemon) Snapshot() *serve.Snapshot { return t.d.Snapshot() }

func newTracedDaemon(tr *tracer, in *serveInputs, ckDir string) (daemon, error) {
	an := analysisFor(in.world)
	ck, err := serve.NewCheckpointStore(ckDir, 0)
	if err != nil {
		return nil, err
	}
	ing := serve.NewIngester(an)
	sp := tr.start("serve.checkpoint_load")
	restored, ok, err := ck.LoadLatest(an)
	sp.end()
	if err != nil {
		return nil, err
	}
	if ok {
		ing = restored
	}
	feed, err := serve.OpenTailFeed(in.path)
	if err != nil {
		return nil, err
	}
	tf := &timedFeed{BlockFeed: feed, tr: tr, tipFrom: int64(in.backlog)}
	d := serve.NewDaemonOpts(ing, tf, serve.DaemonOptions{Checkpoints: ck})
	return &tracedDaemon{d: d, api: serve.NewDaemonAPI(d)}, nil
}

// timedFeed wraps the daemon's TailFeed and times Next for each tip block:
// the time the ingest loop waits for the writer plus the decode.
type timedFeed struct {
	serve.BlockFeed
	tr      *tracer
	tipFrom int64
	next    int64 // height of the block Next delivers next
}

func (f *timedFeed) Next(ctx context.Context) (*chain.Block, error) {
	start := time.Now()
	b, err := f.BlockFeed.Next(ctx)
	if err == nil {
		if f.next >= f.tipFrom {
			f.tr.record("serve.feed_wait", 0, time.Now(), time.Since(start), 1)
		}
		f.next++
	}
	return b, err
}

func (f *timedFeed) Rewind(height int64) error {
	f.next = height
	return f.BlockFeed.Rewind(height)
}

// traceServeLayers times the serve path's layer calls directly at tip
// height, after the daemon phases: appending and freezing the graph, applying,
// publishing, saving and loading the ingester, the analytics a publish
// runs, snapshot lookups, and the HTTP handler without the network.
func traceServeLayers(ctx context.Context, tr *tracer, r *run, in *serveInputs, final *serve.Snapshot, h http.Handler) error {
	blocks := in.world.Chain.Blocks()
	an := analysisFor(in.world)

	var feedWaits []float64
	for _, s := range tr.spans {
		if s.Name == "serve.feed_wait" {
			feedWaits = append(feedWaits, (s.End-s.Start)*1000)
		}
	}
	if len(feedWaits) > 0 {
		r.set("serve.feed_wait_ms", "ms", median(feedWaits))
	}
	recordEconRate(r, tr)

	// The graph alone: Appender.AppendBlock per block, Freeze at the tip.
	ap := txgraph.NewAppender(0)
	start := time.Now()
	for _, b := range blocks {
		if err := ap.AppendBlock(b); err != nil {
			return err
		}
	}
	r.set("txgraph.append_us", "us", float64(time.Since(start))/float64(time.Microsecond)/float64(len(blocks)))
	var freezes []time.Duration
	var g *txgraph.Graph
	for i := 0; i < 3; i++ {
		t := time.Now()
		g = ap.Freeze()
		freezes = append(freezes, time.Since(t))
	}
	r.set("txgraph.freeze_ms", "ms", median(durs(freezes, time.Millisecond)))

	// What a publish runs over the frozen graph.
	workers := par.Workers(0)
	t := time.Now()
	base := cluster.Heuristic1Forest(g, workers)
	h1 := cluster.ClusteringFromForest(g, base.Clone())
	r.set("cluster.h1_ms", "ms", ms(time.Since(t)))
	t = time.Now()
	namingH1 := tags.NameClusters(h1, g, an.Tags)
	nameH1 := time.Since(t)
	t = time.Now()
	dice := tags.ServiceAddrSet(h1, namingH1, g, an.DiceNames)
	r.set("tags.dice_ms", "ms", ms(time.Since(t)))
	t = time.Now()
	refined := cluster.Heuristic2OnForest(g, cluster.Refined(dice, an.WaitBlocks), base, workers)
	r.set("cluster.h2_refined_ms", "ms", ms(time.Since(t)))
	t = time.Now()
	tags.NameClusters(refined, g, an.Tags)
	r.set("tags.name_ms", "ms", ms(nameH1+time.Since(t)))

	// The ingester: ApplyBlock per block, then Publish, Save and load at
	// the tip.
	ing := serve.NewIngester(an)
	start = time.Now()
	for _, b := range blocks {
		if err := ing.ApplyBlock(b); err != nil {
			return err
		}
	}
	r.set("serve.apply_us", "us", float64(time.Since(start))/float64(time.Microsecond)/float64(len(blocks)))
	var pubs, saves, loadsTip []time.Duration
	for i := 0; i < 3; i++ {
		t := time.Now()
		ing.Publish()
		pubs = append(pubs, time.Since(t))
	}
	r.set("serve.publish_ms", "ms", median(durs(pubs, time.Millisecond)))
	ck, err := serve.NewCheckpointStore(filepath.Join(filepath.Dir(in.path), "layer-checkpoints"), 1)
	if err != nil {
		return err
	}
	var path string
	for i := 0; i < 3; i++ {
		t := time.Now()
		if path, err = ing.Save(ck); err != nil {
			return err
		}
		saves = append(saves, time.Since(t))
	}
	r.set("serve.checkpoint_save_ms", "ms", median(durs(saves, time.Millisecond)))
	if fi, err := os.Stat(path); err == nil {
		r.set("serve.checkpoint_mb", "MB", float64(fi.Size())/(1<<20))
	}
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, _, err := ck.LoadLatest(an); err != nil {
			return err
		}
		loadsTip = append(loadsTip, time.Since(t))
	}
	r.set("serve.checkpoint_load_ms", "ms", median(durs(loadsTip, time.Millisecond)))

	// Snapshot lookups: Lookup + ClusterOf + Balance.
	const lookupRounds = 200
	start = time.Now()
	for i := 0; i < lookupRounds; i++ {
		for _, a := range in.addrs {
			if id, ok := final.Lookup(a); ok {
				lookupSink += int64(final.Refined.ClusterOf(id)) + int64(final.Balance(id))
			}
		}
	}
	r.set("serve.lookup_ns", "ns", float64(time.Since(start))/float64(lookupRounds*len(in.addrs)))

	return handlerTimes(ctx, r, in, h)
}

// lookupSink keeps the timed lookups' results alive.
var lookupSink int64

// handlerTimes serves the tip phase's route mix through the daemon's
// handler and a response recorder, without the network.
func handlerTimes(ctx context.Context, r *run, in *serveInputs, h http.Handler) error {
	var took []float64
	for i := 0; i < 200 && ctx.Err() == nil; i++ {
		a := url.QueryEscape(in.addrs[i%len(in.addrs)].String())
		tg := url.QueryEscape(in.tagged[i%len(in.tagged)].String())
		for _, path := range []string{"/v1/cluster?addr=" + a, "/v1/cluster/members?label=0", "/v1/balance?addr=" + a, "/v1/stats", "/v1/tags?addr=" + tg} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			t := time.Now()
			h.ServeHTTP(rec, req)
			took = append(took, float64(time.Since(t))/float64(time.Microsecond))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler: %s answered %d", path, rec.Code)
			}
		}
	}
	r.set("http.handler_us", "us", median(took))
	return nil
}
