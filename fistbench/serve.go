package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	fistful "repro"
	"repro/internal/address"
	"repro/internal/chain"
	"repro/internal/econ"
	"repro/internal/serve"
	"repro/internal/txgraph"
)

// The serve workload's tip phase appends blocks open-loop at tipRate while
// one client queries in a closed loop. At this rate one publish at full
// height plus its checkpoint (about 250 ms on 2 vCPUs, see README.md) keeps
// the publish worker busy for three quarters of each block interval,
// without a growing backlog; at four blocks a second it saturates and
// visibility swings with every stall.
const tipRate = 3 // blocks per second

// minTipBlocks is the fewest blocks the tip phase releases, so that ten
// visibility samples lie beyond the 90th percentile.
const minTipBlocks = 100

// visibleTimeout bounds how long the tip phase waits, after the last
// block's due time, for blocks to become visible; a block still not
// visible then counts as failed.
const visibleTimeout = 20 * time.Second

// querySample is how many addresses the query client cycles through.
const querySample = 256

// queryThink is the query client's pause between an answer and its next
// request. Without it the client alone keeps one of two vCPUs busy, and
// the publish worker's share of the other decides visibility.
const queryThink = 2 * time.Millisecond

// catchups is how many cold catch-ups the serve workload makes; pass_s is
// the median.
const catchups = 3

// restarts is how many times the serve workload restarts the daemon on its
// checkpoint directory; serve.restart_s is the median.
const restarts = 3

// tipBlocksFor is the number of blocks the tip phase releases for a run of
// the given length: --seconds of blocks, but never fewer than
// minTipBlocks, so a short run's tip phase lasts longer than --seconds.
func tipBlocksFor(seconds float64) int {
	return max(minTipBlocks, int(seconds*tipRate))
}

// daemon is what the serve workload drives: *fistful.Server, or in the
// traced run the same daemon assembled from the serve package with timing
// wrappers.
type daemon interface {
	Run(ctx context.Context) error
	HTTPServer(addr string) *http.Server
	Handler() http.Handler
	Health() serve.Health
	Snapshot() *serve.Snapshot
}

// serveInputs is what the serve workload's set-up produced.
type serveInputs struct {
	cfg     fistful.Config
	world   *econ.World
	path    string      // the chain file the daemon tails
	tail    *tailWriter // appends the tip blocks to it
	backlog int         // blocks in the file before the tip phase
	rp      *replay
	addrs   []address.Address // the query sample
	tagged  []address.Address // tagged addresses on chain before the tip
}

// tailWriter appends framed blocks to the chain file the daemon tails.
type tailWriter struct {
	f *os.File
	w *chain.Writer
}

func createTail(path string, blocks []*chain.Block) (*tailWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := chain.NewWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	t := &tailWriter{f: f, w: w}
	for _, b := range blocks {
		if err := t.w.WriteBlock(b); err != nil {
			t.close()
			return nil, err
		}
	}
	if err := t.w.Flush(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tailWriter) append(b *chain.Block) error {
	if err := t.w.WriteBlock(b); err != nil {
		return err
	}
	return t.w.Flush()
}

func (t *tailWriter) close() {
	if t != nil {
		t.f.Close()
	}
}

// setupServe generates the world setupReps times, each time writing the
// backlog prefix of its chain to the file, and replays the chain for the
// checks, watching the query sample's balances through the tip phase.
func setupServe(ctx context.Context, o options, r *run, tr *tracer) (*serveInputs, error) {
	in := &serveInputs{cfg: config(o.seed), path: filepath.Join(o.dir, "tail.fbc")}
	tipN := tipBlocksFor(o.seconds)
	w, err := setupWorld(ctx, r, func() (*econ.World, error) {
		in.tail.close()
		in.tail = nil
		sp := tr.start("econ.generate")
		w, err := econ.GenerateCtx(ctx, in.cfg)
		sp.end()
		if err != nil {
			return nil, err
		}
		tr.count("econ.txs", float64(txCount(w)))
		blocks := w.Chain.Blocks()
		if len(blocks) <= tipN {
			return nil, fmt.Errorf("chain has %d blocks, the tip phase needs more than %d", len(blocks), tipN)
		}
		in.backlog = len(blocks) - tipN
		in.tail, err = createTail(in.path, blocks[:in.backlog])
		return w, err
	})
	if err != nil {
		in.tail.close()
		return nil, err
	}
	in.world = w

	// The query sample: addresses and tagged addresses already on chain
	// when the tip phase starts, so every snapshot it sees knows them.
	rng := rand.New(rand.NewSource(o.seed))
	tagged := make(map[address.Address]bool)
	for _, t := range w.Tags.All() {
		tagged[t.Addr] = true
	}
	for _, t := range w.PublicTags {
		tagged[t.Addr] = true
	}
	pick := func(rp *replay) []int32 {
		var watch []int32
		for i := 0; i < querySample; i++ {
			n := int32(rng.Intn(len(rp.addrs)))
			watch = append(watch, n)
			in.addrs = append(in.addrs, rp.addrs[n])
		}
		for _, a := range rp.addrs {
			if tagged[a] {
				in.tagged = append(in.tagged, a)
			}
		}
		return watch
	}
	in.rp, err = replayChain(w.Chain.Blocks(), int64(in.backlog-1), pick)
	if err != nil {
		in.tail.close()
		return nil, err
	}
	if len(in.tagged) == 0 {
		in.tail.close()
		return nil, errors.New("set-up: no tagged address is on chain before the tip phase")
	}
	return in, nil
}

func txCount(w *econ.World) int {
	n := 0
	for _, b := range w.Chain.Blocks() {
		n += len(b.Txs)
	}
	return n
}

// tipBlock is one block of the tip phase and when it was due, written,
// applied and visible.
type tipBlock struct {
	height                         int64
	due, written, applied, visible time.Time
}

// query is one HTTP request of the tip phase.
type query struct {
	route string
	took  time.Duration
	ok    bool
}

// serveOutcome is what one serve run observed.
type serveOutcome struct {
	catchups      []time.Duration
	blocks        []tipBlock
	tipStart      time.Time
	tipEnd        time.Time
	epochsAtStart uint64
	queries       []query
	balances      []balanceAnswer
	clusterErr    error
	restartTimes  []time.Duration
	final         *serve.Snapshot
	writtenBytes  []float64
	// handler is the main daemon's query API, kept for the traced run's
	// in-process handler timings.
	handler http.Handler
}

// runServe runs the serve workload: catch-up through the backlog, the tip
// phase with queries, then restarts on the checkpoint directory.
func runServe(ctx context.Context, o options, r *run) error {
	var tr *tracer
	if o.trace {
		tr = newTracer(o)
		defer tr.flush()
	}
	in, err := setupServe(ctx, o, r, tr)
	if err != nil {
		return err
	}
	defer in.tail.close()
	newDaemon := func(ckDir string) (daemon, error) {
		return fistful.NewServer(ctx, in.cfg, fistful.ServeOptions{
			Options:       fistful.Options{Source: fistful.SourceWorldChainFile(in.world, in.path)},
			CheckpointDir: ckDir,
		})
	}
	if tr != nil {
		newDaemon = func(ckDir string) (daemon, error) { return newTracedDaemon(tr, in, ckDir) }
	}
	out, err := servePhases(ctx, o, r, in, newDaemon, tr)
	if err != nil {
		return err
	}
	recordServe(r, in, out, tr)
	if tr != nil {
		if err := traceServeLayers(ctx, tr, r, in, out.final, out.handler); err != nil {
			return err
		}
	}
	return checkServe(ctx, in, out)
}

// servePhases runs catchups cold catch-ups through the backlog, each with
// an empty checkpoint directory, keeps the last daemon through the tip
// phase, then restarts it on its checkpoint directory.
func servePhases(ctx context.Context, o options, r *run, in *serveInputs, newDaemon func(ckDir string) (daemon, error), tr *tracer) (*serveOutcome, error) {
	out := &serveOutcome{}
	gcStart := readGoStats()

	// Catch-up: from the constructor call until a snapshot covers the
	// backlog's last block.
	var (
		d          daemon
		ckDir      string
		stopDaemon func() error
	)
	for i := 0; i < catchups; i++ {
		if stopDaemon != nil {
			stopDaemon()
			if err := os.RemoveAll(ckDir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		ckDir = filepath.Join(o.dir, fmt.Sprintf("checkpoints-%d", i))
		bytesStart := writeBytes()
		sp := tr.start("serve.catchup")
		start := time.Now()
		var err error
		if d, err = newDaemon(ckDir); err != nil {
			return nil, err
		}
		runCtx, cancel := context.WithCancel(ctx)
		runDone := make(chan error, 1)
		go func(d daemon) { runDone <- d.Run(runCtx) }(d)
		stopDaemon = func() error {
			cancel()
			return <-runDone
		}
		if err := waitHeight(ctx, d, int64(in.backlog-1), runDone); err != nil {
			stopDaemon()
			r.op("catchup", false)
			return nil, fmt.Errorf("catch-up: %w", err)
		}
		out.catchups = append(out.catchups, time.Since(start))
		sp.end()
		out.writtenBytes = append(out.writtenBytes, writeBytes()-bytesStart)
		r.op("catchup", true)
	}
	runtime.GC()

	// The query API on a loopback port of the system's choosing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopDaemon()
		return nil, err
	}
	hs := d.HTTPServer(ln.Addr().String())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		hs.Serve(ln)
	}()
	stopHTTP := func() {
		hs.Close()
		<-serveDone
	}

	err = tipPhase(ctx, in, d, "http://"+ln.Addr().String(), out, r)
	stopHTTP()
	if rerr := stopDaemon(); err == nil && rerr != nil {
		err = fmt.Errorf("serve run: %w", rerr)
	}
	if err != nil {
		return nil, err
	}
	r.recordGoSince(gcStart, 1)
	out.final = d.Snapshot()
	out.handler = d.Handler()

	// Restart on the same checkpoint directory: time from the constructor
	// call to a published snapshot at the pre-restart height, then run to
	// the tip and compare.
	for i := 0; i < restarts; i++ {
		sp := tr.start("serve.restart")
		start := time.Now()
		d2, err := newDaemon(ckDir)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		ctx2, cancel2 := context.WithCancel(ctx)
		done2 := make(chan error, 1)
		go func() { done2 <- d2.Run(ctx2) }()
		werr := waitHeight(ctx, d2, out.final.Height, done2)
		took := time.Since(start)
		sp.end()
		var snap *serve.Snapshot
		if werr == nil {
			werr = waitApplied(ctx, d2, out.final.Height, done2)
			snap = d2.Snapshot()
		}
		cancel2()
		if rerr := <-done2; werr == nil && rerr != nil {
			werr = rerr
		}
		r.op("restart", werr == nil)
		if werr != nil {
			return nil, fmt.Errorf("restart: %w", werr)
		}
		out.restartTimes = append(out.restartTimes, took)
		if err := checkRestart(out.final, snap); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// waitHeight polls until d's published snapshot reaches height, the daemon
// stops, or visibleTimeout passes without progress.
func waitHeight(ctx context.Context, d daemon, height int64, runDone <-chan error) error {
	return waitFor(ctx, runDone, func() int64 { return d.Snapshot().Height }, height)
}

// waitApplied polls until d's ingest loop has applied height.
func waitApplied(ctx context.Context, d daemon, height int64, runDone <-chan error) error {
	return waitFor(ctx, runDone, func() int64 { return d.Health().AppliedHeight }, height)
}

func waitFor(ctx context.Context, runDone <-chan error, at func() int64, height int64) error {
	last, lastMove := at(), time.Now()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		h := at()
		if h >= height {
			return nil
		}
		if h != last {
			last, lastMove = h, time.Now()
		} else if time.Since(lastMove) > visibleTimeout {
			return fmt.Errorf("stuck at height %d waiting for %d", h, height)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-runDone:
			return fmt.Errorf("daemon stopped at height %d waiting for %d: %v", h, height, err)
		case <-tick.C:
		}
	}
}

// tipPhase releases the remaining blocks open-loop at tipRate, observes
// when each is applied and visible, and runs the closed-loop query client
// beside it until every block is visible or the wait times out.
func tipPhase(ctx context.Context, in *serveInputs, d daemon, base string, out *serveOutcome, r *run) error {
	blocks := in.world.Chain.Blocks()[in.backlog:]
	interval := time.Second / tipRate
	out.blocks = make([]tipBlock, len(blocks))
	out.epochsAtStart = d.Snapshot().Epoch
	out.tipStart = time.Now().Add(interval)
	for i := range blocks {
		out.blocks[i] = tipBlock{height: int64(in.backlog + i), due: out.tipStart.Add(time.Duration(i) * interval)}
	}
	// The writer sets each block's written time, the observer its applied
	// and visible times: distinct fields, read only after both stop.
	var (
		wg       sync.WaitGroup
		writeErr error
	)
	phaseCtx, stop := context.WithCancel(ctx)
	defer stop()

	// Writer: one block at each due time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, b := range blocks {
			t := time.NewTimer(time.Until(out.blocks[i].due))
			select {
			case <-phaseCtx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			if err := in.tail.append(b); err != nil {
				writeErr = err
				return
			}
			out.blocks[i].written = time.Now()
		}
	}()

	// Query client: one keep-alive connection, closed loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		runQueries(phaseCtx, in, base, out)
	}()

	// Observer (this goroutine): when each block is applied and visible.
	lastDue := out.blocks[len(out.blocks)-1].due
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	nextApplied, nextVisible := 0, 0
	for nextVisible < len(out.blocks) && time.Since(lastDue) < visibleTimeout {
		select {
		case <-ctx.Done():
			stop()
			wg.Wait()
			return ctx.Err()
		case <-tick.C:
			applied, visible := d.Health().AppliedHeight, d.Snapshot().Height
			now := time.Now()
			for nextApplied < len(out.blocks) && out.blocks[nextApplied].height <= applied {
				out.blocks[nextApplied].applied = now
				nextApplied++
			}
			for nextVisible < len(out.blocks) && out.blocks[nextVisible].height <= visible {
				out.blocks[nextVisible].visible = now
				nextVisible++
			}
		}
	}
	out.tipEnd = time.Now()
	stop()
	wg.Wait()
	if writeErr != nil {
		return fmt.Errorf("append tip block: %w", writeErr)
	}
	for _, b := range out.blocks {
		r.op("block", !b.visible.IsZero())
	}
	for _, q := range out.queries {
		r.op("query."+q.route, q.ok)
	}
	return nil
}

// Response shapes of the routes the client reads.
type (
	clusterView struct {
		Label int32 `json:"label"`
		Size  int   `json:"size"`
	}
	clusterResp struct {
		H1      clusterView `json:"h1"`
		Refined clusterView `json:"refined"`
	}
	membersResp struct {
		Label   int32    `json:"label"`
		Size    int      `json:"size"`
		Members []string `json:"members"`
	}
	balanceResp struct {
		Height   int64  `json:"height"`
		Addr     string `json:"addr"`
		Satoshis int64  `json:"satoshis"`
	}
	statsResp struct {
		Height int64 `json:"height"`
		Txs    int   `json:"txs"`
	}
	tagResp struct {
		Service string `json:"service"`
	}
)

// runQueries cycles cluster, members, balance, stats and tags requests over
// one keep-alive connection until ctx ends.
func runQueries(ctx context.Context, in *serveInputs, base string, out *serveOutcome) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	get := func(route, path string, v any) bool {
		start := time.Now()
		ok := getJSON(ctx, client, base+path, v)
		if ctx.Err() != nil {
			return false // the phase ended mid-request: not an answer
		}
		out.queries = append(out.queries, query{route: route, took: time.Since(start), ok: ok})
		t := time.NewTimer(queryThink)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
		return ok
	}
	for i := 0; ctx.Err() == nil; i++ {
		a := in.addrs[i%len(in.addrs)].String()
		var c clusterResp
		if get("cluster", "/v1/cluster?addr="+url.QueryEscape(a), &c) {
			if c.Refined.Size < c.H1.Size && out.clusterErr == nil {
				out.clusterErr = fail("cluster_answers", "%s: refined cluster of %d addresses is smaller than its H1 cluster of %d",
					a, c.Refined.Size, c.H1.Size)
			}
			var m membersResp
			get("members", "/v1/cluster/members?label="+strconv.Itoa(int(c.Refined.Label)), &m)
		}
		var b balanceResp
		if get("balance", "/v1/balance?addr="+url.QueryEscape(a), &b) {
			if ad, err := address.Decode(b.Addr); err == nil {
				out.balances = append(out.balances, balanceAnswer{addr: ad, height: b.Height, satoshis: b.Satoshis})
			} else if out.clusterErr == nil {
				out.clusterErr = fail("balance_answers", "answer names address %q: %v", b.Addr, err)
			}
		}
		var s statsResp
		get("stats", "/v1/stats", &s)
		var t tagResp
		get("tags", "/v1/tags?addr="+url.QueryEscape(in.tagged[i%len(in.tagged)].String()), &t)
	}
}

// getJSON fetches one URL and decodes its body; false for no answer, a
// non-200 status or a body that is not the expected JSON.
func getJSON(ctx context.Context, client *http.Client, u string, v any) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	return json.Unmarshal(body, v) == nil
}

// recordServe records the serve run's metrics: the end-to-end set always,
// the serve-path figures the traced run reports per layer when tracing.
func recordServe(r *run, in *serveInputs, out *serveOutcome, tr *tracer) {
	var vis, applied, published, late []float64
	for _, b := range out.blocks {
		if b.visible.IsZero() {
			continue
		}
		vis = append(vis, ms(b.visible.Sub(b.due)))
		if !b.applied.IsZero() {
			applied = append(applied, ms(b.applied.Sub(b.due)))
			published = append(published, ms(b.visible.Sub(b.applied)))
		}
		if !b.written.IsZero() {
			late = append(late, ms(b.written.Sub(b.due)))
		}
	}
	catchup := median(durs(out.catchups, time.Second))
	r.set("pass_s", "s", catchup)
	if len(vis) > 0 {
		r.set("visible_p50_ms", "ms", median(vis))
	}
	fmt.Fprintf(os.Stderr, "serve: backlog %d blocks, catch-ups %v, tip %d blocks at %d/s, %d queries\n",
		in.backlog, out.catchups, len(out.blocks), tipRate, len(out.queries))
	if tr == nil {
		return
	}
	r.set("serve.catchup_blocks_per_s", "blocks/s", float64(in.backlog)/catchup)
	if len(vis) > 0 {
		r.set("serve.visible_p90_ms", "ms", quantile(vis, 0.9))
	}
	if len(applied) > 0 {
		r.set("serve.ingest_delay_ms", "ms", median(applied))
		r.set("serve.publish_delay_ms", "ms", median(published))
	}
	if len(late) > 0 {
		r.set("load.writer_late_ms", "ms", quantile(late, 0.9))
	}
	r.set("serve.restart_s", "s", median(durs(out.restartTimes, time.Second)))
	r.set("serve.epochs_per_block", "ratio", float64(out.final.Epoch-out.epochsAtStart)/float64(len(out.blocks)))
	r.set("serve.bytes_written_mb", "MB", median(out.writtenBytes)/(1<<20))
	byRoute := make(map[string][]float64)
	var all []float64
	for _, q := range out.queries {
		if q.ok {
			us := float64(q.took) / float64(time.Microsecond)
			byRoute[q.route] = append(byRoute[q.route], us)
			all = append(all, us)
		}
	}
	for _, route := range []string{"cluster", "balance", "members", "stats", "tags"} {
		if xs := byRoute[route]; len(xs) > 0 {
			r.set("http."+route+"_p50_us", "us", median(xs))
		}
	}
	if len(all) > 0 {
		r.set("http.query_p50_us", "us", median(all))
		r.set("http.query_p99_us", "us", quantile(all, 0.99))
		r.set("http.queries_per_s", "1/s", float64(len(all))/out.tipEnd.Sub(out.tipStart).Seconds())
	}
	r.set("trace.pass_s", "s", catchup)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkRestart requires a restarted daemon to resume at the pre-restart
// height with the same partitions.
func checkRestart(before, after *serve.Snapshot) error {
	if after.Height != before.Height || after.NumAddrs != before.NumAddrs {
		return fail("restart_resumes", "restarted at height %d with %d addresses, want %d with %d",
			after.Height, after.NumAddrs, before.Height, before.NumAddrs)
	}
	for id := 0; id < before.NumAddrs; id++ {
		if after.H1.ClusterOf(txgraph.AddrID(id)) != before.H1.ClusterOf(txgraph.AddrID(id)) ||
			after.Refined.ClusterOf(txgraph.AddrID(id)) != before.Refined.ClusterOf(txgraph.AddrID(id)) {
			return fail("restart_resumes", "address id %d changed cluster across the restart", id)
		}
	}
	return nil
}

// checkServe runs the serve checks after the run: every block visible, the
// answers consistent with the replay, and the final snapshot equal to a
// batch pipeline over the same chain and to the replay.
func checkServe(ctx context.Context, in *serveInputs, out *serveOutcome) error {
	if err := checkVisible(out.blocks); err != nil {
		return err
	}
	if out.clusterErr != nil {
		return out.clusterErr
	}
	if err := checkBalanceAnswers(in.rp, out.balances); err != nil {
		return err
	}
	s := out.final
	runtime.GC()
	if err := checkCounts(in.rp, s.NumTxs, s.NumAddrs, s.Height); err != nil {
		return err
	}
	p, err := fistful.New(ctx, in.cfg, fistful.Options{Source: fistful.SourceWorld(in.world)})
	if err != nil {
		return err
	}
	lookup := func(a address.Address) (uint32, bool) {
		id, ok := s.Lookup(a)
		return uint32(id), ok
	}
	batchLookup := func(a address.Address) (uint32, bool) {
		id, ok := p.Graph.LookupAddr(a)
		return uint32(id), ok
	}
	part := func(l func(address.Address) (uint32, bool), of func(uint32) int32) []int32 {
		ls, err := inReplayOrder(in.rp, l, of)
		if err != nil {
			return nil
		}
		return canonical(ls)
	}
	h1 := part(lookup, func(id uint32) int32 { return s.H1.ClusterOf(txgraph.AddrID(id)) })
	refined := part(lookup, func(id uint32) int32 { return s.Refined.ClusterOf(txgraph.AddrID(id)) })
	bal, err := inReplayOrder(in.rp, lookup, func(id uint32) int64 { return int64(s.Balance(txgraph.AddrID(id))) })
	if err != nil {
		return fail("snapshot_equals_batch", "%v", err)
	}
	if err := checkPartition("h1_partition", in.rp.h1, h1); err != nil {
		return err
	}
	if err := checkBalances(in.rp.balance, bal); err != nil {
		return err
	}
	if err := checkPartition("snapshot_equals_batch", part(batchLookup, func(id uint32) int32 { return p.H1.ClusterOf(txgraph.AddrID(id)) }), h1); err != nil {
		return err
	}
	if err := checkPartition("snapshot_equals_batch", part(batchLookup, func(id uint32) int32 { return p.Refined.ClusterOf(txgraph.AddrID(id)) }), refined); err != nil {
		return err
	}
	if s.Naming.NamedClusters != p.Naming.NamedClusters {
		return fail("snapshot_equals_batch", "snapshot names %d clusters, batch %d", s.Naming.NamedClusters, p.Naming.NamedClusters)
	}
	return nil
}
