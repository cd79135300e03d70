// Command servebench is the repository's end-to-end serving benchmark. It
// generates a Twitter-like dataset and query pool from a seed, brings up
// internal/server in-process over the index a workload names, drives it
// over loopback HTTP with at most NumCPU clients, checks every answer
// against in-process Index.Query, and prints every metric by name with its
// unit and sample count. The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 the same workload runs traced (?trace=1, CollectTrace
// and the benchmark's span recorder) and the metrics are the per-layer ones.
// See README.md for the workloads, metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	seal "github.com/sealdb/seal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// metric is one reported number. Samples is how many observations it
// summarizes (requests, queries, setups or phases).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name string, value float64, unit string, samples int, note string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit, Samples: samples, Note: note}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: selective or batch-mapped")
		seed    = flag.Int64("seed", 1, "seed for the query pool")
		seconds = flag.Int("seconds", 10, "measured seconds, split across the load phases")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		workdir = flag.String("workdir", ".bench_build", "directory for segments and span files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *traced == 1, workdir: *workdir}
	return b.run()
}

// bench is one invocation: a workload at a seed, traced or not.
type bench struct {
	w       workload
	seed    int64
	dur     time.Duration
	traced  bool
	workdir string

	in      *inputs
	sv      *served   // the index being measured
	setups  []*served // every setup of the run, in order
	want    [][]seal.Match
	queryUS []float64
	total   tally
	scanN   int
	heapMB  []float64 // live heap after each setup; later ones include the samples of earlier rounds
	// memBuild times the mapped workload's build in memory, to split its
	// build+save; traced runs only.
	memBuild time.Duration
	// rounds holds each round's value of the metrics taken per round;
	// untraced runs only.
	rounds map[string][]float64
}

// setupRepeats is how many times an untraced run sets the index up; setup_s
// is their median.
const setupRepeats = 3

func (b *bench) run() error {
	in, err := makeInputs(b.w, b.seed)
	if err != nil {
		return err
	}
	b.in = in
	segDir := filepath.Join(b.workdir, "segments-"+b.w.name)
	if b.w.mapped {
		defer os.RemoveAll(segDir)
	}
	defer func() {
		if b.sv != nil && b.sv.ix != nil {
			b.sv.ix.Close()
		}
	}()

	var rep report
	var phases []*phaseOut
	if b.traced {
		if b.w.mapped {
			// Split the mapped setup's build+save: time the same build
			// in memory once.
			runtime.GC()
			t := time.Now()
			ix, err := seal.Build(in.objects, b.w.buildOptions("")...)
			if err != nil {
				return fmt.Errorf("in-memory build: %w", err)
			}
			b.memBuild = time.Since(t)
			if err := ix.Close(); err != nil {
				return err
			}
		}
		if err := b.bringUp(segDir); err != nil {
			return err
		}
		phases, err = b.runTraced(&rep)
	} else {
		phases, err = b.runUntraced(&rep, segDir)
	}
	if err != nil {
		return err
	}
	for _, p := range phases {
		b.total.add(p.Tally)
	}
	return b.print(&rep, phases)
}

// bringUp sets the workload's index up once more and makes it b.sv. The
// first setup also computes the expected answers and cross-checks a sample
// of them against a scan. Every setup then drops the objects, so the heap
// read here, and collected under load, is the server's; the next setup
// generates them again.
func (b *bench) bringUp(segDir string) error {
	if b.in.objects == nil {
		objects, err := makeObjects()
		if err != nil {
			return err
		}
		b.in.objects = objects
	}
	// Collect first, so an earlier index does not bill its collection to
	// this setup.
	runtime.GC()
	sv, err := setUp(b.w, b.in.objects, segDir)
	if err != nil {
		return err
	}
	b.sv = sv
	b.setups = append(b.setups, sv)
	if b.want == nil {
		if b.want, b.queryUS, err = expectAnswers(sv.ix, b.in.pool); err != nil {
			return err
		}
		checked, mismatched, err := scanCheck(b.in.objects, b.in.pool, b.want, b.seed)
		if err != nil {
			return err
		}
		b.scanN = checked
		b.total.Attempted += int64(checked)
		b.total.Wrong += int64(mismatched)
	}
	b.in.objects = nil
	runtime.GC()
	runtime.GC() // the second empties the sync.Pool victim caches
	b.heapMB = append(b.heapMB, float64(readRuntime().liveBytes)/1e6)
	return nil
}

func clients() int { return runtime.NumCPU() }

func (b *bench) share(f float64) time.Duration { return time.Duration(f * float64(b.dur)) }

// runUntraced measures the end-to-end metrics: unloaded latency, closed-loop
// throughput, open-loop tail latency. The measured time is cut into rounds,
// each an unloaded, a closed-loop and an open-loop window back to back, and
// the rounds are shared out between the setups, each served in turn. So
// every metric samples the whole run, setups included: on a shared machine
// the speed drifts over tens of seconds, and a metric taken from one
// stretch of the run would carry that drift whole.
func (b *bench) runUntraced(rep *report, segDir string) ([]*phaseOut, error) {
	n := rounds(b.dur)
	round := b.dur / time.Duration(n)
	share := func(f float64) time.Duration { return time.Duration(f * float64(round)) }
	var warmW, unloadedW, closedW, openW []*phaseOut
	for s := 0; s < setupRepeats; s++ {
		if err := b.bringUp(segDir); err != nil {
			return nil, err
		}
		t, err := startTarget(b.sv.srv.Handler(), clients())
		if err != nil {
			return nil, err
		}
		l := &loader{w: b.w, t: t, bodies: b.in.bodies, want: b.want}
		warmW = append(warmW, l.run(phase{name: "warm", clients: clients(), dur: warmDur, gc: true}))
		for r := n * s / setupRepeats; r < n*(s+1)/setupRepeats; r++ {
			unloadedW = append(unloadedW, l.run(phase{name: "unloaded", clients: 1, dur: share(0.3)}))
			closedW = append(closedW, l.run(phase{name: "closed", clients: clients(), dur: share(0.4)}))
			openW = append(openW, l.run(phase{name: "open", clients: clients(), rate: b.w.openRate, dur: share(0.3)}))
		}
		if err := t.stop(); err != nil {
			return nil, fmt.Errorf("server shutdown: %w", err)
		}
		if err := b.sv.ix.Close(); err != nil {
			return nil, fmt.Errorf("close index: %w", err)
		}
		b.sv.ix, b.sv.srv = nil, nil
	}
	unloaded, closed, open := mergePhases(unloadedW), mergePhases(closedW), mergePhases(openW)
	phases := []*phaseOut{mergePhases(warmW), unloaded, closed, open}

	setups := make([]float64, len(b.setups))
	for i, s := range b.setups {
		setups[i] = s.setup.Seconds()
	}
	p50s := make([]float64, n)
	rates := make([]float64, n)
	var done, closedNS float64
	for r := 0; r < n; r++ {
		p50s[r] = median(append([]float64(nil), unloadedW[r].lat...))
		c := closedW[r]
		rates[r] = sliceRate(c.okEnds, b.w.queriesPerRequest(), c.start, c.deadline, 1)
		done += rates[r] * float64(c.deadline-c.start)
		closedNS += float64(c.deadline - c.start)
	}
	rep.add("setup_s", median(setups), "s", len(setups), "build start to server ready, median of setups")
	lat := summarize(unloaded.lat, 0.99)
	rep.add("lat_p50_ms", median(append([]float64(nil), p50s...)), "ms", lat.N, fmt.Sprintf("one client, back to back, median over %d rounds of each round's median", n))
	rep.add("lat_p99_ms", lat.Tail, "ms", lat.N, pctNote(lat)+" pooled over the rounds")
	rep.add("qps", done/closedNS, "1/s", int(closed.Requests),
		fmt.Sprintf("%d clients, closed loop, queries completed in the %d closed windows over their length", closed.Clients, n))
	ol := summarize(open.lat, 0.99)
	rep.add("open_p90_ms", quantile(open.lat, 0.9), "ms", ol.N, fmt.Sprintf("p90 at %.0f queries/s, timed from due, pooled over the rounds", b.w.openRate))
	rep.add("heap_mb", b.heapMB[0], "MB", 1, "live heap after the first setup and a forced GC, before any load")
	rep.add("qps_total", float64(closed.Queries)/closed.WallS, "1/s", int(closed.Requests), "all closed windows; not gated")
	rep.add("open_p99_ms", ol.Tail, "ms", ol.N, pctNote(ol)+", set by the few GC cycles in the phase; not gated")
	var all tally
	all.add(b.total)
	for _, p := range phases {
		all.add(p.Tally)
	}
	rep.add("fail_ratio", all.failRatio(), "ratio", int(all.Attempted), "non-2xx + transport errors + wrong answers over attempted")
	late := summarize(open.late, 0.99)
	rep.add("loadgen.late_p99_ms", late.Tail, "ms", late.N, pctNote(late))
	rep.add("loadgen.open_p50_ms", ol.Median, "ms", ol.N, "")
	b.rounds = map[string][]float64{"lat_p50_ms": p50s, "qps": rates}
	return phases, nil
}

// warmDur is the closed-loop warm-up before any timed window: it opens the
// connections and lets the first measured round run as fast as the later
// ones.
const warmDur = time.Second

// roundSeconds is the target length of one measurement round.
const roundSeconds = 2

// rounds is how many rounds a run of d measures.
func rounds(d time.Duration) int {
	return max(1, int(d.Seconds()/roundSeconds))
}

func pctNote(s summary) string {
	return fmt.Sprintf("p%g of %d samples", math.Round(s.TailQ*1000)/10, s.N)
}

// inprocSample is how many pooled queries the traced run replays in-process
// with CollectTrace to price tracing.
const inprocSample = 1024

// runTraced measures the per-layer metrics from a traced run of the same
// load, plus the tracing overhead against an untraced stretch of it.
func (b *bench) runTraced(rep *report) ([]*phaseOut, error) {
	rec := &recorder{}
	ctx := context.Background()
	ix := b.sv.ix

	// In-process: the same queries traced, against the untraced precompute.
	n := min(inprocSample, len(b.in.pool))
	tracedUS := make([]float64, n)
	untracedUS := append([]float64(nil), b.queryUS[:n]...)
	var inproc []queryTrace
	for i := 0; i < n; i++ {
		id := rec.newID()
		start := nowNS()
		res, err := ix.Query(ctx, b.in.pool[i], seal.CollectTrace(), seal.CollectStats())
		end := nowNS()
		if err != nil {
			return nil, fmt.Errorf("traced in-process query %d: %w", i, err)
		}
		tracedUS[i] = float64(end-start) / 1e3
		qt := libTrace(res.Trace, res.Stats)
		rec.add(span{ID: id, Req: -int64(i + 1), Name: "inproc.query", Shard: -1, Start: start, End: end})
		rec.attach(id, -int64(i+1), start, &qt)
		inproc = append(inproc, qt)
	}
	overhead := median(tracedUS) - median(untracedUS)

	// In-process batches: the library time of one batch request, and the
	// per-query traces batch requests cannot carry over HTTP.
	var batchUS []float64
	if b.w.batch > 0 {
		inproc = inproc[:0]
		for i := 0; i+b.w.batch <= len(b.in.pool); i += b.w.batch {
			reqs := b.in.pool[i : i+b.w.batch]
			start := nowNS()
			res := ix.QueryBatch(ctx, reqs)
			batchUS = append(batchUS, float64(nowNS()-start)/1e3)
			for j, r := range res {
				if r.Err != nil {
					return nil, fmt.Errorf("in-process batch query %d: %w", i+j, r.Err)
				}
			}
			id := rec.newID()
			start = nowNS()
			res = ix.QueryBatch(ctx, reqs, seal.CollectTrace(), seal.CollectStats())
			end := nowNS()
			req := -int64(len(b.in.pool) + i + 1)
			rec.add(span{ID: id, Req: req, Name: "inproc.batch", Shard: -1, Start: start, End: end})
			for j, r := range res {
				if r.Err != nil {
					return nil, fmt.Errorf("traced in-process batch query %d: %w", i+j, r.Err)
				}
				qt := libTrace(r.Results.Trace, r.Results.Stats)
				rec.attach(id, req, start, &qt)
				inproc = append(inproc, qt)
			}
		}
	}

	t, err := startTarget(rec.middleware(b.sv.srv.Handler()), clients())
	if err != nil {
		return nil, err
	}
	l := &loader{w: b.w, t: t, bodies: b.in.bodies, want: b.want, rec: rec}
	phases := []*phaseOut{
		l.run(phase{name: "warm", clients: clients(), dur: warmDur, gc: true}),
		l.run(phase{name: "unloaded-untraced", clients: 1, dur: b.share(0.2), gc: true}),
		l.run(phase{name: "unloaded", clients: 1, dur: b.share(0.3), traced: true, gc: true}),
		l.run(phase{name: "closed", clients: clients(), dur: b.share(0.25), traced: true, gc: true}),
		l.run(phase{name: "open", clients: clients(), rate: b.w.openRate, dur: b.share(0.25), traced: true, gc: true}),
	}
	if err := t.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	base, unloaded, open := phases[1], phases[2], phases[4]

	// Attach each HTTP request's program trace beneath its handler span.
	handlers := make(map[int64]span)
	for _, s := range rec.snapshot() {
		if s.Name == "server.handler" {
			handlers[s.Req] = s
		}
	}
	var loadTraces []queryTrace // every traced HTTP query, for work counts
	for _, p := range phases[2:] {
		for _, ex := range p.exs {
			h, ok := handlers[ex.req]
			for i := range ex.traces {
				if ok && b.w.batch == 0 {
					rec.attach(h.ID, ex.req, h.Start, &ex.traces[i])
				}
				loadTraces = append(loadTraces, ex.traces[i])
			}
		}
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	clientOf := make(map[int64]span)
	for _, s := range spans {
		if s.Name == "client.request" {
			clientOf[s.Req] = s
		}
	}

	// Timings along the latency path come from the unloaded traced phase
	// (in-process batches for the batch workload); work counts from every
	// traced query.
	var serverSelf, transport, handlerUS []float64
	var timed []queryTrace
	for _, ex := range unloaded.exs {
		h, okH := handlers[ex.req]
		c, okC := clientOf[ex.req]
		if !okH || !okC {
			continue
		}
		transport = append(transport, float64(self[c.ID])/1e3)
		handlerUS = append(handlerUS, float64(h.End-h.Start)/1e3)
		if b.w.batch == 0 {
			serverSelf = append(serverSelf, float64(self[h.ID])/1e3)
			timed = append(timed, ex.traces...)
		}
	}
	counted := loadTraces
	serverNote := "handler span minus the traced library time, median per request"
	if b.w.batch > 0 {
		timed, counted = inproc, inproc
		nh := len(handlerUS)
		serverSelf = []float64{median(handlerUS) - median(batchUS)}
		serverNote = fmt.Sprintf("median handler span (%d) minus median in-process QueryBatch (%d)", nh, len(batchUS))
	}

	rep.add("server.self_us", median(serverSelf), "us", len(handlerUS), serverNote)
	rep.add("transport_us", median(transport), "us", len(transport), "client round trip minus handler span, median")
	rep.add("server.resp_bytes", median(base.bytes), "bytes", len(base.bytes), "untraced responses, median")
	var non2xx int64
	for _, p := range phases {
		non2xx += p.Tally.Non2xx
	}
	rep.add("server.non2xx", float64(non2xx), "count", int(b.phaseRequests(phases)), "")

	rep.add("seal.query_us", median(append([]float64(nil), b.queryUS...)), "us", len(b.queryUS), "untraced in-process Index.Query, median")
	rep.add("seal.admit_us", medianOf(timed, func(t *queryTrace) float64 { return t.stageUS("admit") }), "us", len(timed), "")
	rep.add("trace.overhead_us", overhead, "us", n, "traced minus untraced in-process Index.Query, medians")
	httpBase, httpTraced := summarize(base.lat, 0.99), summarize(unloaded.lat, 0.99)
	rep.add("trace.http_overhead_us", (httpTraced.Median-httpBase.Median)*1e3, "us", httpTraced.N+httpBase.N,
		"traced (?trace=1 + span recorder) minus untraced unloaded HTTP latency, medians")

	var plans, cached, pruned, fanout float64
	var cands, results, postings, lists, filterNS float64
	for i := range counted {
		t := &counted[i]
		plans += float64(t.Plans)
		cached += float64(t.PlansCached)
		pruned += float64(t.Pruned)
		fanout += float64(t.Fanout)
		cands += float64(t.Candidates)
		results += float64(t.Results)
		postings += float64(t.Postings)
		lists += float64(t.Lists)
		filterNS += t.stageUS("filter") * 1e3
	}
	nq := float64(len(counted))
	rep.add("planner.plan_us", medianOf(timed, func(t *queryTrace) float64 { return t.stageUS("plan") }), "us", len(timed), "0: static index")
	rep.add("planner.pruned_per_query", pruned/nq, "count", len(counted), "")
	rep.add("planner.cache_hit_ratio", ratio(cached, plans), "ratio", int(plans), "share of plan decisions served from the plan cache")
	rep.add("engine.fanout", fanout/nq, "count", len(counted), "shard searches per query, mean")
	rep.add("engine.merge_us", medianOf(timed, func(t *queryTrace) float64 { return t.stageUS("merge") }), "us", len(timed), "")
	rep.add("engine.dispatch_us", medianOf(timed, dispatchUS), "us", len(timed), "elapsed - admit - slowest shard - merge, median")
	var skews []float64
	for i := range timed {
		if s, ok := shardSkew(&timed[i]); ok {
			skews = append(skews, s)
		}
	}
	rep.add("engine.shard_skew", median(skews), "ratio", len(skews), "max/mean per-shard filter+verify, median over queries on >= 2 shards")
	rep.add("core.filter_us", medianOf(timed, func(t *queryTrace) float64 { return t.stageUS("filter") }), "us", len(timed), "summed over shards, median")
	rep.add("core.verify_us", medianOf(timed, func(t *queryTrace) float64 { return t.stageUS("verify") }), "us", len(timed), "summed over shards, median")
	rep.add("core.postings", postings/nq, "count", len(counted), "per query, mean")
	rep.add("core.lists", lists/nq, "count", len(counted), "per query, mean")
	rep.add("core.candidates", cands/nq, "count", len(counted), "per query, mean")
	rep.add("core.results", results/nq, "count", len(counted), "per query, mean")
	rep.add("core.precision", ratio(results, cands), "ratio", len(counted), "results / candidates")
	rep.add("core.ns_per_posting", ratio(filterNS, postings), "ns", len(counted), "filter time / postings scanned")

	build, save := b.sv.build.Seconds(), 0.0
	if b.w.mapped {
		build = b.memBuild.Seconds()
		save = max(0, b.sv.build.Seconds()-build)
	}
	rep.add("storage.build_s", build, "s", 1, "")
	rep.add("storage.save_s", save, "s", 1, "build+save minus an in-memory build; 0: not saved")
	rep.add("storage.open_s", b.sv.open.Seconds(), "s", 1, "seal.Open; 0: not reopened")
	rep.add("storage.index_mb", float64(b.sv.ix.Stats().IndexBytes)/1e6, "MB", 1, "IndexStats.IndexBytes")
	rep.add("storage.disk_mb", float64(b.sv.diskBytes)/1e6, "MB", 1, "segment directory; 0: in memory")

	var rt rtDelta
	var rtQueries int64
	for _, p := range phases[2:] {
		rt.merge(p.Runtime)
		rtQueries += p.Queries
	}
	rtNote := "whole process, clients included, over the traced phases"
	rep.add("runtime.alloc_kb_per_query", float64(rt.AllocBytes)/1024/float64(max(1, rtQueries)), "KiB", int(rtQueries), rtNote)
	rep.add("runtime.gc_cycles", float64(rt.GCCycles), "count", 3, rtNote)
	rep.add("runtime.gc_cpu_frac", rt.gcCPUFrac(), "ratio", 3, rtNote)
	rep.add("runtime.sched_p99_us", rt.SchedP99US, "us", int(rt.SchedEvents), rtNote)
	late, ol := summarize(open.late, 0.99), summarize(open.lat, 0.99)
	rep.add("loadgen.late_p99_ms", late.Tail, "ms", late.N, pctNote(late)+", send time minus due time")
	rep.add("loadgen.open_p50_ms", ol.Median, "ms", ol.N, "traced open loop, timed from due")

	path := filepath.Join(b.workdir, "spans-"+b.w.name+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "servebench: %d spans recorded, written to %s (first %d)\n", len(spans), path, min(len(spans), maxWrittenSpans))
	return phases, nil
}

func (b *bench) phaseRequests(phases []*phaseOut) int64 {
	var n int64
	for _, p := range phases {
		n += p.Requests
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func medianOf(ts []queryTrace, f func(*queryTrace) float64) float64 {
	xs := make([]float64, len(ts))
	for i := range ts {
		xs[i] = f(&ts[i])
	}
	return median(xs)
}

// libTrace converts an in-process trace and stats to the benchmark's shape.
func libTrace(t *seal.Trace, st *seal.Stats) queryTrace {
	var q queryTrace
	if t != nil {
		q.ElapsedUS = float64(t.Elapsed.Nanoseconds()) / 1e3
		for _, s := range t.Spans {
			q.Spans = append(q.Spans, stageSpan{Stage: s.Stage, Shard: s.Shard,
				StartUS: float64(s.Start.Nanoseconds()) / 1e3, DurUS: float64(s.Duration.Nanoseconds()) / 1e3})
		}
		q.Plans = len(t.Plans)
		for _, p := range t.Plans {
			if p.Cached {
				q.PlansCached++
			}
		}
		q.Pruned = len(t.Pruned)
	}
	if st != nil {
		q.Fanout, q.Candidates, q.Results = st.ShardFanout, st.Candidates, st.Results
		q.Postings, q.Lists = st.PostingsScanned, st.ListsProbed
	}
	return q
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// print writes the metric table to stderr, then the full record and the
// result line to stdout.
func (b *bench) print(rep *report, phases []*phaseOut) error {
	mode := "end-to-end, tracing off"
	if b.traced {
		mode = "per-layer, traced run"
	}
	fmt.Fprintf(os.Stderr, "servebench %s seed=%d corpus=%d objects=%d shards=%d gomaxprocs=%d cpus=%d %s commit=%s (%s)\n",
		b.w.name, b.seed, corpusSeed, objectCount, b.w.shards, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), mode)
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %-6s n=%-8d %s\n", n, m.Value, m.Unit, m.Samples, m.Note)
	}
	setups := make([]float64, len(b.setups))
	for i, s := range b.setups {
		setups[i] = s.setup.Seconds()
	}
	record := map[string]any{
		"workload":      b.w.name,
		"seed":          b.seed,
		"corpus_seed":   corpusSeed,
		"objects":       objectCount,
		"shards":        b.w.shards,
		"batch":         b.w.batch,
		"pool":          len(b.in.pool),
		"open_rate_qps": b.w.openRate,
		"clients":       clients(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"traced":        b.traced,
		"seconds":       b.dur.Seconds(),
		"gen_s":         b.in.genDur.Seconds(),
		"setups_s":      setups,
		"heaps_mb":      b.heapMB,
		"scan_checked":  b.scanN,
		"tally":         b.total,
		"phases":        phases,
		"rounds":        b.rounds,
		"metrics":       rep.metrics,
	}
	line, err := json.Marshal(map[string]any{"record": record})
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	final := make(map[string]map[string]any)
	for _, n := range reportedNames(b.traced) {
		m, ok := rep.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		final[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   b.total.failed() == 0,
		"attempted": b.total.Attempted,
		"failed":    b.total.failed(),
		"metrics":   final,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd and perLayer are the metrics of the result line, as listed in
// BENCHMARK.json. fail_ratio is printed in the record but not gated as a
// metric: it is 0 on a correct run, and the result line's failed count
// already carries it.
var (
	endToEnd = []string{"setup_s", "lat_p50_ms", "lat_p99_ms", "qps", "open_p90_ms", "heap_mb"}
	perLayer = []string{
		"server.self_us", "transport_us", "server.resp_bytes", "server.non2xx",
		"seal.query_us", "seal.admit_us", "trace.overhead_us", "trace.http_overhead_us",
		"planner.plan_us", "planner.pruned_per_query", "planner.cache_hit_ratio",
		"engine.fanout", "engine.merge_us", "engine.dispatch_us", "engine.shard_skew",
		"core.filter_us", "core.verify_us", "core.postings", "core.lists", "core.candidates",
		"core.results", "core.precision", "core.ns_per_posting",
		"storage.build_s", "storage.save_s", "storage.open_s", "storage.index_mb", "storage.disk_mb",
		"runtime.alloc_kb_per_query", "runtime.gc_cycles", "runtime.gc_cpu_frac", "runtime.sched_p99_us",
		"loadgen.late_p99_ms", "loadgen.open_p50_ms",
	}
)

func reportedNames(traced bool) []string {
	if traced {
		return perLayer
	}
	return endToEnd
}
