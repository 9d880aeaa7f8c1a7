package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	stbusgen "repro"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/trace"
)

// span is one timed call into a layer during the traced replay.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the replay's spans in memory. A nil tracer records
// nothing, which is how the untraced half of the replay runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// replayer runs requests straight through the layers' public functions,
// in the order Designer and the daemon call them, and counts the work
// each layer did.
type replayer struct {
	tr    *tracer
	cache *cache.Store // the daemon workloads' design cache; nil for paper-suite

	mu            sync.Mutex
	simCycles     int64
	simRuns       int64
	transactions  int64
	decodeBytes   int64
	analyzeEvents int64
	lookups, hits int64
	warms, warmOK int64
	stores        int64
	designs       int64
	capped        int64
	nodes         int64
	shards        []trace.ShardStats
}

func (r *replayer) add(f func()) {
	r.mu.Lock()
	f()
	r.mu.Unlock()
}

// call runs fn inside a span.
func (r *replayer) call(name string, req, parent int, fn func() error) error {
	id := r.tr.begin(name, req, parent)
	err := fn()
	r.tr.end(id)
	return err
}

// design runs core.DesignCrossbarCtx, with the cache (when there is
// one) wrapped so its calls get spans of their own, then check.Audit.
func (r *replayer) design(ctx context.Context, req, root int, a *trace.Analysis) (*core.Design, error) {
	opts := designOptions()
	var d *core.Design
	id := r.tr.begin("core.design", req, root)
	if r.cache != nil {
		opts.Cache = tracedCache{r: r, req: req, parent: id}
	}
	d, err := core.DesignCrossbarCtx(ctx, a, opts)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	r.add(func() {
		r.designs++
		r.nodes += d.SearchNodes
		if d.Capped {
			r.capped++
		}
	})
	return d, r.call("check.audit", req, root, func() error {
		if rep := check.Audit(d, a, opts); !rep.OK() {
			return fmt.Errorf("replayed design fails audit: %w", rep.Err())
		}
		return nil
	})
}

// tracedCache is the replay's core.Cache: the real cache.Store with a
// span around each call.
type tracedCache struct {
	r           *replayer
	req, parent int
}

func (c tracedCache) Lookup(ctx context.Context, a *trace.Analysis, opts core.Options) (*core.Design, bool) {
	id := c.r.tr.begin("cache.lookup", c.req, c.parent)
	d, ok := c.r.cache.Lookup(ctx, a, opts)
	c.r.tr.end(id)
	c.r.add(func() {
		c.r.lookups++
		if ok {
			c.r.hits++
		}
	})
	return d, ok
}

func (c tracedCache) Warm(ctx context.Context, a *trace.Analysis, opts core.Options) *core.Incumbent {
	id := c.r.tr.begin("cache.warm", c.req, c.parent)
	inc := c.r.cache.Warm(ctx, a, opts)
	c.r.tr.end(id)
	c.r.add(func() {
		c.r.warms++
		if inc != nil {
			c.r.warmOK++
		}
	})
	return inc
}

func (c tracedCache) Store(ctx context.Context, a *trace.Analysis, opts core.Options, d *core.Design) {
	id := c.r.tr.begin("cache.store", c.req, c.parent)
	c.r.cache.Store(ctx, a, opts, d)
	c.r.tr.end(id)
	c.r.add(func() { c.r.stores++ })
}

// replayPaper is one Designer.Design call taken apart: simulate on the
// full crossbar, analyze both directions concurrently, design both
// directions concurrently, audit, then validate by simulation.
func replayPaper(ctx context.Context, r *replayer, req int, in *input) error {
	root := r.tr.begin("request", req, -1)
	defer r.tr.end(root)
	var trs [2]*trace.Trace
	err := r.call("sim.collect", req, root, func() error {
		var err error
		trs[0], trs[1], err = stbusgen.CollectTraceCtx(ctx, in.app)
		return err
	})
	if err != nil {
		return err
	}
	r.add(func() { r.simCycles += trs[0].Horizon; r.simRuns++ })
	var as [2]*trace.Analysis
	var ds [2]*core.Design
	if err := both(func(k int) error {
		return r.call("trace.analyze", req, root, func() error {
			var err error
			as[k], err = trace.AnalyzeCtx(ctx, trs[k], in.window)
			r.add(func() { r.analyzeEvents += int64(len(trs[k].Events)) })
			return err
		})
	}); err != nil {
		return err
	}
	if err := both(func(k int) error {
		var err error
		ds[k], err = r.design(ctx, req, root, as[k])
		return err
	}); err != nil {
		return err
	}
	return r.call("sim.validate", req, root, func() error {
		res, err := stbusgen.ValidateDesignCtx(ctx, in.app, &stbusgen.DesignPair{Req: ds[0], Resp: ds[1]})
		if err == nil {
			r.add(func() { r.simCycles += res.EndCycle; r.simRuns++; r.transactions += int64(res.Latency.Len()) })
		}
		return err
	})
}

// both runs f(0) and f(1) concurrently, as Designer runs its two
// directions.
func both(f func(k int) error) error {
	var wg sync.WaitGroup
	var errs [2]error
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = f(k)
		}(k)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// replayTrace is one daemon trace job taken apart. A body held in
// memory is decoded and analyzed in memory; a spooled long trace is
// analyzed from its file by the sharded driver. Then the design (with
// the cache) and the audit.
func replayTrace(ctx context.Context, r *replayer, req int, in *input) error {
	root := r.tr.begin("request", req, -1)
	defer r.tr.end(root)
	var a *trace.Analysis
	if in.path != "" {
		var st trace.ShardStats
		err := r.call("trace.analyze", req, root, func() error {
			var err error
			a, err = trace.AnalyzeFileSharded(ctx, in.path, in.window, runtime.NumCPU(), &st)
			return err
		})
		if err != nil {
			return err
		}
		r.add(func() { r.analyzeEvents += in.events; r.shards = append(r.shards, st) })
	} else {
		var tr *trace.Trace
		err := r.call("trace.decode", req, root, func() error {
			var err error
			tr, err = trace.ReadBinary(bytes.NewReader(in.body))
			return err
		})
		if err != nil {
			return err
		}
		err = r.call("trace.analyze", req, root, func() error {
			var err error
			a, err = trace.AnalyzeCtx(ctx, tr, in.window)
			return err
		})
		if err != nil {
			return err
		}
		r.add(func() { r.decodeBytes += in.size; r.analyzeEvents += int64(len(tr.Events)) })
	}
	_, err := r.design(ctx, req, root, a)
	return err
}

// newReplayer builds a replayer. For the daemon workloads it has a
// cache holding what the daemon's held when measuring began: for
// service-repeat, the design of every working-set body posted during
// set-up.
func newReplayer(ctx context.Context, workload string, tr *tracer, ins []*input) *replayer {
	r := &replayer{tr: tr}
	if workload == "paper-suite" {
		return r
	}
	r.cache = cache.New(cache.Config{})
	if workload == "service-repeat" {
		for _, in := range ins {
			if !in.perturbed {
				r.cache.Store(ctx, in.analyses[0], designOptions(), in.refs[0])
			}
		}
	}
	return r
}

// replayRun replays the measured request sequence twice over,
// alternating per request between an untraced replayer and a traced
// one (each with its own cache), until the sequence ends or cfg.seconds
// have passed. It fills the per-layer figures from the traced spans and
// writes the spans under the build directory.
func replayRun(ctx context.Context, cfg config, w workload, e *env, samples []sample, f *figures) error {
	tr := &tracer{t0: time.Now()}
	plain := newReplayer(ctx, cfg.workload, nil, e.ins)
	traced := newReplayer(ctx, cfg.workload, tr, e.ins)
	var plainNS, tracedNS int64
	limit := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	n := 0
	for ; n < len(samples) && time.Since(start) < limit; n++ {
		in := e.ins[samples[n].in]
		for k := 0; k < 2; k++ {
			r, acc := plain, &plainNS
			if (n+k)%2 == 1 {
				r, acc = traced, &tracedNS
			}
			t0 := time.Now()
			if err := w.replay(ctx, r, n, in); err != nil {
				return fmt.Errorf("replaying request %d (%s): %w", n, in.name, err)
			}
			*acc += time.Since(t0).Nanoseconds()
		}
	}
	if err := tr.write(filepath.Join(cfg.build, fmt.Sprintf("spans-%s-seed%d.ndjson", cfg.workload, cfg.seed))); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	layerFigures(f, traced, tr.spans, n)
	f.set("bench.tracing_overhead_share", float64(tracedNS)/float64(plainNS)-1, n,
		"traced over untraced replay time, alternating per request, minus 1")
	jobNS, covered := int64(0), int64(0)
	cover := coverage(tr.spans, cfg.workload == "paper-suite")
	for i := 0; i < n; i++ {
		jobNS += w.jobTime(&samples[i]).Nanoseconds()
		covered += cover[i]
	}
	if jobNS > 0 {
		f.set("bench.unattributed_share", 1-float64(covered)/float64(jobNS), n,
			"1 - replayed in-job layer time over the untraced run's job time")
	}
	return nil
}

// layerFigures turns the traced spans into per-request self times and
// the layers' work counts into rates and ratios.
func layerFigures(f *figures, r *replayer, spans []span, reqs int) {
	self := map[string]int64{}
	calls := map[string]int{}
	childNS := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		self[s.Name] += s.End - s.Start - childNS[i]
		calls[s.Name]++
	}
	perReq := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += self[n]
		}
		return float64(ns) / 1e6 / float64(max(reqs, 1))
	}
	perCall := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(self[name]) / 1e3 / float64(calls[name])
	}
	rate := func(work float64, names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += self[n]
		}
		if ns == 0 {
			return 0
		}
		return work / (float64(ns) / 1e9)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	f.set("sim.run_ms", perReq("sim.collect", "sim.validate"), calls["sim.collect"]+calls["sim.validate"], "self ms per request")
	f.set("sim.mcycles_per_s", rate(float64(r.simCycles)/1e6, "sim.collect", "sim.validate"), int(r.simRuns), "simulated cycles over sim self time")
	f.set("sim.transactions", float64(r.transactions)/float64(max(calls["sim.validate"], 1)), calls["sim.validate"], "transactions per phase-4 simulation")
	f.set("trace.decode_ms", perReq("trace.decode"), calls["trace.decode"], "self ms per request")
	f.set("trace.decode_mb_per_s", rate(float64(r.decodeBytes)/1e6, "trace.decode"), calls["trace.decode"], "body bytes over decode time")
	f.set("trace.analyze_ms", perReq("trace.analyze"), calls["trace.analyze"], "self ms per request")
	f.set("trace.analyze_mevents_per_s", rate(float64(r.analyzeEvents)/1e6, "trace.analyze"), calls["trace.analyze"], "events over analysis time")
	var plan, merge, slowest []float64
	for _, st := range r.shards {
		plan = append(plan, float64(st.PlanNS)/1e6)
		merge = append(merge, float64(st.MergeNS)/1e6)
		var worst int64
		for _, sh := range st.Shards {
			worst = max(worst, sh.NS)
		}
		slowest = append(slowest, float64(worst)/1e6)
	}
	f.set("trace.shard_plan_ms", mean(plan), len(plan), "per sharded analysis, from trace.ShardStats")
	f.set("trace.shard_merge_ms", mean(merge), len(merge), "per sharded analysis, from trace.ShardStats")
	f.set("trace.shard_slowest_ms", mean(slowest), len(slowest), "per sharded analysis, from trace.ShardStats")
	f.set("cache.lookup_us", perCall("cache.lookup"), calls["cache.lookup"], "per Lookup call")
	f.set("cache.hit_ratio", ratio(r.hits, r.lookups), int(r.lookups), "exact hits over lookups")
	f.set("cache.warm_ratio", ratio(r.warmOK, r.warms), int(r.warms), "incumbents returned over Warm calls")
	f.set("cache.store_us", perCall("cache.store"), calls["cache.store"], "per Store call")
	f.set("core.design_ms", perReq("core.design"), calls["core.design"], "self ms per request, cache calls excluded")
	f.set("core.search_nodes", float64(r.nodes)/float64(max(r.designs, 1)), int(r.designs), "per design")
	f.set("core.capped_share", ratio(r.capped, r.designs), int(r.designs), "capped designs over designs")
	f.set("check.audit_ms", perReq("check.audit"), calls["check.audit"], "self ms per request")
}

// coverage returns, per request, the wall time covered by the union of
// its top-level layer spans that run inside the program's job: all of
// them for a Designer.Design call; for a daemon job all but decoding,
// which the daemon does before admitting the job, and the audit, which
// the benchmark runs on the reply.
func coverage(spans []span, all bool) map[int]int64 {
	type iv struct{ a, b int64 }
	byReq := map[int][]iv{}
	for _, s := range spans {
		if s.Parent < 0 || spans[s.Parent].Parent >= 0 ||
			(!all && (s.Name == "trace.decode" || s.Name == "check.audit")) {
			continue
		}
		byReq[s.Req] = append(byReq[s.Req], iv{s.Start, s.End})
	}
	out := map[int]int64{}
	for req, ivs := range byReq {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var total, lo, hi int64 = 0, ivs[0].a, ivs[0].b
		for _, v := range ivs[1:] {
			if v.a > hi {
				total += hi - lo
				lo, hi = v.a, v.b
				continue
			}
			hi = max(hi, v.b)
		}
		out[req] = total + hi - lo
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
