package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	stbusgen "repro"
	"repro/internal/benchprobs"
	"repro/internal/check"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// input is one distinct request of a workload together with what the
// benchmark expects back for it. Everything in it is generated from the
// run's seed during set-up; the program under test sees only the body
// (or, for paper-suite, the application).
type input struct {
	name  string // e.g. "mat2/req", "fft/resp~p3", "des/req#4*20.v1"
	class string // the application and direction, e.g. "mat2/req"
	app   *stbusgen.App
	// dirs lists the directions the request designs: both for a
	// paper-suite application, one for a posted trace.
	dirs   []string
	window int64
	events int64
	// body is an encoded trace held in memory; path names one written
	// under the checkout's build directory. At most one is set, and
	// neither for paper-suite.
	body   []byte
	path   string
	size   int64
	format string // "v1" or "v2"; "" for paper-suite
	// perturbed marks a service-repeat edit of a working-set trace.
	perturbed bool

	// refs are the reference designs, one per direction, computed by
	// direct Designer calls and audited against analyses.
	refs []*core.Design
	// analyses are the benchmark's own analyses of the request's traces,
	// one per direction. Long traces keep none: a reply equal to its
	// audited reference needs no second audit, and any other reply is
	// audited against an analysis re-derived from the trace file.
	analyses []*trace.Analysis
}

// sizes are the knobs that scale a workload; tiny is the smoke-test
// preset.
type sizes struct {
	apps         []string // paper applications used
	synthetics   int      // paper-suite Synthetic(...,100) instances
	perturbShare float64  // service-repeat share of edited requests
	repeatRate   float64  // service-repeat requests planned per second
	longApp      string   // long-trace application
	longV1Events int64    // events per v1 long trace
	longV2Events int64    // events per v2 long trace
	longPool     int      // distinct long traces generated
	spoolAt      int64    // daemon spool threshold in bytes
}

func fullSizes(seconds float64) sizes {
	return sizes{
		apps:         []string{"mat1", "mat2", "fft", "qsort", "des"},
		synthetics:   2,
		perturbShare: 0.02,
		repeatRate:   400,
		longApp:      "des",
		longV1Events: 400_000,
		longV2Events: 2_100_000,
		longPool:     int(seconds * 13),
		spoolAt:      8 << 20,
	}
}

func tinySizes() sizes {
	return sizes{
		apps:         []string{"mat2", "qsort"},
		synthetics:   1,
		perturbShare: 0.25,
		repeatRate:   100,
		longApp:      "mat2",
		longV1Events: 20_000,
		longV2Events: 60_000,
		longPool:     6,
		spoolAt:      64 << 10,
	}
}

// paperApp builds one of the paper's applications at a seed.
func paperApp(name string, seed int64) *stbusgen.App {
	switch name {
	case "mat1":
		return stbusgen.Mat1(seed)
	case "mat2":
		return stbusgen.Mat2(seed)
	case "fft":
		return stbusgen.FFT(seed)
	case "qsort":
		return stbusgen.QSort(seed)
	case "des":
		return stbusgen.DES(seed)
	}
	panic("stbench: unknown application " + name)
}

// appSeed derives an application's workload seed from the run seed, so
// different runs simulate different (but equally sized) traffic.
func appSeed(runSeed int64, k int) int64 { return runSeed*7919 + int64(k) + 1 }

// designOptions are the methodology options of every reference and
// every request: the paper's defaults with the audit on.
func designOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Audit = true
	opts.Workers = 1
	return opts
}

// reference designs one direction by a direct Designer call, which
// with the audit on also checks the design against a, the benchmark's
// own analysis.
func reference(ctx context.Context, a *trace.Analysis) (*core.Design, error) {
	d, err := stbusgen.NewDesigner(designOptions()).DesignAnalysis(ctx, a)
	if err != nil {
		return nil, err
	}
	if d.Capped {
		return nil, fmt.Errorf("reference design is capped")
	}
	return d, nil
}

// paperSuiteInputs builds the paper's five applications at the paper's
// own workload seed plus Synthetic(...,100) instances at seeds drawn
// from the run seed, with reference designs from a full Designer.Design
// run each and the benchmark's own analyses of the simulated traces.
// The five applications stay at one seed because the solver effort of
// an application varies several-fold between workload seeds (FFT takes
// 74 to 297 ms across seeds 1 to 9), which would swamp the run-to-run
// comparison this workload exists for.
func paperSuiteInputs(ctx context.Context, seed int64, sz sizes) ([]*input, error) {
	var apps []*stbusgen.App
	for _, name := range sz.apps {
		apps = append(apps, paperApp(name, experiments.Seed))
	}
	for k := 0; k < sz.synthetics; k++ {
		apps = append(apps, stbusgen.Synthetic(appSeed(seed, 100+k), 100))
	}
	ins := make([]*input, len(apps))
	err := conc.ForEach(ctx, len(apps), 0, func(ctx context.Context, i int) error {
		app := apps[i]
		name := fmt.Sprintf("%s#%d", app.Name, i)
		res, err := stbusgen.NewDesigner(designOptions()).Design(ctx, app)
		if err != nil {
			return fmt.Errorf("reference design of %s: %w", name, err)
		}
		req, resp, err := stbusgen.CollectTraceCtx(ctx, app)
		if err != nil {
			return fmt.Errorf("simulating %s: %w", name, err)
		}
		in := &input{name: name, class: name, app: app, dirs: []string{"req", "resp"},
			window: app.WindowSize, events: int64(len(req.Events) + len(resp.Events))}
		for k, tr := range []*trace.Trace{req, resp} {
			a, err := trace.AnalyzeCtx(ctx, tr, app.WindowSize)
			if err != nil {
				return fmt.Errorf("analyzing %s: %w", name, err)
			}
			d := []*core.Design{res.Pair.Req, res.Pair.Resp}[k]
			if d.Capped {
				return fmt.Errorf("reference design of %s is capped", name)
			}
			if rep := check.Audit(d, a, designOptions()); !rep.OK() {
				return fmt.Errorf("reference design of %s fails audit: %w", name, rep.Err())
			}
			in.refs = append(in.refs, d)
			in.analyses = append(in.analyses, a)
		}
		ins[i] = in
		return nil
	})
	return ins, err
}

// sortedTraces simulates app on a full crossbar and returns its request
// and response traces, sorted by start cycle.
func sortedTraces(ctx context.Context, app *stbusgen.App) ([2]*trace.Trace, error) {
	req, resp, err := stbusgen.CollectTraceCtx(ctx, app)
	if err != nil {
		return [2]*trace.Trace{}, fmt.Errorf("simulating %s: %w", app.Name, err)
	}
	trs := [2]*trace.Trace{req, resp}
	for _, tr := range trs {
		sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].Start < tr.Events[j].Start })
	}
	return trs, nil
}

var dirNames = [2]string{"req", "resp"}

// traceInput encodes tr as a v1 body and computes its analysis and
// reference design.
func traceInput(ctx context.Context, name, class string, app *stbusgen.App, dir string, tr *trace.Trace) (*input, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	a, err := trace.AnalyzeCtx(ctx, tr, app.WindowSize)
	if err != nil {
		return nil, fmt.Errorf("analyzing %s: %w", name, err)
	}
	ref, err := reference(ctx, a)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &input{name: name, class: class, app: app, dirs: []string{dir}, window: app.WindowSize,
		events: int64(len(tr.Events)), body: buf.Bytes(), size: int64(buf.Len()), format: "v1",
		refs: []*core.Design{ref}, analyses: []*trace.Analysis{a}}, nil
}

// serviceRepeatInputs builds the service-repeat working set (both
// directions of every application, as v1 bodies) and the schedule's
// edited bodies: edits[k] is the working-set body edit k derives from.
func serviceRepeatInputs(ctx context.Context, seed int64, sz sizes, edits []int) (base, edited []*input, err error) {
	apps := make([]*stbusgen.App, len(sz.apps))
	trs := make([][2]*trace.Trace, len(sz.apps))
	err = conc.ForEach(ctx, len(apps), 0, func(ctx context.Context, k int) error {
		apps[k] = paperApp(sz.apps[k], experiments.Seed)
		var err error
		trs[k], err = sortedTraces(ctx, apps[k])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	base = make([]*input, 2*len(apps))
	err = conc.ForEach(ctx, len(base), 0, func(ctx context.Context, i int) error {
		app, dir := apps[i/2], dirNames[i%2]
		name := sz.apps[i/2] + "/" + dir
		var err error
		base[i], err = traceInput(ctx, name, name, app, dir, trs[i/2][i%2])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	edited = make([]*input, len(edits))
	err = conc.ForEach(ctx, len(edits), 0, func(ctx context.Context, k int) error {
		b := edits[k]
		app, dir := apps[b/2], dirNames[b%2]
		tr := benchprobs.PerturbTrace(trs[b/2][b%2], 0.01, seed*1_000_003+int64(k))
		name := fmt.Sprintf("%s~p%d", base[b].name, k)
		in, err := traceInput(ctx, name, base[b].class, app, dir, tr)
		if err != nil {
			return err
		}
		in.perturbed = true
		edited[k] = in
		return nil
	})
	return base, edited, err
}

// tile repeats tr n times back to back in time: a long capture of the
// same application.
func tile(tr *trace.Trace, n int64) *trace.Trace {
	out := &trace.Trace{NumReceivers: tr.NumReceivers, NumSenders: tr.NumSenders,
		Horizon: tr.Horizon * n, Events: make([]trace.Event, 0, int64(len(tr.Events))*n)}
	for k := int64(0); k < n; k++ {
		for _, e := range tr.Events {
			e.Start += k * tr.Horizon
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// longShape is the size and container of one long-trace request.
type longShape struct {
	format string
	events int64
}

// longShapes cycles the long-trace requests through the containers:
// most bodies are v1 just above the spool threshold, every third pair
// v2, which needs about five times the events to get there. The unequal
// mix keeps both the median and the tail inside one kind of request.
func longShapes(sz sizes) []longShape {
	return []longShape{{"v1", sz.longV1Events}, {"v1", sz.longV1Events}, {"v2", sz.longV2Events}}
}

// longTraceInputs builds sz.longPool distinct long traces, in pairs:
// pair u simulates the long-trace application at its own seed, and its
// two requests tile the request and the response trace to the size of
// the pair's shape. Distinct seeds give distinct analyses, so no body
// can hit the design cache. Bodies are written under dir and must
// exceed the daemon's spool threshold.
func longTraceInputs(ctx context.Context, seed int64, sz sizes, dir string) ([]*input, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	shapes := longShapes(sz)
	ins := make([]*input, 2*((sz.longPool+1)/2))
	err := conc.ForEach(ctx, len(ins)/2, 0, func(ctx context.Context, u int) error {
		app := paperApp(sz.longApp, appSeed(seed, u))
		trs, err := sortedTraces(ctx, app)
		if err != nil {
			return err
		}
		sh := shapes[u%len(shapes)]
		for d, base := range trs {
			i := 2*u + d
			n := (sh.events + int64(len(base.Events)) - 1) / int64(len(base.Events))
			class := sz.longApp + "/" + dirNames[d]
			in := &input{name: fmt.Sprintf("%s#%d*%d.%s", class, u, n, sh.format), class: class, app: app,
				dirs: []string{dirNames[d]}, window: app.WindowSize, events: n * int64(len(base.Events)),
				path: filepath.Join(dir, fmt.Sprintf("long-%03d.trc", i)), format: sh.format}
			if in.size, err = writeTiled(in.path, base, n, in.format); err != nil {
				return fmt.Errorf("writing %s: %w", in.name, err)
			}
			if in.size <= sz.spoolAt {
				return fmt.Errorf("%s is %d bytes, not above the %d-byte spool threshold", in.name, in.size, sz.spoolAt)
			}
			a, err := analyzeFile(ctx, in.path, in.window)
			if err != nil {
				return fmt.Errorf("analyzing %s: %w", in.name, err)
			}
			ref, err := reference(ctx, a)
			if err != nil {
				return fmt.Errorf("%s: %w", in.name, err)
			}
			in.refs = []*core.Design{ref}
			ins[i] = in
		}
		return nil
	})
	return ins, err
}

// writeTiled writes base tiled n times (see tile) to path in the given
// container and returns the file size. A v2 body is streamed through
// trace.NewV2Writer without building the tiled trace in memory.
func writeTiled(path string, base *trace.Trace, n int64, format string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if format == "v2" {
		err = writeTiledV2(bw, base, n)
	} else {
		err = trace.WriteBinary(bw, tile(base, n))
	}
	if err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), f.Close()
}

func writeTiledV2(w io.Writer, base *trace.Trace, n int64) error {
	vw, err := trace.NewV2Writer(w, base.NumReceivers, base.NumSenders, base.Horizon*n, uint64(n)*uint64(len(base.Events)))
	if err != nil {
		return err
	}
	for k := int64(0); k < n; k++ {
		for _, e := range base.Events {
			e.Start += k * base.Horizon
			if err := vw.Add(e); err != nil {
				return err
			}
		}
	}
	return vw.Close()
}

// analyzeFile is the benchmark's own analysis of a trace file: the
// streaming kernel (trace.AnalyzeReader), not the sharded one the daemon
// runs on spooled bodies.
func analyzeFile(ctx context.Context, path string, window int64) (*trace.Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.AnalyzeReader(ctx, f, window)
}

// analysesOf returns the benchmark's own analyses of in's traces,
// re-deriving a long trace's from its file, as set-up dropped it.
func analysesOf(ctx context.Context, in *input) ([]*trace.Analysis, error) {
	if in.analyses != nil {
		return in.analyses, nil
	}
	a, err := analyzeFile(ctx, in.path, in.window)
	if err != nil {
		return nil, err
	}
	return []*trace.Analysis{a}, nil
}

// repeatPlan draws the service-repeat request sequence of n requests.
// Every 1/share-th request (from a seeded offset) is a fresh edit of a
// working-set body; the others repeat the working-set bodies, dealt
// from decks that each hold every body once in a seeded order. Edits
// take the bodies in turn. So every run sends each body, and edits
// each, about equally often, and the seed moves only the order: a run's
// latencies do not depend on how often its seed drew the slowest
// bodies. It returns the body index of each request (edits numbered
// after the nBase working-set bodies) and the working-set body each
// edit derives from.
func repeatPlan(seed int64, n int, share float64, nBase int) (pick []int, edits []int) {
	rng := rand.New(rand.NewSource(seed))
	every := max(1, int(math.Round(1/share)))
	first, offset := rng.Intn(nBase), rng.Intn(every)
	var deck []int
	for i := 0; i < n; i++ {
		if i%every == offset {
			pick = append(pick, nBase+len(edits))
			edits = append(edits, (first+len(edits))%nBase)
			continue
		}
		if len(deck) == 0 {
			deck = rng.Perm(nBase)
		}
		pick = append(pick, deck[0])
		deck = deck[1:]
	}
	return pick, edits
}
