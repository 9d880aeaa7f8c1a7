// Command stbench is the repository benchmark. It runs the STbus
// crossbar design flow (simulate, decode, windowed analysis, design
// cache, crossbar search, audit, HTTP service) on one of three seeded
// workloads, checks every design it gets back, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced replay) as the last line of its output:
//
//	paper-suite     Designer.Design over the paper's applications
//	service-repeat  closed-loop POSTs of repeated traces to an in-process daemon
//	long-trace      closed-loop POSTs of distinct spooled long traces
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash stbench/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
//	bash stbench/run.sh compare OLD.jsonl NEW.jsonl
//
// --out appends each run's full record (provenance, sample counts,
// percentiles) to a JSON-lines file; compare reads two such files.
// See README.md for the workloads, the metrics and the correctness gate.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below
// are the ones BENCHMARK.json declares, in the same order.
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"correct_share", "ratio"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"buses_total", "count"},
	{"packet_latency_avg_cycles", "cycles"},
}

var perLayerSpecs = []metricSpec{
	{"sim.run_ms", "ms"},
	{"sim.mcycles_per_s", "Mcycles/s"},
	{"sim.transactions", "count"},
	{"trace.decode_ms", "ms"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"trace.analyze_ms", "ms"},
	{"trace.analyze_mevents_per_s", "Mevents/s"},
	{"trace.shard_plan_ms", "ms"},
	{"trace.shard_merge_ms", "ms"},
	{"trace.shard_slowest_ms", "ms"},
	{"cache.lookup_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.warm_ratio", "ratio"},
	{"cache.store_us", "us"},
	{"core.design_ms", "ms"},
	{"core.search_nodes", "count"},
	{"core.capped_share", "ratio"},
	{"check.audit_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.job_p50_ms", "ms"},
	{"server.outside_job_p50_ms", "ms"},
	{"server.hit_share", "ratio"},
	{"server.rejected_share", "ratio"},
	{"bench.tracing_overhead_share", "ratio"},
	{"bench.unattributed_share", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out names a JSON-lines file the run's full record is appended to.
	out string
	// tiny selects the smoke test's input sizes.
	tiny bool
	// build is the directory for spooled bodies, trace files and spans.
	build string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("stbench", flag.ContinueOnError)
	var cfg config
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "paper-suite, service-repeat or long-trace")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase")
	fs.IntVar(&traced, "trace", 0, "1 adds the traced replay and prints the per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "append the run's full record to this JSON-lines file")
	cfg.build = ".bench_build"
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q (want paper-suite, service-repeat or long-trace)", cfg.workload)
	}
	if traced != 0 && traced != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = traced == 1
	return cfg, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "stbench compare:", err)
			os.Exit(2)
		}
		return
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(1)
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// figure is one reported metric with the evidence behind it.
type figure struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// provenance records where a result came from.
type provenance struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	// Source is a digest of the Go sources the benchmark was built
	// from: it tells two builds apart where there is no git checkout.
	Source string `json:"source_sha256"`
	OS     string `json:"os_arch"`
	Time   string `json:"time"`
}

// report is a run's complete outcome; the JSON-lines record written by
// --out and read by compare.
type report struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Traced     bool       `json:"traced"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Failures   []string   `json:"failures,omitempty"`
	Provenance provenance `json:"provenance"`
	// The measured phase ran WallSeconds; the timings come from the
	// requests of its CountedSeconds least disturbed slices (see
	// quietClock). CountedSteal is the steal share of the wanted CPU
	// time (see hostClock.since) over those slices, StealShare over the
	// whole phase, CPUSeconds the process's CPU time in it.
	WallSeconds    float64  `json:"wall_s"`
	CountedSeconds float64  `json:"counted_s"`
	CountedSteal   float64  `json:"counted_steal_share"`
	StealShare     float64  `json:"steal_share"`
	CPUSeconds     float64  `json:"cpu_seconds"`
	EndToEnd       []figure `json:"end_to_end"`
	PerLayer       []figure `json:"per_layer,omitempty"`
}

// print writes the human-readable report, then the one-line result the
// benchmark contract asks for: every end-to-end metric, or with --trace
// 1 every per-layer metric.
func (r *report) print(w io.Writer) error {
	p := r.Provenance
	fmt.Fprintf(w, "stbench %s seed=%d seconds=%g traced=%v  go=%s nproc=%d GOMAXPROCS=%d commit=%s source=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.Commit, p.Source)
	fmt.Fprintf(w, "  requests attempted=%d failed=%d failed_share=%.4f\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Fprintf(w, "  measured phase %.1f s, timings from its %.1f least disturbed s (steal %.1f%% of the wanted cpu; %.1f%% over the phase), process cpu %.1f s\n",
		r.WallSeconds, r.CountedSeconds, 100*r.CountedSteal, 100*r.StealShare, r.CPUSeconds)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, group := range []struct {
		title string
		figs  []figure
	}{{"end to end", r.EndToEnd}, {"per layer", r.PerLayer}} {
		if len(group.figs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", group.title)
		for _, f := range group.figs {
			fmt.Fprintf(w, "    %-30s %14.6g %-10s n=%-6d %s\n", f.Name, f.Value, f.Unit, f.Samples, f.Note)
		}
	}
	figs := r.EndToEnd
	if r.Traced {
		figs = r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, f := range figs {
		v := f.Value
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a latency taken over failed requests
		}
		out.Metrics[f.Name] = value{v, f.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, r *report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// figures is an ordered metric set under construction.
type figures struct {
	specs []metricSpec
	byKey map[string]*figure
}

func newFigures(specs []metricSpec) *figures {
	f := &figures{specs: specs, byKey: map[string]*figure{}}
	for _, s := range specs {
		f.byKey[s.name] = &figure{Name: s.name, Unit: s.unit}
	}
	return f
}

// set records a metric; naming one outside the list is a bug.
func (f *figures) set(name string, value float64, samples int, note string) {
	fig, ok := f.byKey[name]
	if !ok {
		panic("stbench: unlisted metric " + name)
	}
	fig.Value, fig.Samples, fig.Note = value, samples, note
}

func (f *figures) list() []figure {
	out := make([]figure, len(f.specs))
	for i, s := range f.specs {
		out[i] = *f.byKey[s.name]
	}
	return out
}

func currentProvenance(root string) provenance {
	return provenance{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commitOf(root),
		Source:     sourceDigest(root),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// commitOf reads the checked-out commit from .git without running git;
// outside a git checkout it returns "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	name, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return name
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if commit, ref, ok := strings.Cut(line, " "); ok && ref == name {
			return commit
		}
	}
	return "unknown"
}

// sourceDigest hashes the paths and contents of the Go files and go.mod
// files under root, skipping hidden directories such as .git and the
// build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
