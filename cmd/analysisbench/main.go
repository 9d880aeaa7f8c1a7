// Command analysisbench times the trace-analysis kernels on the
// deterministic benchprobs.ScaledTrace instances and writes the results
// as JSON — by convention to BENCH_analysis.json at the repository
// root, which CI uploads as a build artifact. The cases mirror the
// in-tree `go test -bench Analyze` benchmarks in internal/trace, so
// numbers from either source are comparable.
//
// Configurations per case: "legacy" is the original O(R²) pairwise
// interval-set intersection kernel (retained behind
// trace.AnalyzeLegacy), "sweep" is the single-pass sweep-line kernel
// that replaced it, "stream" is the same kernel fed the binary trace
// encoding through trace.AnalyzeReader without materializing the event
// slice, and — on the ≥1M-event cases — "sharded-N" runs the same
// driver split into N parallel shards (trace.AnalyzeTrace). Before timing
// anything, every case's outputs are cross-checked bit-identical; a
// mismatch aborts the run.
//
// With -full, an out-of-core case joins the suite: a 100M-event trace
// is streamed into a columnar v2 container on disk (never existing in
// memory as an event slice) and analyzed through the mmap-backed
// trace.AnalyzeFileSharded, equivalence-gated against the streaming
// single-pass reader over the same file. The shared -shards flag picks
// its shard count (0 = one per core).
//
// Usage:
//
//	analysisbench                 # standard suite (up to 1M events)
//	analysisbench -full           # adds the 10M- and out-of-core 100M-event cases
//	analysisbench -quick -out /tmp/b.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/cli"
	"repro/internal/trace"
)

type caseResult struct {
	Name        string  `json:"name"`
	Config      string  `json:"config"`
	Receivers   int     `json:"receivers"`
	Events      int     `json:"events"`
	Windows     int     `json:"windows"`
	Shards      int     `json:"shards,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MEventsPerS float64 `json:"mevents_per_sec,omitempty"` // implied: events / (plan + slowest shard + merge)
	Skipped     bool    `json:"skipped,omitempty"`
	Note        string  `json:"note,omitempty"`
}

type report struct {
	GeneratedBy string       `json:"generated_by"`
	Timestamp   string       `json:"timestamp"`
	Cases       []caseResult `json:"cases"`
}

var (
	out   = flag.String("out", "BENCH_analysis.json", "output JSON path")
	quick = flag.Bool("quick", false, "cap cases at 100k events")
	full  = flag.Bool("full", false, "include the 10M-event cases")
)

func main() { cli.Main("analysisbench", run) }

// benchCase times one kernel configuration under testing.Benchmark.
func benchCase(name, config string, tr *trace.Trace, nW int, fn func() error) caseResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return caseResult{
		Name:        name,
		Config:      config,
		Receivers:   tr.NumReceivers,
		Events:      len(tr.Events),
		Windows:     nW,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func run(ctx context.Context) error {

	receiverCounts := []int{8, 16, 32, 64}
	eventCounts := []int{10_000, 100_000, 1_000_000}
	if *quick {
		eventCounts = []int{10_000, 100_000}
	}
	if *full {
		eventCounts = append(eventCounts, 10_000_000)
	}

	var rep report
	rep.GeneratedBy = "cmd/analysisbench"
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)

	add := func(c caseResult) {
		rep.Cases = append(rep.Cases, c)
		if c.Skipped {
			log.Printf("%-24s %-8s skipped: %s", c.Name, c.Config, c.Note)
			return
		}
		log.Printf("%-24s %-8s %14d ns/op %12d B/op %8d allocs/op",
			c.Name, c.Config, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
	}

	for _, events := range eventCounts {
		for _, receivers := range receiverCounts {
			// The legacy kernel at 10M events and high receiver counts
			// runs for minutes per iteration; one full-scale legacy
			// point (32 receivers) is enough to anchor the comparison.
			legacyTooBig := events >= 10_000_000 && receivers != 32

			name := fmt.Sprintf("%drx-%s", receivers, eventLabel(events))
			tr := benchprobs.ScaledTrace(receivers, events)
			ws := benchprobs.ScaledWindow(tr)
			encoded, err := encodeSorted(tr)
			if err != nil {
				return fmt.Errorf("%s: encoding: %w", name, err)
			}

			// Equivalence gate before timing: all three paths must
			// produce bit-identical analyses on this exact case.
			sweep, err := trace.AnalyzeCtx(ctx, tr, ws)
			if err != nil {
				return fmt.Errorf("%s: sweep: %w", name, err)
			}
			nW := sweep.NumWindows()
			streamed, err := trace.AnalyzeReader(ctx, bytes.NewReader(encoded), ws)
			if err != nil {
				return fmt.Errorf("%s: stream: %w", name, err)
			}
			if diffs := trace.DiffAnalyses(sweep, streamed); len(diffs) > 0 {
				return fmt.Errorf("%s: sweep vs stream disagree:\n%s", name, strings.Join(diffs, "\n"))
			}
			if !legacyTooBig {
				legacy, err := trace.AnalyzeLegacy(ctx, tr, trace.Windows{Size: ws})
				if err != nil {
					return fmt.Errorf("%s: legacy: %w", name, err)
				}
				if diffs := trace.DiffAnalyses(sweep, legacy); len(diffs) > 0 {
					return fmt.Errorf("%s: sweep vs legacy disagree:\n%s", name, strings.Join(diffs, "\n"))
				}
			}
			sweep, streamed = nil, nil

			if legacyTooBig {
				add(caseResult{
					Name: name, Config: "legacy", Receivers: receivers, Events: events, Windows: nW,
					Skipped: true, Note: "legacy kernel takes minutes per iteration at this scale; the 32rx point anchors the comparison",
				})
			} else {
				add(benchCase(name, "legacy", tr, nW, func() error {
					_, err := trace.AnalyzeLegacy(ctx, tr, trace.Windows{Size: ws})
					return err
				}))
			}
			add(benchCase(name, "sweep", tr, nW, func() error {
				_, err := trace.AnalyzeCtx(ctx, tr, ws)
				return err
			}))
			add(benchCase(name, "stream", tr, nW, func() error {
				_, err := trace.AnalyzeReader(ctx, bytes.NewReader(encoded), ws)
				return err
			}))

			// Sharded driver at the sizes where partitioning pays.
			// Each count is equivalence-gated, then timed; one
			// instrumented run per count reports the implied
			// throughput (plan + slowest shard + merge, as if each
			// shard had its own core) and the split costs.
			if events >= 1_000_000 {
				want, err := trace.AnalyzeCtx(ctx, tr, ws)
				if err != nil {
					return fmt.Errorf("%s: sweep: %w", name, err)
				}
				for _, n := range shardCounts() {
					var stats trace.ShardStats
					sharded, err := trace.AnalyzeTrace(ctx, tr, trace.Windows{Size: ws}, n, &stats)
					if err != nil {
						return fmt.Errorf("%s: sharded-%d: %w", name, n, err)
					}
					if diffs := trace.DiffAnalyses(want, sharded); len(diffs) > 0 {
						return fmt.Errorf("%s: sweep vs sharded-%d disagree:\n%s", name, n, strings.Join(diffs, "\n"))
					}
					c := benchCase(name, fmt.Sprintf("sharded-%d", n), tr, nW, func() error {
						_, err := trace.AnalyzeTrace(ctx, tr, trace.Windows{Size: ws}, n, nil)
						return err
					})
					c.Shards = len(stats.Shards)
					c.MEventsPerS = stats.EventsPerSec() / 1e6
					c.Note = shardNote(&stats)
					add(c)
				}
			}
		}
	}

	if *full {
		c, err := outOfCoreCase(ctx, 32, 100_000_000)
		if err != nil {
			return err
		}
		add(c)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", *out)
	return nil
}

func eventLabel(events int) string {
	switch {
	case events >= 1_000_000:
		return fmt.Sprintf("%dM", events/1_000_000)
	case events >= 1_000:
		return fmt.Sprintf("%dk", events/1_000)
	}
	return fmt.Sprint(events)
}

// shardCounts returns the shard counts benchmarked on the large cases:
// 2/4/8 by default, or exactly the shared -shards value when one is
// given (0 keeps the default sweep — "auto" is a deployment knob, not
// a benchmark point).
func shardCounts() []int {
	if n := cli.Shards(); n > 0 {
		return []int{n}
	}
	return []int{2, 4, 8}
}

// shardNote summarizes one instrumented sharded run: split costs and
// the per-shard event spread, the numbers that explain a speedup (or
// its absence) at a glance.
func shardNote(stats *trace.ShardStats) string {
	var slowest, events int64
	for _, st := range stats.Shards {
		events += st.Events
		if st.NS > slowest {
			slowest = st.NS
		}
	}
	return fmt.Sprintf("plan %.2fms merge %.2fms slowest-shard %.2fms, %d event pieces across %d shards",
		float64(stats.PlanNS)/1e6, float64(stats.MergeNS)/1e6, float64(slowest)/1e6, events, len(stats.Shards))
}

// outOfCoreCase builds and times the -full headline case: `events`
// events streamed into a columnar v2 container on disk and analyzed
// through the mmap-backed sharded driver, with the event slice never
// materialized. The result is equivalence-gated against the streaming
// single-pass reader over the same file — the only other path that can
// analyze a trace this size in bounded memory. Timing is one measured
// run (testing.Benchmark would re-run a multi-minute body), with the
// process heap delta standing in for the benchmark allocator columns.
func outOfCoreCase(ctx context.Context, receivers, events int) (caseResult, error) {
	name := fmt.Sprintf("%drx-%s-ooc", receivers, eventLabel(events))
	f, err := os.CreateTemp("", "analysisbench-*.trc")
	if err != nil {
		return caseResult{}, err
	}
	path := f.Name()
	defer os.Remove(path)
	bw := bufio.NewWriterSize(f, 1<<20)
	horizon, err := benchprobs.WriteScaledV2(bw, receivers, events)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return caseResult{}, fmt.Errorf("%s: generating: %w", name, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return caseResult{}, err
	}
	log.Printf("%-24s generated %d events, %.1f MiB (%.2f B/event), horizon %d",
		name, events, float64(fi.Size())/(1<<20), float64(fi.Size())/float64(events), horizon)

	// A window a few thousand bursts wide keeps the per-window tables
	// (the analysis output) small against the input: ~16k windows
	// regardless of event count.
	ws := horizon / 16384
	shards := cli.Shards()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var stats trace.ShardStats
	t0 := time.Now()
	sharded, err := trace.AnalyzeFileSharded(ctx, path, ws, shards, &stats)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return caseResult{}, fmt.Errorf("%s: sharded: %w", name, err)
	}

	sf, err := os.Open(path)
	if err != nil {
		return caseResult{}, err
	}
	streamed, err := trace.AnalyzeReader(ctx, sf, ws)
	sf.Close()
	if err != nil {
		return caseResult{}, fmt.Errorf("%s: stream gate: %w", name, err)
	}
	if diffs := trace.DiffAnalyses(streamed, sharded); len(diffs) > 0 {
		return caseResult{}, fmt.Errorf("%s: stream vs sharded disagree:\n%s", name, strings.Join(diffs, "\n"))
	}

	return caseResult{
		Name:        name,
		Config:      fmt.Sprintf("sharded-file-%d", len(stats.Shards)),
		Receivers:   receivers,
		Events:      events,
		Windows:     sharded.NumWindows(),
		Shards:      len(stats.Shards),
		NsPerOp:     elapsed.Nanoseconds(),
		AllocsPerOp: int64(m1.Mallocs - m0.Mallocs),
		BytesPerOp:  int64(m1.TotalAlloc - m0.TotalAlloc),
		MEventsPerS: stats.EventsPerSec() / 1e6,
		Note: fmt.Sprintf("out-of-core mmap ingest of a %.1f MiB v2 file; single measured run; %s",
			float64(fi.Size())/(1<<20), shardNote(&stats)),
	}, nil
}

// encodeSorted renders the trace in the binary stream format.
// ScaledTrace emits events already ordered by start, which is what
// AnalyzeReader requires.
func encodeSorted(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
