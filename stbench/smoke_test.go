package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 3, seconds: 0.4, trace: traced,
		tiny: true, build: t.TempDir()}
}

// lastLine parses the result line a run prints last.
func lastLine(t *testing.T, rep *report) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, buf.String())
	}
	return out
}

// TestSmokeWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that the run is correct and that the last line
// carries exactly the contract's keys and every named metric with its
// unit.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range []string{"paper-suite", "service-repeat", "long-trace"} {
		for _, traced := range []bool{false, true} {
			rep, err := run(context.Background(), tinyConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			out := lastLine(t, rep)
			var keys []string
			for k := range out {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
				t.Fatalf("%s: result keys %s", name, got)
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			specs := endToEndSpecs
			if traced {
				specs = perLayerSpecs
			}
			if len(metrics) != len(specs) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", name, traced, len(metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := metrics[s.name]
				if !ok || m.Value == nil || m.Unit != s.unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s: metric %s = %+v, want a finite value in %s", name, s.name, m, s.unit)
				}
			}
			if !traced {
				for _, f := range rep.EndToEnd {
					if f.Name != "setup_s" && f.Name != "peak_heap_mb" && f.Value <= 0 {
						t.Errorf("%s: %s is %v, want positive", name, f.Name, f.Value)
					}
				}
			}
		}
	}
}

// TestGateTrips checks that the correctness gate fails a request whose
// reference disagrees with the reply, and one whose reply breaks the
// paper's constraints while matching its reference's bus count and
// overlap.
func TestGateTrips(t *testing.T) {
	for _, name := range []string{"paper-suite", "service-repeat"} {
		cfg := tinyConfig(t, name, false)
		w := workloads[name]
		ctx := context.Background()
		e, err := w.setup(ctx, cfg, tinySizes())
		if err != nil {
			t.Fatal(err)
		}
		clock := startQuietClock(0.4, time.Second)
		samples := w.measure(ctx, e, clock)
		clock.finish()
		if err := e.close(); err != nil {
			t.Fatal(err)
		}
		if failed, why, err := verify(ctx, e.ins, samples); err != nil || failed != 0 {
			t.Fatalf("%s: untouched run: failed=%d %v %v", name, failed, why, err)
		}

		// A wrong reference: one bus more than the real design.
		in := e.ins[samples[0].in]
		in.refs[0].NumBuses++
		failed, _, err := verify(ctx, e.ins, samples)
		if err != nil || failed == 0 {
			t.Fatalf("%s: gate passed a reply that disagrees with its reference (err %v)", name, err)
		}
		in.refs[0].NumBuses--
		for i := range samples {
			samples[i].err = ""
		}

		// A reply with its reference's bus count and overlap whose
		// binding puts every receiver on bus 0.
		d := *samples[0].designs[0]
		d.BusOf = make([]int, len(d.BusOf))
		samples[0].designs[0] = &d
		failed, why, err := verify(ctx, e.ins, samples)
		if err != nil || failed == 0 {
			t.Fatalf("%s: gate passed a binding that fails the audit (err %v)", name, err)
		}
		if !strings.Contains(strings.Join(why, " "), "audit") {
			t.Fatalf("%s: failure %v does not name the audit", name, why)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric lists
// the program prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEndSpecs) || len(b.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndSpecs), len(perLayerSpecs))
	}
	for i, s := range endToEndSpecs {
		if b.EndToEnd[i].Name != s.name || b.EndToEnd[i].Unit != s.unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, s.name, s.unit)
		}
	}
	for i, s := range perLayerSpecs {
		if b.PerLayer[i].Name != s.name || b.PerLayer[i].Unit != s.unit {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, s.name, s.unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, wl := range b.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", wl.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(old))
		for i, v := range old {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		cur  []float64
		want string
	}{
		{shift(0), "unchanged"},
		{shift(-20), "better"},
		{shift(30), "worse"},
		{shift(5), "unchanged"},
		{[]float64{60, 140, 70, 130, 100, 80, 120, 90, 110, 100}, "unresolved"},
	} {
		if got := compareMetric(old, c.cur, false, 0.1).verdict; got != c.want {
			t.Errorf("compare(%v) = %s, want %s", c.cur, got, c.want)
		}
	}
}

func TestTailLadder(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := tail(xs)
	if p != 90 || v != 135 {
		t.Fatalf("tail of 1..150 = %v at p%v, want 135 at p90", v, p)
	}
}
