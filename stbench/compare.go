package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readRecords loads the untraced run records of a JSON-lines file
// written by --out, grouped by workload in file order.
func readRecords(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// compareMain prints one row per workload and end-to-end metric for two
// result sets (old, then new): medians and quartiles of each, the
// bound, and a verdict under the rules of the benchmark's method:
//
//   - unresolved: either side's quartile spread exceeds the bound, and
//     not every new run beats every old run;
//   - better: every new run beats every old run, or the new side wins at
//     least nine tenths of the run pairs (ties count for neither) and
//     the medians differ by more than the old runs' quartile distance;
//   - worse: the new median is worse than the old by more than the bound;
//   - unchanged: otherwise.
func compareMain(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [--bench BENCHMARK.json] OLD.jsonl NEW.jsonl")
	}
	b, err := readBenchmarkFile(*bench)
	if err != nil {
		return err
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-26s %-7s %29s %29s %8s %6s  %s\n",
		"workload", "metric", "unit", "old median [q1 q3] (n)", "new median [q1 q3] (n)", "change", "bound", "verdict")
	for _, wl := range b.Workloads {
		o, n := old[wl.Name], cur[wl.Name]
		if len(o) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-15s (no runs on one side)\n", wl.Name)
			continue
		}
		for _, m := range b.EndToEnd {
			ov, nv := metricValues(o, m.Name), metricValues(n, m.Name)
			row := compareMetric(ov, nv, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-15s %-26s %-7s %29s %29s %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, describe(ov), describe(nv), 100*row.change, 100*m.Bound, row.verdict)
		}
	}
	return nil
}

func metricValues(rs []*report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		for _, f := range r.EndToEnd {
			if f.Name == name {
				out = append(out, f.Value)
			}
		}
	}
	return out
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", med, q1, q3, len(xs))
}

type comparison struct {
	change  float64 // relative median change, positive when worse
	verdict string
}

// compareMetric applies the verdict rules of compareMain to one metric.
func compareMetric(old, cur []float64, higherBetter bool, bound float64) comparison {
	if len(old) == 0 || len(cur) == 0 {
		return comparison{verdict: "missing"}
	}
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(cur)
	// better(a, b): a reads better than b.
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	var change float64
	if omed != 0 {
		change = (nmed - omed) / math.Abs(omed)
		if higherBetter {
			change = -change
		}
	}
	c := comparison{change: change}
	oLo, oHi := extremes(old)
	nLo, nHi := extremes(cur)
	worstNew, bestOld := nHi, oLo
	if higherBetter {
		worstNew, bestOld = nLo, oHi
	}
	allBetter := better(worstNew, bestOld)
	spread := math.Max(relSpread(oq1, omed, oq3), relSpread(nq1, nmed, nq3))
	wins, pairs := 0, min(len(old), len(cur))
	for i := 0; i < pairs; i++ {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	switch {
	case allBetter:
		c.verdict = "better"
	case spread > bound:
		c.verdict = "unresolved"
	case 10*wins >= 9*pairs && better(nmed, omed) && math.Abs(nmed-omed) > oq3-oq1:
		c.verdict = "better"
	case change > bound:
		c.verdict = "worse"
	default:
		c.verdict = "unchanged"
	}
	return c
}

func extremes(xs []float64) (lo, hi float64) {
	s := sorted(xs)
	return s[0], s[len(s)-1]
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// quartiles returns the first quartile, median and third quartile of
// xs by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method); the median is the ordinary one.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		ld := len(s)
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), median(s), q(3)
}
