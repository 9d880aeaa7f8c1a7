package stbusgen_test

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// sseKinds streams one /events subscription, tallying the flight-event
// kinds seen, until the server says bye or the stream ends. Counts are
// read through the mutex so the main goroutine can poll mid-stream.
type sseKinds struct {
	mu     sync.Mutex
	kinds  map[string]int
	frames int
	bye    bool
}

func (s *sseKinds) count(kind string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kinds[kind]
}

var kindRe = regexp.MustCompile(`"kind":"([a-z_]+)"`)

func (s *sseKinds) consume(t *testing.T, body io.Reader) {
	br := bufio.NewReader(body)
	var event string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "bye" {
				s.mu.Lock()
				s.bye = true
				s.mu.Unlock()
				return
			}
		case strings.HasPrefix(line, "data: ") && event == "flight":
			s.mu.Lock()
			s.frames++
			if m := kindRe.FindStringSubmatch(line); m != nil {
				s.kinds[m[1]]++
			}
			s.mu.Unlock()
		}
	}
}

// perturbedAnalysis16 is a 16-receiver instance hard enough to drive
// real search traffic — node batches, incumbent improvements and
// portfolio races — through the telemetry path in about 100ms.
func perturbedAnalysis16(t *testing.T) *trace.Analysis {
	t.Helper()
	tr := benchprobs.PerturbTrace(benchprobs.TraceN(16), 0.3, 1)
	a, err := trace.AnalyzeCtx(context.Background(), tr, benchprobs.AnalysisWindow)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestTelemetryLiveStream is the end-to-end acceptance test of the
// observability PR: a 128-target portfolio solve (plus a perturbed
// 16-receiver solve that forces node-batch traffic) streams live
// incumbent, node and race events over /events to two concurrent SSE
// subscribers while /metrics serves valid Prometheus exposition.
func TestTelemetryLiveStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full solves in -short mode")
	}
	rec := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	bus := obs.NewBus()
	rec.AttachBus(bus)
	bound, _, shutdown, err := obs.ServeTelemetry("127.0.0.1:0", obs.TelemetryConfig{Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck

	subs := [2]*sseKinds{{kinds: map[string]int{}}, {kinds: map[string]int{}}}
	var wg sync.WaitGroup
	for _, s := range subs {
		resp, err := http.Get("http://" + bound + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("/events content type = %q", ct)
		}
		wg.Add(1)
		go func(s *sseKinds, body io.Reader) {
			defer wg.Done()
			s.consume(t, body)
		}(s, resp.Body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for bus.Subscribers() < len(subs) {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscribers never attached")
		}
		time.Sleep(time.Millisecond)
	}

	ctx := obs.WithFlightRecorder(context.Background(), rec)
	opts := core.DefaultOptions()
	opts.Engine = core.EnginePortfolio
	opts.Workers = 4

	d, err := core.DesignCrossbarCtx(ctx, benchprobs.Analysis128(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 43 || d.MaxBusOverlap != 0 {
		t.Fatalf("128-target solve: %d buses, objective %d (want 43, 0)", d.NumBuses, d.MaxBusOverlap)
	}
	if _, err := core.DesignCrossbarCtx(ctx, perturbedAnalysis16(t), opts); err != nil {
		t.Fatal(err)
	}

	// Scrape /metrics while the stream is still open.
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"# TYPE stbusgen_", "stbusgen_flight_events_total"} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("/metrics exposition missing %q", want)
		}
	}

	// Both solves are done: wait for their frames to drain to both
	// subscribers before closing the bus, then assert coverage.
	deadline = time.Now().Add(10 * time.Second)
	for _, s := range subs {
		for s.count("design_done") < 2 {
			if time.Now().After(deadline) {
				t.Fatal("design_done frames never reached a subscriber")
			}
			time.Sleep(time.Millisecond)
		}
	}
	bus.Close()
	wg.Wait()

	for i, s := range subs {
		s.mu.Lock()
		for _, kind := range []string{"design_start", "incumbent", "nodes", "race_start", "race_win", "design_done"} {
			if s.kinds[kind] == 0 {
				t.Errorf("subscriber %d saw no %s events (kinds: %v)", i, kind, s.kinds)
			}
		}
		if !s.bye {
			t.Errorf("subscriber %d stream ended without a bye frame", i)
		}
		s.mu.Unlock()
	}
	if subs[0].frames != subs[1].frames {
		t.Logf("subscribers saw %d and %d flight frames (drops are legal under backpressure)",
			subs[0].frames, subs[1].frames)
	}
}

// TestPrometheusScrapeDuringSolve scrapes /metrics concurrently with a
// live solve and checks every response is well-formed exposition — the
// handler must never serve a torn snapshot.
func TestPrometheusScrapeDuringSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("full solve in -short mode")
	}
	bound, _, shutdown, err := obs.ServeTelemetry("127.0.0.1:0", obs.TelemetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck

	a := perturbedAnalysis16(t)
	solveDone := make(chan error, 1)
	go func() {
		opts := core.DefaultOptions()
		opts.Engine = core.EnginePortfolio
		opts.Workers = 4
		_, err := core.DesignCrossbarCtx(context.Background(), a, opts)
		solveDone <- err
	}()

	countRe := regexp.MustCompile(`(?m)^stbusgen_([a-z_]+)_count (\d+)$`)
	bucketInfRe := regexp.MustCompile(`(?m)^stbusgen_([a-z_]+)_bucket\{le="\+Inf"\} (\d+)$`)
	scrapes := 0
	for {
		select {
		case err := <-solveDone:
			if err != nil {
				t.Fatal(err)
			}
			if scrapes == 0 {
				t.Fatal("solve finished before a single scrape completed")
			}
			t.Logf("%d concurrent scrapes validated", scrapes)
			return
		default:
		}
		resp, err := http.Get("http://" + bound + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: status %d", scrapes, resp.StatusCode)
		}
		// Per histogram, the +Inf bucket must equal _count within one
		// response: the snapshot the handler serves is self-consistent
		// even while observations pour in.
		counts := map[string]string{}
		for _, m := range countRe.FindAllStringSubmatch(string(body), -1) {
			counts[m[1]] = m[2]
		}
		for _, m := range bucketInfRe.FindAllStringSubmatch(string(body), -1) {
			if got, ok := counts[m[1]]; !ok || got != m[2] {
				t.Fatalf("scrape %d: histogram %s torn: +Inf bucket %s, _count %s", scrapes, m[1], m[2], got)
			}
		}
		scrapes++
	}
}
