package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	stbusgen "repro"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/server"
)

// sample is one request of the measured phase. Times are offsets from
// the start of the phase.
type sample struct {
	in   int // index into the workload's inputs
	sent time.Duration
	done time.Duration

	status    int // HTTP status; 200 for a successful library call
	queueNS   int64
	elapsedNS int64
	cached    bool
	warm      bool
	designs   []*core.Design
	packets   int64
	packetSum float64
	err       string
}

// latency is the request's end-to-end time: from when it was sent
// until its result was in hand.
func (s *sample) latency() time.Duration { return s.done - s.sent }

// daemon is an in-process stbusd (internal/server) on loopback.
type daemon struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startDaemon runs server.Run on 127.0.0.1 and waits until it answers.
func startDaemon(ctx context.Context, cfg server.Config) (*daemon, error) {
	ctx, cancel := context.WithCancel(ctx)
	cfg.Addr = "127.0.0.1:0"
	addr := make(chan net.Addr, 1)
	d := &daemon{cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- server.Run(ctx, cfg, func(a net.Addr) { addr <- a }) }()
	select {
	case a := <-addr:
		d.base = "http://" + a.String()
	case err := <-d.done:
		cancel()
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * runtime.NumCPU(),
		DisableCompression:  true,
	}}
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		d.stop() //nolint:errcheck // already failing
		return nil, fmt.Errorf("daemon health check: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
	resp.Body.Close()
	return d, nil
}

// stop drains and shuts the daemon down and waits for it to exit.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	d.client.CloseIdleConnections()
	return err
}

// jobWire is the part of the daemon's job JSON the benchmark reads.
type jobWire struct {
	Status    string      `json:"status"`
	Cached    string      `json:"cached"`
	Warm      bool        `json:"warm"`
	QueueNS   int64       `json:"queue_ns"`
	ElapsedNS int64       `json:"elapsed_ns"`
	Design    *designWire `json:"design"`
	Error     string      `json:"error"`
	Reason    string      `json:"reason"`
}

type designWire struct {
	NumBuses      int   `json:"num_buses"`
	BusOf         []int `json:"bus_of"`
	MaxBusOverlap int64 `json:"max_bus_overlap"`
	SearchNodes   int64 `json:"search_nodes"`
	Capped        bool  `json:"capped"`
}

// post sends one trace body to /v1/design and fills s from the reply.
// start is the phase's time origin; s.done is stamped once the response
// body has been read.
func (d *daemon) post(ctx context.Context, in *input, start time.Time, s *sample) {
	var body io.Reader
	if in.path != "" {
		f, err := os.Open(in.path)
		if err != nil {
			s.done, s.err = time.Since(start), err.Error()
			return
		}
		defer f.Close()
		body = f
	} else {
		body = bytes.NewReader(in.body)
	}
	url := fmt.Sprintf("%s/v1/design?window=%d", d.base, in.window)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		s.done, s.err = time.Since(start), err.Error()
		return
	}
	req.ContentLength = in.size
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := d.client.Do(req)
	if err != nil {
		s.done, s.err = time.Since(start), err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.status = resp.StatusCode
	if err != nil {
		s.err = err.Error()
		return
	}
	var job jobWire
	if err := json.Unmarshal(raw, &job); err != nil {
		s.err = fmt.Sprintf("decoding reply: %v", err)
		return
	}
	s.queueNS, s.elapsedNS = job.QueueNS, job.ElapsedNS
	s.cached, s.warm = job.Cached != "", job.Warm
	if job.Error != "" {
		s.err = job.Reason + ": " + job.Error
	}
	if w := job.Design; w != nil {
		s.designs = []*core.Design{{NumBuses: w.NumBuses, BusOf: w.BusOf,
			MaxBusOverlap: w.MaxBusOverlap, SearchNodes: w.SearchNodes, Capped: w.Capped}}
	}
}

// closedLoopPosts sends the inputs of e.order to e's daemon one after
// another while the clock wants more or until the order runs out.
func closedLoopPosts(ctx context.Context, e *env, clock *quietClock) []sample {
	var out []sample
	for i := 0; i < len(e.order) && clock.more(); i++ {
		s := sample{in: e.order[i]}
		s.sent = time.Since(clock.start)
		e.d.post(ctx, e.ins[s.in], clock.start, &s)
		out = append(out, s)
	}
	return out
}

// paperSuiteLoop runs Designer.Design over the applications in a fixed
// round robin, one call at a time, while the clock wants more.
func paperSuiteLoop(ctx context.Context, ins []*input, clock *quietClock) []sample {
	designer := stbusgen.NewDesigner(designOptions())
	var out []sample
	for i := 0; clock.more(); i++ {
		k := i % len(ins)
		s := sample{in: k}
		s.sent = time.Since(clock.start)
		res, err := designer.Design(ctx, ins[k].app)
		s.done = time.Since(clock.start)
		if err != nil {
			s.err = err.Error()
		} else {
			s.status = http.StatusOK
			s.designs = []*core.Design{res.Pair.Req, res.Pair.Resp}
			pkt := res.Validation.Latency.SummarizePacket()
			s.packets, s.packetSum = int64(pkt.Count), pkt.Avg*float64(pkt.Count)
		}
		out = append(out, s)
	}
	return out
}

// heapSampler records the highest live heap (as of the latest garbage
// collection) seen while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// startHeapSampler samples every `every` for at most `span`, so that
// phases that run longer on a busy host do not see more of a heap that
// grows with the requests served.
func startHeapSampler(every, span time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	read := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	sampleOnce := func() {
		metrics.Read(read)
		if v := read[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
			h.peak = v.Uint64()
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		end := time.After(span)
		for {
			sampleOnce()
			select {
			case <-h.stop:
				sampleOnce()
				return
			case <-end:
				<-h.stop
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// verify applies the correctness gate to every sample: a 2xx status, a
// design per direction, none capped, each matching its reference's bus
// count and maximum overlap, and each passing check.Audit against the
// benchmark's own analysis. It returns the number of failed samples and
// a description of the first few failures.
func verify(ctx context.Context, ins []*input, samples []sample) (failed int, why []string, err error) {
	audited := map[string]bool{}
	for i := range samples {
		s := &samples[i]
		msg, err := checkSample(ctx, ins[s.in], s, audited)
		if err != nil {
			return 0, nil, err
		}
		if msg == "" {
			continue
		}
		failed++
		s.err = msg
		if len(why) < 5 {
			why = append(why, fmt.Sprintf("%s: %s", ins[s.in].name, msg))
		}
	}
	return failed, why, nil
}

func checkSample(ctx context.Context, in *input, s *sample, audited map[string]bool) (string, error) {
	if s.status < 200 || s.status > 299 {
		return fmt.Sprintf("status %d %s", s.status, s.err), nil
	}
	if s.err != "" {
		return s.err, nil
	}
	if len(s.designs) != len(in.refs) {
		return fmt.Sprintf("%d designs for %d directions", len(s.designs), len(in.refs)), nil
	}
	opts := designOptions()
	for k, d := range s.designs {
		ref := in.refs[k]
		switch {
		case d == nil:
			return in.dirs[k] + ": no design", nil
		case d.Capped:
			return in.dirs[k] + ": capped design", nil
		case d.NumBuses != ref.NumBuses || d.MaxBusOverlap != ref.MaxBusOverlap:
			return fmt.Sprintf("%s: %d buses / overlap %d, reference %d / %d",
				in.dirs[k], d.NumBuses, d.MaxBusOverlap, ref.NumBuses, ref.MaxBusOverlap), nil
		}
		// check.Audit reads only NumBuses, BusOf and MaxBusOverlap, and
		// every reference passed it during set-up, so a design equal to
		// its reference passes too; other bindings are audited here.
		if slices.Equal(d.BusOf, ref.BusOf) {
			continue
		}
		key := fmt.Sprintf("%s/%d/%v", in.name, k, d.BusOf)
		ok, seen := audited[key]
		if !seen {
			as, err := analysesOf(ctx, in)
			if err != nil {
				return "", fmt.Errorf("re-deriving the analysis of %s: %w", in.name, err)
			}
			rep := check.Audit(d, as[k], opts)
			ok = rep.OK()
			audited[key] = ok
		}
		if !ok {
			return in.dirs[k] + ": design fails audit", nil
		}
	}
	return "", nil
}

// busesTotal is the design-quality figure: for every application and
// direction, the median bus count of the correct designs returned for
// it, summed. It does not depend on how many requests a run completed.
func busesTotal(ins []*input, samples []sample) float64 {
	byClass := map[string][]float64{}
	for _, s := range samples {
		if s.err != "" {
			continue
		}
		in := ins[s.in]
		for k, d := range s.designs {
			key := in.class + "/" + in.dirs[k]
			byClass[key] = append(byClass[key], float64(d.NumBuses))
		}
	}
	var total float64
	for _, buses := range byClass {
		total += median(buses)
	}
	return total
}

// validatedPacketLatency is the pooled mean packet latency, in cycles,
// of phase-4 simulations on the designs the daemon returned: for every
// application whose two directions both came back (unedited), the
// application is simulated on that design pair.
func validatedPacketLatency(ctx context.Context, ins []*input, samples []sample) (float64, error) {
	type pair struct{ req, resp *core.Design }
	pairs := map[*stbusgen.App]*pair{}
	var order []*stbusgen.App
	for _, s := range samples {
		in := ins[s.in]
		if s.err != "" || in.perturbed {
			continue
		}
		p := pairs[in.app]
		if p == nil {
			p = &pair{}
			pairs[in.app] = p
			order = append(order, in.app)
		}
		if in.dirs[0] == "req" && p.req == nil {
			p.req = s.designs[0]
		}
		if in.dirs[0] == "resp" && p.resp == nil {
			p.resp = s.designs[0]
		}
	}
	var n int64
	var sum float64
	for _, app := range order {
		p := pairs[app]
		if p.req == nil || p.resp == nil {
			continue
		}
		res, err := stbusgen.ValidateDesignCtx(ctx, app, &stbusgen.DesignPair{Req: p.req, Resp: p.resp})
		if err != nil {
			return 0, fmt.Errorf("validating the %s designs: %w", app.Name, err)
		}
		pkt := res.Latency.SummarizePacket()
		n += int64(pkt.Count)
		sum += pkt.Avg * float64(pkt.Count)
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// --- statistics ---

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at.
var tailLadder = []float64{50, 75, 90, 99, 99.9}

// tail returns the highest percentile of the ladder with at least ten
// of xs beyond it, and its value (nearest rank). A fixed ladder keeps
// the percentile the same from run to run while the sample count stays
// between two rungs.
func tail(xs []float64) (value, pct float64) {
	pct = tailLadder[0]
	for _, p := range tailLadder {
		if float64(len(xs))*(100-p)/100 >= 10 {
			pct = p
		}
	}
	return quantile(xs, pct/100), pct
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
