package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/conc"
	"repro/internal/server"
)

// env is a set-up workload: its inputs and, for the daemon workloads,
// the running daemon and the request sequence.
type env struct {
	ins []*input
	d   *daemon
	// order is the daemon workloads' request sequence: the input each
	// request sends.
	order []int
	// dir holds files written for this set-up, removed by close.
	dir string
}

// stopDaemon stops the daemon, if one runs.
func (e *env) stopDaemon() error {
	if e.d == nil {
		return nil
	}
	err := e.d.stop()
	e.d = nil
	return err
}

// close stops the daemon and removes the set-up's files.
func (e *env) close() error {
	err := e.stopDaemon()
	if e.dir != "" {
		if rmErr := os.RemoveAll(e.dir); err == nil {
			err = rmErr
		}
		e.dir = ""
	}
	return err
}

// workload is one of the benchmark's seeded request mixes.
type workload struct {
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median. Long-trace sets up once: its set-up is one
	// CPU-bound job about as long as the measured phase (it computes a
	// reference design for every body the phase may send).
	setupReps int
	setup     func(ctx context.Context, cfg config, sz sizes) (*env, error)
	measure   func(ctx context.Context, e *env, clock *quietClock) []sample
	// replay runs one request of the measured sequence again, straight
	// through the layers' public functions.
	replay func(ctx context.Context, r *replayer, req int, in *input) error
	// jobTime is a request's time inside the program's job: the whole
	// Design call, or the daemon's reported job time.
	jobTime func(s *sample) time.Duration
}

var workloads = map[string]workload{
	"paper-suite": {
		setupReps: 3,
		setup: func(ctx context.Context, cfg config, sz sizes) (*env, error) {
			ins, err := paperSuiteInputs(ctx, cfg.seed, sz)
			return &env{ins: ins}, err
		},
		measure: func(ctx context.Context, e *env, clock *quietClock) []sample {
			return paperSuiteLoop(ctx, e.ins, clock)
		},
		replay:  replayPaper,
		jobTime: func(s *sample) time.Duration { return s.done - s.sent },
	},
	"service-repeat": {
		setupReps: 3,
		setup:     setupServiceRepeat,
		measure:   closedLoopPosts,
		replay:    replayTrace,
		jobTime:   func(s *sample) time.Duration { return time.Duration(s.elapsedNS) },
	},
	"long-trace": {
		setupReps: 1,
		setup:     setupLongTrace,
		measure:   closedLoopPosts,
		replay:    replayTrace,
		jobTime:   func(s *sample) time.Duration { return time.Duration(s.elapsedNS) },
	},
}

// daemonConfig is the in-process daemon of both service workloads: one
// job per core, each solving serially, so requests and solver workers
// together never exceed the core count.
func daemonConfig(build string, sz sizes) (server.Config, error) {
	spool := filepath.Join(build, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Concurrency:    runtime.NumCPU(),
		Workers:        1,
		Shards:         runtime.NumCPU(),
		SpoolDir:       spool,
		SpoolThreshold: sz.spoolAt,
		DrainTimeout:   5 * time.Second,
	}, nil
}

// warmUp posts in and requires a successful reply.
func warmUp(ctx context.Context, d *daemon, in *input) error {
	var s sample
	d.post(ctx, in, time.Now(), &s)
	if s.status != http.StatusOK || s.err != "" {
		return fmt.Errorf("warm-up request %s: status %d %s", in.name, s.status, s.err)
	}
	return nil
}

// setupServiceRepeat draws the request sequence, builds the working set
// and its edits, starts the daemon and replays yesterday's traffic: one
// POST of every working-set body, so repeats find the cache warm. The
// sequence holds sz.repeatRate requests per second of the phase limit;
// a run that sends them all ends its measured phase there.
func setupServiceRepeat(ctx context.Context, cfg config, sz sizes) (*env, error) {
	n := int(sz.repeatRate * phaseLimit(cfg.seconds).Seconds())
	order, edits := repeatPlan(cfg.seed, n, sz.perturbShare, 2*len(sz.apps))
	base, edited, err := serviceRepeatInputs(ctx, cfg.seed, sz, edits)
	if err != nil {
		return nil, err
	}
	scfg, err := daemonConfig(cfg.build, sz)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, scfg)
	if err != nil {
		return nil, err
	}
	e := &env{ins: append(base, edited...), d: d, order: order}
	for _, in := range base {
		if err := warmUp(ctx, d, in); err != nil {
			e.close() //nolint:errcheck // already failing
			return nil, err
		}
	}
	// A long-running daemon keeps its last finished jobs (512 by
	// default) pollable, and they hold most of its heap. Repeat the
	// working set until that history is full, so the measured phase sees
	// the steady-state heap instead of one still growing.
	err = conc.ForEach(ctx, historyFill, runtime.NumCPU(), func(ctx context.Context, i int) error {
		return warmUp(ctx, d, base[i%len(base)])
	})
	if err != nil {
		e.close() //nolint:errcheck // already failing
		return nil, err
	}
	return e, nil
}

// historyFill is how many repeats fill the daemon's default job history.
const historyFill = 600

// phaseLimit bounds a measured phase of the given seconds: it may run
// twice as long to gather its quiet slices (see quietClock).
func phaseLimit(seconds float64) time.Duration {
	return time.Duration(2 * seconds * float64(time.Second))
}

// setupLongTrace writes the pool of distinct long traces, starts the
// daemon and sends one extra long trace through the spool path.
func setupLongTrace(ctx context.Context, cfg config, sz sizes) (*env, error) {
	dir := filepath.Join(cfg.build, fmt.Sprintf("long-%d", os.Getpid()))
	sz.longPool++
	ins, err := longTraceInputs(ctx, cfg.seed, sz, dir)
	e := &env{dir: dir}
	if err != nil {
		e.close() //nolint:errcheck // already failing
		return nil, err
	}
	scfg, err := daemonConfig(cfg.build, sz)
	if err == nil {
		e.d, err = startDaemon(ctx, scfg)
	}
	if err == nil {
		err = warmUp(ctx, e.d, ins[len(ins)-1])
	}
	if err != nil {
		e.close() //nolint:errcheck // already failing
		return nil, err
	}
	e.ins = ins[:len(ins)-1]
	for i := range e.ins {
		e.order = append(e.order, i)
	}
	return e, nil
}

// run sets the workload up (several times, keeping the last),
// measures it, checks every result and, with cfg.trace, replays the
// measured sequence under tracing.
func run(ctx context.Context, cfg config) (*report, error) {
	w := workloads[cfg.workload]
	sz := fullSizes(cfg.seconds)
	if cfg.tiny {
		sz = tinySizes()
	}
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		return nil, err
	}
	var e *env
	var setups []float64
	for rep := 0; rep < w.setupReps; rep++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		e, err = w.setup(ctx, cfg, sz)
		if err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close() //nolint:errcheck // the measured results are already in

	runtime.GC()
	heap := startHeapSampler(10*time.Millisecond, time.Duration(cfg.seconds*float64(time.Second)))
	host0 := readHostClock()
	clock := startQuietClock(cfg.seconds, phaseLimit(cfg.seconds))
	samples := w.measure(ctx, e, clock)
	win := clock.finish()
	steal, cpu := readHostClock().since(host0)
	peak := heap.finish()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no request completed")
	}

	failed, why, err := verify(ctx, e.ins, samples)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload:       cfg.workload,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Traced:         cfg.trace,
		Correct:        failed == 0,
		Attempted:      len(samples),
		Failed:         failed,
		Failures:       why,
		Provenance:     currentProvenance("."),
		WallSeconds:    win.wall.Seconds(),
		CountedSeconds: win.length.Seconds(),
		CountedSteal:   win.steal,
		StealShare:     steal,
		CPUSeconds:     cpu.Seconds(),
	}
	// Timings come from the requests that started in the counted
	// slices; correctness and design quality from every request.
	var lat []float64
	counted := 0
	for i := range samples {
		if !win.counts(samples[i].sent) {
			continue
		}
		if samples[i].err != "" {
			lat = append(lat, math.Inf(1)) // a failed request misses every latency limit
			continue
		}
		counted++
		lat = append(lat, ms(samples[i].latency()))
	}
	e2e := newFigures(endToEndSpecs)
	n := len(lat)
	e2e.set("latency_p50_ms", median(lat), n, "median request latency")
	tv, pct := tail(lat)
	e2e.set("latency_tail_ms", tv, n, fmt.Sprintf("p%g, the highest of p%v with 10 samples beyond it", pct, tailLadder))
	e2e.set("throughput_rps", float64(counted)/win.length.Seconds(), n,
		fmt.Sprintf("correct responses over %.3f counted s", win.length.Seconds()))
	e2e.set("correct_share", float64(len(samples)-failed)/float64(len(samples)), len(samples), "1 - failed_share")
	e2e.set("setup_s", median(setups), len(setups), "median of the set-ups")
	e2e.set("peak_heap_mb", peak, 0, "highest live heap after a GC, sampled every 10 ms over the first --seconds")
	e2e.set("buses_total", busesTotal(e.ins, samples), 0, "median bus count per application and direction, summed")
	pkt, pktNote, err := packetLatency(ctx, cfg.workload, e.ins, samples)
	if err != nil {
		return nil, err
	}
	e2e.set("packet_latency_avg_cycles", pkt, 0, pktNote)
	rep.EndToEnd = e2e.list()

	if cfg.trace {
		layers := newFigures(perLayerSpecs)
		serverFigures(layers, samples)
		// The daemon's cache holds an analysis per stored design; free it
		// before the replay builds its own.
		if err := e.stopDaemon(); err != nil {
			return nil, err
		}
		if err := replayRun(ctx, cfg, w, e, samples, layers); err != nil {
			return nil, err
		}
		rep.PerLayer = layers.list()
	}
	return rep, nil
}

// packetLatency is the pooled phase-4 packet latency of the designs the
// run returned.
func packetLatency(ctx context.Context, workload string, ins []*input, samples []sample) (float64, string, error) {
	if workload != "paper-suite" {
		v, err := validatedPacketLatency(ctx, ins, samples)
		return v, "phase-4 simulation of each application on the returned design pair", err
	}
	seen := map[int]bool{}
	var n int64
	var sum float64
	for _, s := range samples {
		if s.err != "" || seen[s.in] {
			continue
		}
		seen[s.in] = true
		n += s.packets
		sum += s.packetSum
	}
	if n == 0 {
		return 0, "", nil
	}
	return sum / float64(n), "Designer.Design phase-4 validation, pooled over applications", nil
}

// serverFigures derives the daemon figures from the untraced run's
// replies.
func serverFigures(f *figures, samples []sample) {
	var queue, job, outside []float64
	hits, rejected, replies := 0, 0, 0
	for i := range samples {
		s := &samples[i]
		if s.status == 0 {
			continue
		}
		replies++
		if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
			rejected++
		}
		if s.cached {
			hits++
		}
		if s.elapsedNS > 0 {
			q, j := time.Duration(s.queueNS), time.Duration(s.elapsedNS)
			queue = append(queue, ms(q))
			job = append(job, ms(j))
			outside = append(outside, ms(s.done-s.sent-q-j))
		}
	}
	f.set("server.queue_wait_p50_ms", median(queue), len(queue), "daemon queue_ns")
	f.set("server.job_p50_ms", median(job), len(job), "daemon elapsed_ns")
	f.set("server.outside_job_p50_ms", median(outside), len(outside), "client latency from send minus queue and job time")
	if replies > 0 {
		f.set("server.hit_share", float64(hits)/float64(replies), replies, "replies with cached set")
		f.set("server.rejected_share", float64(rejected)/float64(replies), replies, "429 and 503 replies")
	}
}
