package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs/ops"
	"meecc/internal/serve"
)

const (
	// serveFill is how many specs the untimed fill phase commits to the
	// journal; the measured phase resubmits them as its memoized runs.
	serveFill = 6
	// serveFillRuns is how many runs the fill phase serves: each fill spec
	// once, then resubmissions.
	serveFillRuns = 100
	// serveSlots is how many runs the server executes at once, each with
	// one trial worker: at most two trials at once.
	serveSlots = 2
)

// serveSpec is one small paired channel spec of the serve-mixed workload:
// kind "fill" specs are committed before measuring, kind "exec" specs are
// new to the server when submitted.
func serveSpec(seed uint64, kind string, k int, tiny bool) *exp.Spec {
	windows, phases, bits := []string{"10000", "15000", "20000"}, []string{"0.6", "0.7"}, "128"
	if tiny {
		windows, phases, bits = []string{"15000"}, []string{"0.65"}, "32"
	}
	return &exp.Spec{
		Name: fmt.Sprintf("serve-mixed/%s-%d", kind, k), Study: "channel",
		BaseSeed: exp.TrialSeed(seed, "serve-mixed/"+kind, k), Trials: 1,
		Params:     map[string]string{"bits": bits, "pattern": "random"},
		Axes:       []exp.Axis{{Name: "window", Values: windows}, {Name: "probephase", Values: phases}},
		SharedAxes: []string{"window", "probephase"},
	}
}

func specTrials(s *exp.Spec) int { return len(s.Cells()) * s.Trials }

// rig is an in-process serve.Server on a loopback listener.
type rig struct {
	srv    *serve.Server
	ops    *ops.Registry // the server's own /metrics registry
	hs     *http.Server
	served chan error
	base   string
	http   *http.Client
}

// startRig opens the server (replaying its journal) with a registry of its
// own and returns once /readyz answers 200.
func startRig(cfg serve.Config) (*rig, error) {
	cfg.Ops = ops.NewRegistry()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &rig{
		srv:    srv,
		ops:    cfg.Ops,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := r.http.Get(r.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if time.Now().After(deadline) {
			r.stop()
			return nil, fmt.Errorf("serve: /readyz not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server, closes the listener and waits for both.
func (r *rig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if herr := r.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-r.served
	r.http.CloseIdleConnections()
	return err
}

// fsyncMS is the mean journal fsync time the server recorded, in ms; the
// server syncs its journal once, at shutdown, so after stop it is that
// fsync's duration.
func (r *rig) fsyncMS() float64 {
	h := r.ops.Histogram("meecc_journal_fsync_seconds", "", nil)
	return 1000 * h.Sum() / float64(max(h.Count(), 1))
}

func (r *rig) client() *serve.Client { return &serve.Client{BaseURL: r.base, HTTP: r.http} }

func (r *rig) scrape() (*ops.Scrape, error) {
	resp, err := r.http.Get(r.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return ops.ParseText(resp.Body)
}

// opResult is one client operation: submit, follow to the terminal event,
// fetch the artifact.
type opResult struct {
	lat      time.Duration
	ev       serve.Event
	artifact []byte
}

func runOp(c *serve.Client, spec []byte, id, track string, t *tracer) (opResult, error) {
	var r opResult
	start := time.Now()
	defer t.span(id, track, spanServeRun, start)
	info, err := c.Submit(spec)
	t.span(id, track, spanSubmit, start)
	if err != nil {
		return r, err
	}
	at := time.Now()
	r.ev, err = c.Follow(info, 0, func(serve.Event) {})
	t.span(id, track, spanFollow, at)
	if err != nil {
		return r, err
	}
	if r.ev.Type != "done" {
		return r, fmt.Errorf("run %s ended %s: %s", info.ID, r.ev.Type, r.ev.Error)
	}
	at = time.Now()
	r.artifact, err = c.Artifact(info)
	t.span(id, track, spanFetch, at)
	r.lat = time.Since(start)
	return r, err
}

// serveRun is one process's run of the serve-mixed workload.
type serveRun struct {
	o      options
	out    *outcome
	fill   [][]byte // canonical JSON of the fill specs
	trials int      // trials per spec

	mu       sync.Mutex
	execs    []*exp.Spec // every exec spec submitted, by index
	nextExec atomic.Int64

	setups, fsyncs []float64 // set-up times, s; shutdown fsync times, ms
}

// setup runs one window of set-ups, each a server opened on a copy of the
// filled journal until /readyz answers 200, after a GC so earlier garbage
// stays out of it. Each server is then shut down, which syncs its journal
// and gives an fsync sample.
func (sr *serveRun) setup(cfg serve.Config) error {
	for t0, n := time.Now(), 0; setupDue(sr.o, n, time.Since(t0)); n++ {
		runtime.GC()
		start := time.Now()
		r, err := startRig(cfg)
		if err != nil {
			return err
		}
		sr.setups = append(sr.setups, time.Since(start).Seconds())
		if err := r.stop(); err != nil {
			return err
		}
		sr.fsyncs = append(sr.fsyncs, r.fsyncMS())
	}
	return nil
}

type servePhase struct {
	exec, memo []time.Duration
	// An op is one served run. It fails, as `meecc submit` does, when it
	// errors, is refused, or ends other than done. Failed trials of a done
	// run are data in its artifact: with shared axes all of a run's trials
	// share one simulated machine, and on about one machine in 200 the
	// attack's monitor discovery finds no monitor.
	ops, failedOps int
	execFailures   int // failed trials of exec runs
	wall           time.Duration
	cpu            float64 // CPU-seconds the process used
}

// phase runs two closed-loop clients until d has passed. Each round of a
// client submits a spec new to the server, then resubmits a fill spec; a
// client stops only at a round boundary, so half the runs are memoized.
func (sr *serveRun) phase(r *rig, d time.Duration, t *tracer) (servePhase, error) {
	var ph servePhase
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0, err := cpuSeconds()
	if err != nil {
		return ph, err
	}
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := r.client()
			track := fmt.Sprintf("client-%d", c)
			for round := 0; round == 0 || time.Since(start) < d; round++ {
				k := int(sr.nextExec.Add(1) - 1)
				spec := serveSpec(sr.o.seed, "exec", k, sr.o.tiny)
				raw, err := json.Marshal(spec)
				if err != nil {
					panic(err) // a generated spec always marshals
				}
				sr.mu.Lock()
				for len(sr.execs) <= k {
					sr.execs = append(sr.execs, nil)
				}
				sr.execs[k] = spec
				sr.mu.Unlock()
				execRes, execErr := runOp(cl, raw, spec.Name, track, t)
				fill := fmt.Sprintf("serve-mixed/fill-%d", k%len(sr.fill))
				memoRes, memoErr := runOp(cl, sr.fill[k%len(sr.fill)], fill, track, t)

				mu.Lock()
				ph.ops += 2
				sr.record(&ph, spec.Name, execRes, execErr, false)
				sr.record(&ph, fill, memoRes, memoErr, true)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	cpu1, err := cpuSeconds()
	if err != nil {
		return ph, err
	}
	ph.cpu = cpu1 - cpu0
	sr.out.attempted += ph.ops
	sr.out.failed += ph.failedOps
	return ph, nil
}

// record checks one finished operation. A memoized run must replay every
// trial from the memo and an exec run must execute every trial, and the
// artifact must match every other copy of the same spec's artifact.
func (sr *serveRun) record(ph *servePhase, name string, r opResult, err error, memo bool) {
	if err != nil {
		ph.failedOps++
		logf("serve-mixed: %s: %v", name, err)
		return
	}
	if memo {
		ph.memo = append(ph.memo, r.lat)
		sr.out.check(r.ev.RunExecuted == 0 && r.ev.RunMemoized == int64(sr.trials),
			"%s: resubmission executed %d and replayed %d trials, want 0 and %d", name, r.ev.RunExecuted, r.ev.RunMemoized, sr.trials)
	} else {
		ph.exec = append(ph.exec, r.lat)
		ph.execFailures += r.ev.Failures
		sr.out.check(r.ev.RunExecuted == int64(sr.trials),
			"%s: new spec executed %d of %d trials", name, r.ev.RunExecuted, sr.trials)
	}
	sr.mu.Lock()
	sr.out.checkDigest(name, r.artifact)
	sr.mu.Unlock()
}

// localArtifact runs a spec through exp.Run in this process, as `meecc
// batch` would, and returns its artifact bytes.
func localArtifact(spec *exp.Spec) ([]byte, *exp.Report, error) {
	runner, err := exp.RunnerFor(spec.Study)
	if err != nil {
		return nil, nil, err
	}
	rep, err := exp.Run(spec, runner, exp.Config{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	art, err := exp.MarshalArtifact(rep.Artifact())
	return art, rep, err
}

// diffQuantile estimates a histogram family's q-quantile over the
// observations made between two scrapes.
func diffQuantile(before, after *ops.Scrape, family string, q float64) float64 {
	key := func(s ops.Sample) string {
		parts := make([]string, 0, len(s.Labels))
		for k, v := range s.Labels {
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	prev := map[string]float64{}
	for _, s := range before.Samples[family+"_bucket"] {
		prev[key(s)] = s.Value
	}
	d := &ops.Scrape{Samples: map[string][]ops.Sample{}}
	for _, s := range after.Samples[family+"_bucket"] {
		s.Value -= prev[key(s)]
		d.Samples[family+"_bucket"] = append(d.Samples[family+"_bucket"], s)
	}
	return d.Quantile(family, q)
}

func runServe(o options) (*outcome, error) {
	out := newOutcome()
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sr := &serveRun{o: o, out: out}

	// Untimed fill: run the fill specs locally for reference artifacts and
	// the sim metrics, then commit them through a server to the journal.
	var sim simStats
	var fillSpecs []*exp.Spec
	for k := 0; k < serveFill; k++ {
		spec := serveSpec(o.seed, "fill", k, o.tiny)
		raw, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		art, rep, err := localArtifact(spec)
		if err != nil {
			return nil, err
		}
		out.checkDigest(spec.Name, art)
		sim.add(rep, out)
		sr.fill = append(sr.fill, raw)
		fillSpecs = append(fillSpecs, spec)
	}
	sr.trials = specTrials(fillSpecs[0])
	var tracing atomic.Pointer[tracer]
	cfg := serve.Config{
		Workers:       1,
		MaxConcurrent: serveSlots,
		JournalPath:   filepath.Join(dir, "journal"),
		StoreDir:      filepath.Join(dir, "store"),
		StoreMaxBytes: 256 << 20,
		// Four resident warm states (~45 MB each) keep the process small;
		// evicted ones spill to the snapstore.
		WarmCapacity: 4,
	}
	if o.trace == 1 {
		cfg.RunnerFactory = func(study string, warm *core.WarmCache) (exp.Runner, error) {
			if t := tracing.Load(); t != nil {
				return tracedRunner(study, warm, t)
			}
			return exp.RunnerWithWarmCache(study, warm)
		}
	}
	fillRig, err := startRig(cfg)
	if err != nil {
		return nil, err
	}
	// Each fill spec runs once and is then resubmitted, so the journal the
	// set-up replays holds the history of many served runs, not a handful.
	for i := 0; i < serveFillRuns; i++ {
		k := i % len(sr.fill)
		r, err := runOp(fillRig.client(), sr.fill[k], fillSpecs[k].Name, "fill", nil)
		if err != nil {
			fillRig.stop()
			return nil, fmt.Errorf("fill run %d: %w", i, err)
		}
		out.checkDigest(fillSpecs[k].Name, r.artifact)
	}
	if err := fillRig.stop(); err != nil {
		return nil, err
	}
	// Set-up servers replay a copy of the filled journal, with a store of
	// their own, so the measured server below opens the original. A window
	// of set-ups runs before the measured phase and another after it.
	filled, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	setupCfg := cfg
	setupCfg.JournalPath = filepath.Join(dir, "setup-journal")
	setupCfg.StoreDir = filepath.Join(dir, "setup-store")
	if err := os.WriteFile(setupCfg.JournalPath, filled, 0o644); err != nil {
		return nil, err
	}
	if err := sr.setup(setupCfg); err != nil {
		return nil, err
	}
	r, err := startRig(cfg)
	if err != nil {
		return nil, err
	}
	seconds := time.Duration(o.seconds * float64(time.Second))
	m := out.metrics

	if o.trace == 0 {
		before := r.srv.Stats()
		rs := sampleRSS()
		ph, err := sr.phase(r, seconds, nil)
		after := r.srv.Stats()
		rss, rerr := rs.p90()
		if err == nil {
			err = rerr
		}
		if err != nil {
			r.stop()
			return nil, err
		}
		if err := sr.setup(setupCfg); err != nil {
			r.stop()
			return nil, err
		}
		m["setup_s"] = median(sr.setups)
		m["trials_per_cpu_s"] = perCPU(int(after.TrialsExecuted-before.TrialsExecuted)-ph.execFailures, ph.cpu)
		m["rss_p90_mb"] = rss
		logf("serve-mixed: %d exec runs, %d memo runs in %s", len(ph.exec), len(ph.memo), ph.wall.Round(time.Millisecond))
	} else {
		before := readRuntime()
		s0 := r.srv.Stats()
		plain, err := sr.phase(r, seconds/2, nil)
		if err != nil {
			r.stop()
			return nil, err
		}
		s1 := r.srv.Stats()
		runtimeMetrics(m, before, readRuntime(), int(s1.TrialsExecuted-s0.TrialsExecuted))

		t := newTracer()
		tracing.Store(t)
		sc0, err := r.scrape()
		if err != nil {
			r.stop()
			return nil, err
		}
		traced, err := sr.phase(r, seconds/2, t)
		if err != nil {
			r.stop()
			return nil, err
		}
		s2 := r.srv.Stats()
		sc1, err := r.scrape()
		if err != nil {
			r.stop()
			return nil, err
		}
		tracing.Store(nil)

		executed := int(s2.TrialsExecuted - s1.TrialsExecuted)
		memoized := int(s2.TrialsMemoized - s1.TrialsMemoized)
		spans := t.rec.Spans("")
		out.check(t.rec.Dropped() == 0, "span ring overflowed (%d dropped)", t.rec.Dropped())
		st := summarizeSpans(spans)
		layerMetrics(m, st, executed, serveSlots, traced.wall)
		m["trace_overhead_share"] = overheadShare(perCPU(executed, traced.cpu), perCPU(int(s1.TrialsExecuted-s0.TrialsExecuted), plain.cpu))
		m["host.cpu_share"] = plain.cpu / plain.wall.Seconds()
		m["exp.trials"] = float64(executed)
		m["exp.trials_failed"] = float64(traced.execFailures)
		warmMetrics(m, st, core.WarmCacheStats{
			Computes:  s2.Warm.Computes - s1.Warm.Computes,
			DiskLoads: s2.Warm.DiskLoads - s1.Warm.DiskLoads,
		}, len(traced.exec))
		m["serve.submit_ms.p50"] = st.p(spanSubmit, 0.5)
		m["serve.follow_ms.p50"] = st.p(spanFollow, 0.5)
		m["serve.artifact_ms.p50"] = st.p(spanFetch, 0.5)
		m["serve.exec_run_p50_ms"] = percentile(msAll(traced.exec), 0.5)
		m["serve.exec_run_p90_ms"] = percentile(msAll(traced.exec), 0.9)
		m["serve.memo_run_p50_ms"] = percentile(msAll(traced.memo), 0.5)
		m["serve.memo_run_p90_ms"] = percentile(msAll(traced.memo), 0.9)
		m["serve.memo_hit_ratio"] = float64(memoized) / float64(max(memoized+executed, 1))
		m["serve.rejected"] = float64(s2.RejectedOverload - s1.RejectedOverload)
		m["serve.self_ms_per_run"] = st.selfMS("serve.") / float64(max(traced.ops, 1))
		m["serve.queue_wait_ms.p50"] = 1000 * diffQuantile(sc0, sc1, "meecc_serve_queue_wait_seconds", 0.5)
		m["journal.append_ms.p50"] = 1000 * diffQuantile(sc0, sc1, "meecc_journal_append_seconds", 0.5)
		m["journal.append_ms.p99"] = 1000 * diffQuantile(sc0, sc1, "meecc_journal_append_seconds", 0.99)
		m["journal.bytes"] = float64(len(filled))
		sim.fill(m)
		if err := probeLayers(m, o.seed, o.tiny); err != nil {
			r.stop()
			return nil, err
		}
		if err := writeTrace(o.traceOut, spans); err != nil {
			out.check(false, "%v", err)
		}
		logf("serve-mixed: traced phase %d exec runs, %d memo runs in %s", len(traced.exec), len(traced.memo), traced.wall.Round(time.Millisecond))
	}
	if err := r.stop(); err != nil {
		return nil, err
	}
	if o.trace == 1 {
		fsyncs := append(sr.fsyncs, r.fsyncMS())
		m["journal.fsync_ms.p50"] = percentile(fsyncs, 0.5)
		m["journal.fsync_ms.p99"] = percentile(fsyncs, 0.99)
	}

	// Every served artifact of a new spec must match a local exp.Run.
	for _, spec := range sr.execs {
		if spec == nil {
			continue
		}
		art, _, err := localArtifact(spec)
		if err != nil {
			return nil, err
		}
		out.checkDigest(spec.Name, art)
	}
	return out, nil
}
