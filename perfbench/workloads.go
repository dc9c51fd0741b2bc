package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/platform"
	"meecc/internal/snapstore"
)

// workers is the batch workloads' trial concurrency. One worker keeps a
// run's speed steady on a shared two-CPU host: with two, trials contend
// for the second CPU with the Go runtime and with other tenants, and the
// same trials took from 2.7 to 3.6 s in back-to-back runs.
const workers = 1

// workload is one named input set and the loop that measures it.
type workload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{"grid-fresh", func(o options) (*outcome, error) { return runBatch(o, gridFreshJob) }},
	{"chaos-faulted", func(o options) (*outcome, error) { return runBatch(o, chaosFaultedJob) }},
	{"serve-mixed", runServe},
}

// A batch workload runs jobs 0, 1, 2, ... in a closed loop until its time is
// up. Job k is generated from the seed and k; it is one or more specs run
// back to back through exp.Run. Every job of a run is distinct, so a run's
// median samples many simulated machines rather than a few repeated ones.
type jobGen func(seed uint64, k int, tiny bool) []*exp.Spec

const (
	// setupJobs is how many jobs one set-up loads.
	setupJobs = 8
	// A run sets up in two windows, one before and one after the measured
	// phase, each at least setupMinReps times and for at least setupWindow,
	// and setup_s is the median of all of them: one set-up takes a few ms or
	// less, and the host's speed swings from second to second and drifts
	// over minutes.
	setupMinReps = 8
	setupWindow  = time.Second
	// simJobs is the fixed prefix of jobs the sim metrics are computed
	// over, so they repeat exactly for a seed.
	simJobs = 4
)

func paperWindows() []string {
	var ws []string
	for _, w := range core.PaperWindows() {
		ws = append(ws, strconv.FormatInt(int64(w), 10))
	}
	return ws
}

// gridFreshJob is figure regeneration in miniature: the Fig 7 window sweep
// then the Fig 8 noise grid, one trial per cell, no shared axes, so every
// trial boots and warms a fresh machine.
func gridFreshJob(seed uint64, k int, tiny bool) []*exp.Spec {
	windows, noise, bits7 := paperWindows(), []string{"none", "memory", "mee512", "mee4k"}, "256"
	if tiny {
		windows, noise, bits7 = []string{"10000", "15000"}, []string{"none", "mee512"}, "32"
	}
	return []*exp.Spec{{
		Name: fmt.Sprintf("grid-fresh/fig7-%d", k), Study: "channel",
		BaseSeed: exp.TrialSeed(seed, "grid-fresh/fig7", k), Trials: 1,
		Params: map[string]string{"bits": bits7, "pattern": "random"},
		Axes:   []exp.Axis{{Name: "window", Values: windows}},
	}, {
		Name: fmt.Sprintf("grid-fresh/fig8-%d", k), Study: "channel",
		BaseSeed: exp.TrialSeed(seed, "grid-fresh/fig8", k), Trials: 1,
		Params: map[string]string{"bits": "128", "pattern": "100", "window": "15000"},
		Axes:   []exp.Axis{{Name: "noise", Values: noise}},
	}}
}

// chaosFaultedJob is the chaos study: three fault kinds at intensity 0 (the
// fault-free baseline) and under a campaign, with a 2-byte payload pushed
// through the static and the adaptive (ARQ + FEC) arm. The payload is short
// so that a trial's cost is mostly its fixed set-up: a paging or migration
// campaign needs from 1 to 8 ARQ rounds, and its trials took 0.15-0.5 s at
// 2 bytes but 0.2-1.3 s at 8, where a few long sessions set a run's
// throughput. The timer and storm campaigns are left out: their adaptive
// sessions run 3-7 s per trial.
func chaosFaultedJob(seed uint64, k int, tiny bool) []*exp.Spec {
	faults, intensity := []string{"migration", "paging", "meeflush"}, []string{"0", "4"}
	if tiny {
		faults = []string{"meeflush"}
	}
	return []*exp.Spec{{
		Name: fmt.Sprintf("chaos-faulted/%d", k), Study: "chaos",
		BaseSeed: exp.TrialSeed(seed, "chaos-faulted", k), Trials: 1,
		Params: map[string]string{"payload": "2"},
		Axes:   []exp.Axis{{Name: "faults", Values: faults}, {Name: "intensity", Values: intensity}},
	}}
}

// setupDue reports whether a set-up window that has set up n times over
// since should set up again.
func setupDue(o options, n int, since time.Duration) bool {
	if o.tiny {
		return n < 1
	}
	return n < setupMinReps || since < setupWindow
}

// simStats accumulates the simulated (deterministic) outputs of a fixed set
// of specs: error rate at the paper's 15000-cycle window, setup cycles, and
// the chaos session's ARQ counters.
type simStats struct {
	err15k, setup, rounds, retrans []float64
}

// add folds one report in and checks its trials' outputs.
func (s *simStats) add(rep *exp.Report, out *outcome) {
	cells := rep.Spec.Cells()
	for _, tr := range rep.Trials {
		if tr.Err != "" {
			continue
		}
		p := rep.Spec.ParamMap(cells[tr.Cell])
		m := tr.Metrics
		switch rep.Spec.Study {
		case "chaos":
			for _, k := range []string{"static_delivered", "adaptive_delivered"} {
				out.check(m[k] == 0 || m[k] == 1, "%s %s: %s=%v is not 0 or 1", rep.Spec.Name, tr.CellKey, k, m[k])
			}
			if p["intensity"] == "0" {
				s.err15k = append(s.err15k, m["static_ber"])
			}
			s.rounds = append(s.rounds, m["adaptive_rounds"])
			s.retrans = append(s.retrans, m["retransmits"])
		default:
			want, _ := strconv.ParseFloat(p["bits"], 64)
			out.check(m["bits"] == want, "%s %s: sent %v bits, spec asks %v", rep.Spec.Name, tr.CellKey, m["bits"], want)
			out.check(m["error_rate"] >= 0 && m["error_rate"] <= 1, "%s %s: error rate %v", rep.Spec.Name, tr.CellKey, m["error_rate"])
			if p["window"] == "15000" && (p["noise"] == "" || p["noise"] == "none") {
				s.err15k = append(s.err15k, m["error_rate"])
			}
			s.setup = append(s.setup, m["setup_mcyc"])
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// fill sets the sim-marked per-layer metrics.
func (s *simStats) fill(m map[string]float64) {
	m["err_gap_15k"] = math.Abs(mean(s.err15k)*100 - 1.7)
	m["core.setup_mcyc.mean"] = mean(s.setup)
	m["core.resilient_rounds"] = mean(s.rounds)
	m["core.retransmits"] = mean(s.retrans)
}

// checkDigest records the artifact of a spec run and reports whether it was
// the spec's first run; a later run with different bytes fails the check.
func (o *outcome) checkDigest(name string, artifact []byte) (first bool) {
	sum := sha256.Sum256(artifact)
	h := hex.EncodeToString(sum[:])
	prev, seen := o.digests[name]
	o.check(!seen || prev == h, "%s: artifact digest %s differs from an earlier run's %s", name, h[:12], prev[:min(12, len(prev))])
	if !seen {
		o.digests[name] = h
	}
	return !seen
}

// batchRun is one process's run of a batch workload.
type batchRun struct {
	gen    jobGen
	seed   uint64
	tiny   bool
	loaded map[int][]*exp.Spec
	out    *outcome
	sim    simStats
	runs   map[string]int // exp.Run calls per spec name
	setups []float64      // set-up times, s
	// job0 is the first report of job 0's first spec, kept for the
	// chaos delivery check.
	job0 *exp.Report
	// tracedRuns counts the traced runners' exp.Run calls and warm sums
	// their WarmCaches' counters.
	tracedRuns int
	warm       core.WarmCacheStats
}

// counts tallies spec runs and their trials. The benchmark's operation is
// a spec run, as `meecc batch` performs it; the run fails, as that command
// does, when every one of its trials fails. A single trial can fail by
// design: on an unlucky simulated machine the attack's monitor discovery
// finds no monitor (about one machine in 200). That trial's error is part of
// the artifact, which the checks compare byte for byte.
type counts struct {
	runs, failedRuns int
	trials, failed   int
}

func (c *counts) add(rep *exp.Report) {
	c.runs++
	if rep.Failures() == len(rep.Trials) {
		c.failedRuns++
	}
	c.trials += len(rep.Trials)
	c.failed += rep.Failures()
}

type phaseResult struct {
	counts
	wall time.Duration
	cpu  float64 // CPU-seconds the process used
}

// tpc is the phase's throughput: trials that completed without error per
// CPU-second.
func (p phaseResult) tpc() float64 { return perCPU(p.trials-p.failed, p.cpu) }

// job returns job k, loading it on first use the way a spec file is loaded
// (JSON, then exp.ParseSpec with its validation) and building its runner.
func (b *batchRun) job(k int) ([]*exp.Spec, error) {
	if job, ok := b.loaded[k]; ok {
		return job, nil
	}
	job := b.gen(b.seed, k, b.tiny)
	for i, spec := range job {
		raw, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		if job[i], err = exp.ParseSpec(raw); err != nil {
			return nil, err
		}
		if _, err := exp.RunnerFor(job[i].Study); err != nil {
			return nil, err
		}
	}
	b.loaded[k] = job
	return job, nil
}

// setup runs one window of set-ups. A set-up is what precedes the first
// job: generate the first jobs' specs from the seed, load each one the way
// a spec file is loaded and build its runner, from nothing each time.
func (b *batchRun) setup(o options) error {
	for t0, n := time.Now(), 0; setupDue(o, n, time.Since(t0)); n++ {
		b.loaded = map[int][]*exp.Spec{}
		start := time.Now()
		for k := 0; k < setupJobs; k++ {
			if _, err := b.job(k); err != nil {
				return err
			}
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
	}
	return nil
}

// runJob runs job k's specs and returns their counts.
func (b *batchRun) runJob(k int, t *tracer) (counts, error) {
	var c counts
	job, err := b.job(k)
	if err != nil {
		return c, err
	}
	for i, spec := range job {
		rep, err := b.runSpec(spec, t, k < simJobs)
		if err != nil {
			return c, err
		}
		if k == 0 && i == 0 && b.job0 == nil {
			b.job0 = rep
		}
		c.add(rep)
	}
	return c, nil
}

// runSpec runs one spec through exp.Run with the study runner (t == nil) or
// the traced runner, then renders and checks its artifact; the first run of
// a spec with sim set feeds the sim metrics.
func (b *batchRun) runSpec(spec *exp.Spec, t *tracer, sim bool) (*exp.Report, error) {
	var runner exp.Runner
	var warm *core.WarmCache
	var err error
	if t == nil {
		runner, err = exp.RunnerFor(spec.Study)
	} else {
		warm = core.NewWarmCache(0)
		runner, err = tracedRunner(spec.Study, warm, t)
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := exp.Run(spec, runner, exp.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	t.span(spec.Name, "jobs", spanRun, start)
	start = time.Now()
	artifact, err := exp.MarshalArtifact(rep.Artifact())
	if err != nil {
		return nil, err
	}
	t.span(spec.Name, "jobs", spanArtifact, start)
	if warm != nil {
		ws := warm.Stats()
		b.tracedRuns++
		b.warm.Computes += ws.Computes
		b.warm.DiskLoads += ws.DiskLoads
	}
	b.runs[spec.Name]++
	b.out.check(!rep.Partial, "%s: partial report", spec.Name)
	if b.out.checkDigest(spec.Name, artifact) && sim {
		b.sim.add(rep, b.out)
	}
	return rep, nil
}

// phase runs jobs 0, 1, 2, ... until d has passed; the job in flight at
// the deadline completes and counts.
func (b *batchRun) phase(d time.Duration, t *tracer) (phaseResult, error) {
	var pr phaseResult
	cpu0, err := cpuSeconds()
	if err != nil {
		return pr, err
	}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		c, err := b.runJob(k, t)
		if err != nil {
			return pr, err
		}
		pr.runs += c.runs
		pr.failedRuns += c.failedRuns
		pr.trials += c.trials
		pr.failed += c.failed
	}
	pr.wall = time.Since(start)
	cpu1, err := cpuSeconds()
	if err != nil {
		return pr, err
	}
	pr.cpu = cpu1 - cpu0
	b.out.attempted += pr.runs
	b.out.failed += pr.failedRuns
	return pr, nil
}

// complete runs, untimed, the sim jobs the phases did not reach.
func (b *batchRun) complete() error {
	for k := 0; k < simJobs; k++ {
		job, err := b.job(k)
		if err != nil {
			return err
		}
		if b.runs[job[0].Name] > 0 {
			continue
		}
		if _, err := b.runJob(k, nil); err != nil {
			return err
		}
	}
	return nil
}

func runBatch(o options, gen jobGen) (*outcome, error) {
	out := newOutcome()
	b := &batchRun{gen: gen, seed: o.seed, tiny: o.tiny, out: out, loaded: map[int][]*exp.Spec{}, runs: map[string]int{}}
	seconds := time.Duration(o.seconds * float64(time.Second))
	// A set-up window runs before the measured phase and, for setup_s,
	// another after it. After the first, job 0 runs once, untimed, so lazy
	// initialization and heap growth land outside the measured phase; every
	// phase starts with job 0 again, which checks that a repeated spec gives
	// the same artifact.
	if err := b.setup(o); err != nil {
		return nil, err
	}
	if _, err := b.runJob(0, nil); err != nil {
		return nil, err
	}
	if o.trace == 0 {
		rs := sampleRSS()
		pr, err := b.phase(seconds, nil)
		rss, rerr := rs.p90()
		if err != nil {
			return nil, err
		}
		if rerr != nil {
			return nil, rerr
		}
		if err := b.setup(o); err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = median(b.setups)
		out.metrics["trials_per_cpu_s"] = pr.tpc()
		out.metrics["rss_p90_mb"] = rss
		if err := b.complete(); err != nil {
			return nil, err
		}
		return out, b.checkChaos()
	}

	// Traced run: an untraced phase, then a traced one over the same jobs.
	before := readRuntime()
	plain, err := b.phase(seconds/2, nil)
	if err != nil {
		return nil, err
	}
	runtimeMetrics(out.metrics, before, readRuntime(), plain.trials)
	t := newTracer()
	traced, err := b.phase(seconds/2, t)
	if err != nil {
		return nil, err
	}
	if err := b.complete(); err != nil {
		return nil, err
	}
	spans := t.rec.Spans("")
	out.check(t.rec.Dropped() == 0, "span ring overflowed (%d dropped)", t.rec.Dropped())
	st := summarizeSpans(spans)
	layerMetrics(out.metrics, st, traced.trials, workers, traced.wall)
	m := out.metrics
	warmMetrics(m, st, b.warm, b.tracedRuns)
	m["trace_overhead_share"] = overheadShare(traced.tpc(), plain.tpc())
	m["host.cpu_share"] = plain.cpu / plain.wall.Seconds()
	m["exp.trials"] = float64(traced.trials)
	m["exp.trials_failed"] = float64(traced.failed)
	b.sim.fill(m)
	zeroServe(m)
	if err := probeLayers(m, o.seed, o.tiny); err != nil {
		return nil, err
	}
	if err := writeTrace(o.traceOut, spans); err != nil {
		out.check(false, "%v", err)
	}
	return out, b.checkChaos()
}

// zeroServe sets the serve and journal metrics of workloads that never
// start a server.
func zeroServe(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok && (strings.HasPrefix(d.Name, "serve.") || strings.HasPrefix(d.Name, "journal.")) {
			m[d.Name] = 0
		}
	}
}

// checkChaos repeats, outside the harness, the adaptive session of every
// faulted trial of job 0's chaos run: the same config and the same payload
// that core.ChaosTrial built from the trial seed. The session must agree
// with the trial's reported outcome, and a session that reports the payload
// delivered must hand back exactly the bytes sent, one that does not
// nothing.
func (b *batchRun) checkChaos() error {
	rep := b.job0
	if rep == nil || rep.Spec.Study != "chaos" {
		return nil
	}
	cells := rep.Spec.Cells()
	for _, tr := range rep.Trials {
		p := rep.Spec.ParamMap(cells[tr.Cell])
		if tr.Err != "" || p["intensity"] == "0" {
			continue
		}
		n, err := strconv.Atoi(p["payload"])
		if err != nil {
			return err
		}
		delete(p, "payload")
		cfg, err := core.BuildChannelConfig(p, tr.Seed)
		if err != nil {
			return err
		}
		payload := make([]byte, n)
		prng := rand.New(rand.NewPCG(tr.Seed, tr.Seed^0x5851f42d4c957f2d))
		for i := range payload {
			payload[i] = byte(prng.Uint64())
		}
		res, err := core.RunResilient(core.ResilientConfig{ChannelConfig: cfg}, payload)
		if res == nil {
			return fmt.Errorf("chaos check %s: %v", tr.CellKey, err)
		}
		delivered := 0.0
		if err == nil && res.Delivered {
			delivered = 1
		}
		m := tr.Metrics
		b.out.check(m["adaptive_delivered"] == delivered &&
			m["adaptive_rounds"] == float64(res.Report.Rounds) && m["retransmits"] == float64(res.Report.Retransmits),
			"chaos %s: repeated session delivered=%v rounds=%d retransmits=%d, trial reported %v/%v/%v",
			tr.CellKey, delivered, res.Report.Rounds, res.Report.Retransmits, m["adaptive_delivered"], m["adaptive_rounds"], m["retransmits"])
		if res.Delivered {
			b.out.check(bytes.Equal(res.Payload, payload), "chaos %s: delivered %x, sent %x", tr.CellKey, res.Payload, payload)
		} else {
			b.out.check(res.Payload == nil, "chaos %s: undelivered session returned payload %x", tr.CellKey, res.Payload)
		}
	}
	return nil
}

// probeLayers times the platform and snapstore layers from outside: boot a
// machine, fork it through a snapshot, and round-trip the snapshot through
// the codec, reporting medians. A decoded snapshot must re-encode to the
// same bytes.
func probeLayers(m map[string]float64, seed uint64, tiny bool) error {
	reps := 7
	if tiny {
		reps = 1
	}
	var boot, fork, forkAlloc, enc, dec, blobMB []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		p := platform.New(platform.DefaultConfig(exp.TrialSeed(seed, "probe", i)))
		boot = append(boot, ms(time.Since(start)))

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start = time.Now()
		snap := p.Snapshot()
		f := snap.Fork()
		fork = append(fork, ms(time.Since(start)))
		runtime.ReadMemStats(&m1)
		forkAlloc = append(forkAlloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))

		start = time.Now()
		blob, err := snapstore.EncodeSnapshot(snap)
		if err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(start)))
		blobMB = append(blobMB, float64(len(blob))/(1<<20))
		start = time.Now()
		back, err := snapstore.DecodeSnapshot(blob)
		if err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(start)))
		again, err := snapstore.EncodeSnapshot(back)
		if err != nil {
			return err
		}
		if !bytes.Equal(again, blob) {
			return fmt.Errorf("snapstore: decoded snapshot re-encodes to different bytes")
		}
		f.Close()
		p.Close()
	}
	m["platform.boot_ms"] = median(boot)
	m["platform.fork_ms"] = median(fork)
	m["platform.fork_alloc_mb"] = median(forkAlloc)
	m["snapstore.encode_ms"] = median(enc)
	m["snapstore.decode_ms"] = median(dec)
	m["snapstore.blob_mb"] = median(blobMB)
	return nil
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
