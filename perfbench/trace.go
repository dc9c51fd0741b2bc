package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs"
	"meecc/internal/obs/ops"
)

// Span names. Every span wraps one call into a layer's public API, made by
// the benchmark itself; spanParent gives the span that encloses each one in
// the same trace id (exp.trial encloses the core calls of its trial, and
// serve.run encloses one client operation). The exp.trial spans of a spec
// carry the spec name as their id prefix, and a span in encloseTrials has as
// children the trials of its spec that overlap it: the exp.run call of a
// local run, and the submit and follow calls of a served run (a served run's
// trials start while its submit call is still returning).
const (
	spanRun         = "exp.run"
	spanArtifact    = "exp.artifact"
	spanTrial       = "exp.trial"
	spanBuildConfig = "core.build_config"
	spanRunChannel  = "core.run_channel"
	spanWarmMiss    = "core.warm"
	spanWarmHit     = "core.warm_hit"
	spanForkRun     = "core.fork_run"
	spanChaosTrial  = "core.chaos_trial"
	spanServeRun    = "serve.run"
	spanSubmit      = "serve.submit"
	spanFollow      = "serve.follow"
	spanFetch       = "serve.artifact"
)

var spanParent = map[string]string{
	spanBuildConfig: spanTrial,
	spanRunChannel:  spanTrial,
	spanWarmMiss:    spanTrial,
	spanWarmHit:     spanTrial,
	spanForkRun:     spanTrial,
	spanChaosTrial:  spanTrial,
	spanSubmit:      spanServeRun,
	spanFollow:      spanServeRun,
	spanFetch:       spanServeRun,
}

var encloseTrials = map[string]bool{spanRun: true, spanSubmit: true, spanFollow: true}

// spanCap bounds the in-memory span ring; a full run records a few tens of
// thousands of spans, and a dropped span would skew self times.
const spanCap = 1 << 18

// tracer keeps a traced run's spans in memory (ops.SpanRecorder) and leases
// timeline tracks so concurrent trials render on separate rows.
type tracer struct {
	rec *ops.SpanRecorder

	mu   sync.Mutex
	free []int
	next int
}

func newTracer() *tracer { return &tracer{rec: ops.NewSpanRecorder(spanCap)} }

// span records one interval; a nil tracer records nothing.
func (t *tracer) span(id, track, name string, start time.Time) {
	if t != nil {
		t.rec.Record(id, track, name, start, time.Since(start))
	}
}

// acquire leases the lowest free track slot.
func (t *tracer) acquire() (slot int, track string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot = t.next
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.next++
	}
	return slot, "slot-" + strconv.Itoa(slot)
}

func (t *tracer) release(slot int) {
	t.mu.Lock()
	t.free = append(t.free, slot)
	t.mu.Unlock()
}

// trialID names a trial's spans: the spec name, cell and trial index.
func trialID(j exp.Job) string {
	return j.Spec.Name + "#" + j.Cell.Key() + "#" + strconv.Itoa(j.Trial)
}

// tracedRunner returns a runner that makes the same public calls as the
// study runner exp.RunnerWithWarmCache returns — BuildChannelConfig, then
// RunChannel or WarmCache.Warm and ChannelWarmState.Run for the channel
// study, ChaosTrial for the chaos study — with a span around each call.
// Its trial results are identical to the study runner's; the benchmark
// checks that by comparing artifact bytes.
func tracedRunner(study string, warm *core.WarmCache, t *tracer) (exp.Runner, error) {
	switch study {
	case "", "channel":
		return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
			id := trialID(j)
			slot, track := t.acquire()
			defer t.release(slot)
			defer t.span(id, track, spanTrial, time.Now())

			start := time.Now()
			cfg, err := core.BuildChannelConfig(j.Params(), j.Seed)
			t.span(id, track, spanBuildConfig, start)
			if err != nil {
				return nil, nil, err
			}
			var o *obs.Observer
			if j.Spec.Metrics {
				o = obs.NewObserver()
				cfg.Obs = o
			}
			var res *core.ChannelResult
			// The channel study forks warm state only for specs with shared
			// axes and configs the warm path can carry.
			if len(j.Spec.SharedAxes) > 0 && cfg.Noise == core.NoiseNone && cfg.Fault == nil && cfg.Obs == nil {
				// A call during which the cache computed or loaded a warm
				// state is timed as a miss; it waited for that work.
				before := warm.Stats()
				start = time.Now()
				ws, werr := warm.Warm(cfg)
				name := spanWarmHit
				if after := warm.Stats(); after.Computes+after.DiskLoads > before.Computes+before.DiskLoads {
					name = spanWarmMiss
				}
				t.span(id, track, name, start)
				if werr != nil {
					return nil, nil, werr
				}
				start = time.Now()
				res, err = ws.Run(cfg)
				t.span(id, track, spanForkRun, start)
			} else {
				start = time.Now()
				res, err = core.RunChannel(cfg)
				t.span(id, track, spanRunChannel, start)
			}
			if err != nil {
				return nil, nil, err
			}
			return exp.Metrics{
				"kbps":         res.KBps,
				"error_rate":   res.ErrorRate,
				"bit_errors":   float64(res.BitErrors),
				"bits":         float64(len(res.Sent)),
				"eviction_set": float64(res.EvictionSetSize),
				"setup_mcyc":   float64(res.SetupCycles) / 1e6,
			}, o.Snapshot(), nil
		}, nil
	case "chaos":
		return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
			id := trialID(j)
			slot, track := t.acquire()
			defer t.release(slot)
			defer t.span(id, track, spanTrial, time.Now())
			start := time.Now()
			m, snap, err := core.ChaosTrial(j.Params(), j.Seed, j.Spec.Metrics)
			t.span(id, track, spanChaosTrial, start)
			return m, snap, err
		}, nil
	}
	return nil, fmt.Errorf("no traced runner for study %q", study)
}

// spanStats summarizes a traced phase: durations per span name and self
// time per span name (duration minus the union of its children's
// intervals).
type spanStats struct {
	durs map[string][]time.Duration
	self map[string]time.Duration
}

func summarizeSpans(spans []ops.Span) spanStats {
	st := spanStats{durs: map[string][]time.Duration{}, self: map[string]time.Duration{}}
	byID := map[string][]int{}
	trialsBySpec := map[string][]int{}
	for i, sp := range spans {
		st.durs[sp.Name] = append(st.durs[sp.Name], sp.Dur)
		byID[sp.Run] = append(byID[sp.Run], i)
		if sp.Name == spanTrial {
			spec, _, _ := strings.Cut(sp.Run, "#")
			trialsBySpec[spec] = append(trialsBySpec[spec], i)
		}
	}
	for _, sp := range spans {
		var kids []ops.Span
		if encloseTrials[sp.Name] {
			end := sp.Start.Add(sp.Dur)
			for _, k := range trialsBySpec[sp.Run] {
				if c := spans[k]; c.Start.Before(end) && c.Start.Add(c.Dur).After(sp.Start) {
					kids = append(kids, c)
				}
			}
		} else {
			for _, k := range byID[sp.Run] {
				if spanParent[spans[k].Name] == sp.Name {
					kids = append(kids, spans[k])
				}
			}
		}
		st.self[sp.Name] += sp.Dur - covered(sp, kids)
	}
	return st
}

// covered returns how much of parent's interval the kids' union covers.
func covered(parent ops.Span, kids []ops.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Time }
	end := parent.Start.Add(parent.Dur)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(k.Dur)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	for i := 1; i < len(ivs); i++ { // insertion sort: kids arrive nearly ordered
		for j := i; j > 0 && ivs[j].lo.Before(ivs[j-1].lo); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total time.Duration
	var curLo, curHi time.Time
	for i, v := range ivs {
		if i == 0 || v.lo.After(curHi) {
			if i > 0 {
				total += curHi.Sub(curLo)
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi.After(curHi) {
			curHi = v.hi
		}
	}
	return total + curHi.Sub(curLo)
}

// p returns the q-quantile of one span name's durations in ms.
func (st spanStats) p(name string, q float64) float64 { return percentile(msAll(st.durs[name]), q) }

// selfMS sums the self time of every span whose name starts with prefix.
func (st spanStats) selfMS(prefix string) float64 {
	var total time.Duration
	for name, d := range st.self {
		if strings.HasPrefix(name, prefix) {
			total += d
		}
	}
	return ms(total)
}

// busy sums one span name's durations.
func (st spanStats) busy(name string) time.Duration {
	var total time.Duration
	for _, d := range st.durs[name] {
		total += d
	}
	return total
}

// layerMetrics fills the per-layer metrics a traced phase's spans give:
// exp trial latency and idle share, core call latencies, warm hits, and
// self time per trial. workers is the phase's trial concurrency.
func layerMetrics(m map[string]float64, st spanStats, trials, workers int, wall time.Duration) {
	n := float64(max(trials, 1))
	m["exp.trial_ms.p50"] = st.p(spanTrial, 0.5)
	m["exp.trial_ms.p90"] = st.p(spanTrial, 0.9)
	idle := 1 - float64(st.busy(spanTrial))/(float64(workers)*float64(wall))
	m["exp.worker_idle_share"] = max(idle, 0)
	m["exp.self_ms_per_trial"] = st.selfMS("exp.") / n
	m["core.run_channel_ms.p50"] = st.p(spanRunChannel, 0.5)
	m["core.warm_ms.p50"] = st.p(spanWarmMiss, 0.5)
	m["core.fork_run_ms.p50"] = st.p(spanForkRun, 0.5)
	m["core.chaos_trial_ms.p50"] = st.p(spanChaosTrial, 0.5)
	m["core.self_ms_per_trial"] = st.selfMS("core.") / n
}

// warmMetrics fills the warm-tier metrics of a traced phase from its
// WarmCache counters: warm phases computed per executed run, and the share
// of WarmCache.Warm calls (counted from the spans) that neither computed nor
// loaded a warm state. Both are 0 when the phase made no Warm call.
func warmMetrics(m map[string]float64, st spanStats, ws core.WarmCacheStats, runs int) {
	m["core.warm_computes"] = float64(ws.Computes) / float64(max(runs, 1))
	m["core.warm_hit_ratio"] = 0
	if calls := len(st.durs[spanWarmMiss]) + len(st.durs[spanWarmHit]); calls > 0 {
		m["core.warm_hit_ratio"] = 1 - float64(ws.Computes+ws.DiskLoads)/float64(calls)
	}
}

// overheadShare is the share of untraced throughput the traced run lost (0
// when the untraced half completed nothing).
func overheadShare(traced, plain float64) float64 {
	if plain <= 0 {
		return 0
	}
	return 1 - traced/plain
}

// writeTrace exports the spans as Chrome trace JSON and validates the file
// with the same structural check the simulator's own traces pass.
func writeTrace(path string, spans []ops.Span) error {
	var buf bytes.Buffer
	if err := ops.WriteChromeTrace(&buf, spans); err != nil {
		return err
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
