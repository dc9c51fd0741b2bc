package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs/ops"
)

var generators = map[string]jobGen{
	"grid-fresh":    gridFreshJob,
	"chaos-faulted": chaosFaultedJob,
	"serve-mixed": func(seed uint64, k int, tiny bool) []*exp.Spec {
		return []*exp.Spec{serveSpec(seed, "fill", k, tiny), serveSpec(seed, "exec", k, tiny)}
	},
}

func TestSameSeedSameSpecs(t *testing.T) {
	gen := func(g jobGen, seed uint64, tiny bool) [][]*exp.Spec {
		var jobs [][]*exp.Spec
		for k := 0; k < setupJobs; k++ {
			jobs = append(jobs, g(seed, k, tiny))
		}
		return jobs
	}
	for name, g := range generators {
		for _, tiny := range []bool{false, true} {
			a, b := gen(g, 7, tiny), gen(g, 7, tiny)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s tiny=%t: seed 7 generated different specs", name, tiny)
			}
			ja, _ := json.Marshal(a)
			jc, _ := json.Marshal(gen(g, 8, tiny))
			if string(ja) == string(jc) {
				t.Errorf("%s tiny=%t: seeds 7 and 8 generated the same specs", name, tiny)
			}
			for _, job := range a {
				for _, spec := range job {
					if err := spec.Validate(); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the tables the benchmark
// emits.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark emits %v", layer, perLayer)
	}
}

// TestSmokeAllWorkloads runs every workload at tiny size in both modes: each
// run must pass its output checks and emit exactly its mode's metrics, and
// two runs with the same seed must produce the same artifacts.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		first := map[string]string{}
		for trace := 0; trace <= 1; trace++ {
			o := options{workload: w.name, seed: 5, trace: trace, tiny: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			out, err := w.run(o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			res := out.result(trace)
			if !res.Correct {
				t.Errorf("%s trace=%d: checks failed: %v", w.name, trace, out.problems)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, d.Name)
				}
			}
			if trace == 0 {
				for _, d := range endToEnd {
					// A tiny run can draw only machines whose attack setup
					// fails; then nothing completes and throughput is 0.
					allFailed := d.Name == "trials_per_cpu_s" && res.Failed == res.Attempted
					if v := res.Metrics[d.Name].Value; !(v > 0) && !allFailed {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
					}
				}
			}
			for name, h := range out.digests {
				if prev, ok := first[name]; ok && prev != h {
					t.Errorf("%s: %s artifact differs between runs with the same seed", w.name, name)
				}
				first[name] = h
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []ops.Span{
		{Run: "s", Name: spanRun, Start: at(0), Dur: 100 * time.Millisecond},
		// Two overlapping trials of spec s cover [10, 70); one of another
		// spec and one outside the run's interval do not count.
		{Run: "s#c#0", Name: spanTrial, Start: at(10), Dur: 40 * time.Millisecond},
		{Run: "s#c#1", Name: spanTrial, Start: at(30), Dur: 40 * time.Millisecond},
		{Run: "z#c#0", Name: spanTrial, Start: at(20), Dur: 10 * time.Millisecond},
		{Run: "s#c#2", Name: spanTrial, Start: at(200), Dur: 10 * time.Millisecond},
		{Run: "s#c#0", Name: spanForkRun, Start: at(15), Dur: 30 * time.Millisecond},
	}
	st := summarizeSpans(spans)
	if got := st.self[spanRun]; got != 40*time.Millisecond {
		t.Errorf("exp.run self = %v, want 40ms", got)
	}
	// Trial self: 40-30 + 40 + 10 + 10.
	if got := st.self[spanTrial]; got != 70*time.Millisecond {
		t.Errorf("exp.trial self = %v, want 70ms", got)
	}
}

func TestWarmMetricsFromCacheCounters(t *testing.T) {
	st := spanStats{durs: map[string][]time.Duration{
		spanWarmMiss: make([]time.Duration, 2),
		spanWarmHit:  make([]time.Duration, 10),
	}}
	m := map[string]float64{}
	// 12 Warm calls over 4 runs; the cache computed 2 states and loaded 1.
	warmMetrics(m, st, core.WarmCacheStats{Computes: 2, DiskLoads: 1}, 4)
	if got := m["core.warm_computes"]; got != 0.5 {
		t.Errorf("core.warm_computes = %v, want 0.5 per run", got)
	}
	if got := m["core.warm_hit_ratio"]; got != 0.75 {
		t.Errorf("core.warm_hit_ratio = %v, want 0.75", got)
	}
	warmMetrics(m, spanStats{}, core.WarmCacheStats{}, 0)
	if m["core.warm_computes"] != 0 || m["core.warm_hit_ratio"] != 0 {
		t.Errorf("no Warm calls: got %v, %v, want 0, 0", m["core.warm_computes"], m["core.warm_hit_ratio"])
	}
}
