// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload per process against the simulator's public packages —
// exp.Run with the study runners, the core channel/chaos entry points,
// platform boot and fork, the snapstore codec, and an in-process serve.Server
// reached through serve.Client — checks that every output is correct, and
// prints one JSON result line:
//
//	perfbench --workload grid-fresh --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run and writes the spans as
// Chrome trace JSON. --workload all runs every workload in its own process,
// and --repeat N runs each N times with consecutive seeds and prints the
// median, quartiles and bound of every metric (the steadiness check).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_cpu_s", "1/s"},
	{"rss_p90_mb", "MB"},
}

// perLayer are the metrics of single layers, reported with --trace 1 by
// every workload. A layer the workload never calls reports 0.
var perLayer = []metricDef{
	{"trace_overhead_share", "share"},
	{"host.cpu_share", "cpu_s/s"},
	{"exp.trials", "count"},
	{"exp.trials_failed", "count"},
	{"exp.trial_ms.p50", "ms"},
	{"exp.trial_ms.p90", "ms"},
	{"exp.worker_idle_share", "share"},
	{"exp.self_ms_per_trial", "ms"},
	{"core.run_channel_ms.p50", "ms"},
	{"core.warm_ms.p50", "ms"},
	{"core.fork_run_ms.p50", "ms"},
	{"core.chaos_trial_ms.p50", "ms"},
	{"core.self_ms_per_trial", "ms"},
	{"core.warm_computes", "count/run"},
	{"core.warm_hit_ratio", "share"},
	{"core.setup_mcyc.mean", "Mcycles"},
	{"core.resilient_rounds", "count"},
	{"core.retransmits", "count"},
	{"err_gap_15k", "pp"},
	{"platform.boot_ms", "ms"},
	{"platform.fork_ms", "ms"},
	{"platform.fork_alloc_mb", "MB"},
	{"snapstore.encode_ms", "ms"},
	{"snapstore.decode_ms", "ms"},
	{"snapstore.blob_mb", "MB"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.follow_ms.p50", "ms"},
	{"serve.artifact_ms.p50", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.exec_run_p50_ms", "ms"},
	{"serve.exec_run_p90_ms", "ms"},
	{"serve.memo_run_p50_ms", "ms"},
	{"serve.memo_run_p90_ms", "ms"},
	{"serve.memo_hit_ratio", "share"},
	{"serve.rejected", "count"},
	{"serve.self_ms_per_run", "ms"},
	{"journal.append_ms.p50", "ms"},
	{"journal.append_ms.p99", "ms"},
	{"journal.fsync_ms.p50", "ms"},
	{"journal.fsync_ms.p99", "ms"},
	{"journal.bytes", "bytes"},
	{"go.allocs_per_trial", "count"},
	{"go.alloc_mb_per_trial", "MB"},
	{"go.gc_cpu_share", "share"},
}

// options is one invocation's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	// tiny shrinks every generated input for the benchmark's smoke test.
	tiny     bool
	traceOut string
	repeat   int
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run, or \"all\"")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace output path (default .bench_build/trace-<workload>.json)")
	flag.IntVar(&o.repeat, "repeat", 0, "steadiness mode: run each workload N times with seeds seed..seed+N-1")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.workload == "all" || o.repeat > 0 {
		if err := runChildren(o); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fatalf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	out, err := w.run(o)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res := out.result(o.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	problems          []string
	// digests maps each spec name to its artifact's SHA-256: a spec run
	// again (the warm-up job, the traced phase, a local re-run of a served
	// spec) must give the same bytes.
	digests map[string]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, digests: map[string]string{}}
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result renders the outcome for the given trace mode. Every metric of the
// mode's table is present; a metric the workload failed to fill is a bug in
// the benchmark and marks the run incorrect.
func (o *outcome) result(trace int) result {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		o.check(ok, "metric %s was not measured", d.Name)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		o.check(false, "no operation attempted")
		res.Attempted = 1
	}
	res.Correct = len(o.problems) == 0
	return res
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
