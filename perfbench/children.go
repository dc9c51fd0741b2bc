package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChildren runs the selected workloads (or all of them), each in its own
// process, and prints every metric by name and unit. With --repeat N each
// workload runs N times with consecutive seeds and the steadiness table
// gives, per metric, the median, the quartiles (as Python's
// statistics.quantiles computes them), the interquartile spread as a share
// of the median, and the metric's bound from BENCHMARK.json.
func runChildren(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	bounds := readBounds("BENCHMARK.json")
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	runs := max(o.repeat, 1)
	var failures []string
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			seed := o.seed + uint64(i)
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(o.trace))
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			res, perr := lastResult(stdout)
			switch {
			case perr != nil:
				failures = append(failures, fmt.Sprintf("%s seed %d: %v (exit: %v)", name, seed, perr, runErr))
				continue
			case runErr != nil || !res.Correct:
				failures = append(failures, fmt.Sprintf("%s seed %d: incorrect output (exit: %v)", name, seed, runErr))
			}
			fmt.Printf("%s seed=%d correct=%t attempted=%d failed=%d\n", name, seed, res.Correct, res.Attempted, res.Failed)
			for _, d := range defs {
				v := res.Metrics[d.Name]
				values[d.Name] = append(values[d.Name], v.Value)
				if runs == 1 {
					fmt.Printf("  %-26s %14.6g %s\n", d.Name, v.Value, v.Unit)
				}
			}
		}
		if runs > 1 {
			fmt.Printf("%s: %d runs\n  %-26s %12s %12s %12s %8s %6s\n", name, runs, "metric", "median", "q1", "q3", "spread", "bound")
			for _, d := range defs {
				q1, med, q3 := quartiles(values[d.Name])
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / med
				}
				bound := "-"
				if b, ok := bounds[d.Name]; ok {
					bound = strconv.FormatFloat(b, 'g', -1, 64)
				}
				fmt.Printf("  %-26s %12.6g %12.6g %12.6g %8.4f %6s\n", d.Name, med, q1, q3, spread, bound)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d run(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// lastResult parses the result JSON on the last line of a run's output.
func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if last == "" {
		return res, fmt.Errorf("no result line")
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
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
}

// readBounds returns the end-to-end bounds of the BENCHMARK.json at path,
// or none when it cannot be read (the table then shows "-").
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bf benchmarkFile
	if json.Unmarshal(raw, &bf) != nil {
		return out
	}
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
