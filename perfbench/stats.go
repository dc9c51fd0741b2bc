package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// cpuSeconds returns the CPU time the process has used, user and system.
// Time the hypervisor gives other tenants (steal) is not in it, nor is time
// the process waited for a CPU.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// perCPU is n per CPU-second, or 0 when no CPU time was measured.
func perCPU(n int, cpu float64) float64 {
	if cpu <= 0 {
		return 0
	}
	return float64(n) / cpu
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// rssInterval is how often an rssSampler reads the resident set.
const rssInterval = 50 * time.Millisecond

// rssSampler reads the process's resident set (VmRSS) every rssInterval
// until stopped. A high quantile of the samples is the process's memory
// footprint under load; unlike the high-water mark (VmHWM), one coincidence
// of two trials' allocation peaks with a late GC does not set it.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mbs []float64
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				mbs = append(mbs, mb)
			}
			select {
			case <-s.stop:
				s.done <- mbs
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// p90 stops the sampler and returns the 90th percentile of its samples.
func (s *rssSampler) p90() (float64, error) {
	close(s.stop)
	mbs := <-s.done
	if len(mbs) == 0 {
		return 0, fmt.Errorf("no VmRSS sample could be read")
	}
	return percentile(mbs, 0.9), nil
}

// rssMB reads the process's resident set size (VmRSS).
func rssMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// runtimeSample is a reading of the Go runtime counters the per-layer
// allocation and GC metrics are deltas of.
type runtimeSample struct {
	allocObjects, allocBytes float64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3]}
}

// runtimeMetrics fills the go.* per-layer metrics from the counter deltas
// between two readings over a phase that executed trials trials.
func runtimeMetrics(m map[string]float64, before, after runtimeSample, trials int) {
	n := float64(max(trials, 1))
	m["go.allocs_per_trial"] = (after.allocObjects - before.allocObjects) / n
	m["go.alloc_mb_per_trial"] = (after.allocBytes - before.allocBytes) / n / (1 << 20)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["go.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	} else {
		m["go.gc_cpu_share"] = 0
	}
}
