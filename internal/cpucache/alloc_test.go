package cpucache

import (
	"runtime"
	"testing"

	"meecc/internal/dram"
	"meecc/internal/obs"
)

// TestWarmAccessAllocFree pins the hierarchy's allocation-free fast path:
// hits at any level must not touch the heap.
func TestWarmAccessAllocFree(t *testing.T) {
	h := New(DefaultConfig(2))
	var line [dram.LineSize]byte
	h.Fill(0, 0x1000, line, false)
	h.Fill(0, 0x2000, line, false)
	allocs := testing.AllocsPerRun(200, func() {
		if lvl, _ := h.Access(0, 0x1000, false); lvl == Miss {
			t.Fatal("expected warm hit")
		}
		h.Access(0, 0x2000, true)
		h.Access(1, 0x1000, false) // cross-core: refill from LLC
	})
	if allocs != 0 {
		t.Fatalf("warm Access allocated %.1f times per run, want 0", allocs)
	}
}

// TestWarmAccessAllocFreeWithMetrics re-pins the hit fast path with live
// instrumentation attached: the hierarchy's metrics are deferred samples plus
// pool counters, so enabling them must not move the allocation needle.
func TestWarmAccessAllocFreeWithMetrics(t *testing.T) {
	h := New(DefaultConfig(2))
	o := obs.NewObserver()
	h.Observe(o)
	var line [dram.LineSize]byte
	h.Fill(0, 0x1000, line, false)
	h.Fill(0, 0x2000, line, false)
	allocs := testing.AllocsPerRun(200, func() {
		if lvl, _ := h.Access(0, 0x1000, false); lvl == Miss {
			t.Fatal("expected warm hit")
		}
		h.Access(0, 0x2000, true)
		h.Access(1, 0x1000, false)
		h.Flush(0x2000)
		h.Fill(0, 0x2000, line, false)
	})
	if allocs != 0 {
		t.Fatalf("instrumented warm Access allocated %.1f times per run, want 0", allocs)
	}
	snap := o.Snapshot()
	if snap.Counters["cache.l1.hits"] == 0 {
		t.Error("aggregated L1 hit sample missing")
	}
	if snap.Counters["cpucache.flushes"] == 0 {
		t.Error("flush counter missing")
	}
}

// TestForkAllocsIndependentOfResidency pins the copy-on-write Fork: cloning
// the hierarchy copies a fixed set of page directories, so the allocation
// count must not scale with how many lines are resident. A per-line clone
// loop would fail this immediately.
func TestForkAllocsIndependentOfResidency(t *testing.T) {
	forkAllocs := func(lines int) float64 {
		h := New(DefaultConfig(2))
		var line [dram.LineSize]byte
		for i := 0; i < lines; i++ {
			h.Fill(0, dram.Addr(0x10000+i*dram.LineSize), line, i%2 == 0)
		}
		return testing.AllocsPerRun(20, func() { h.Fork() })
	}
	few, many := forkAllocs(2), forkAllocs(512)
	if few != many {
		t.Fatalf("Fork allocations scale with residency: %.1f at 2 lines vs %.1f at 512", few, many)
	}
}

// TestFillFlushSteadyStateAllocFree exercises the miss/evict churn: once the
// warm-up has materialized the set pages the working set maps to, Fill and
// Flush write those pages in place and reuse the scratch Victim instead of
// allocating.
func TestFillFlushSteadyStateAllocFree(t *testing.T) {
	h := New(DefaultConfig(1))
	var line [dram.LineSize]byte
	addr := func(i int) dram.Addr { return dram.Addr(0x10000 + i*dram.LineSize) }
	for i := 0; i < 64; i++ { // warm-up grows the pool
		h.Fill(0, addr(i), line, i%2 == 0)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		h.Flush(addr(i % 64))
		h.Fill(0, addr(i%64), line, true)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Fill/Flush churn allocated %.1f times per run, want 0", allocs)
	}
}

// TestForkBytesBounded bounds the bytes, not just the objects, of forking a
// hierarchy whose every LLC set is resident: Snapshot plus Fork copy page
// directories (the flat slabs they replaced were ~14.6 MB per copy), and a
// fork's first write to a set clones only that set's pages.
func TestForkBytesBounded(t *testing.T) {
	cfg := DefaultConfig(2)
	h := New(cfg)
	var line [dram.LineSize]byte
	for i := 0; i < cfg.LLCSets*cfg.LLCWays; i++ {
		h.Fill(i%cfg.Cores, dram.Addr(i*dram.LineSize), line, i%3 == 0)
	}
	bytes := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	var fork *Hierarchy
	if n := bytes(func() { fork = h.Snapshot().Fork() }); n >= 1<<20 {
		t.Errorf("Snapshot().Fork() of a full hierarchy allocated %d bytes, want < 1 MB", n)
	}
	// One fill into a fresh set evicts (the set is full) and writes the
	// LLC, the L1 and L2 of core 0 and the line buffer: one page each.
	if n := bytes(func() { fork.Fill(0, dram.Addr(cfg.LLCSets*cfg.LLCWays*dram.LineSize), line, true) }); n >= 64<<10 {
		t.Errorf("first write to a forked set allocated %d bytes, want < 64 KB", n)
	}
}
