package cpucache

import (
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

// TestForkAllocsIndependentOfResidency pins the arena-backed Fork: cloning
// the hierarchy is a fixed set of slab allocations plus one memcpy, so the
// allocation count must not scale with how many lines are resident. A
// per-line clone loop would fail this immediately.
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
// lineBuf pool has reached its high-water mark, Fill and Flush recycle
// buffers and reuse the scratch Victim instead of allocating.
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
