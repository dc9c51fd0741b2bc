package cache

import (
	"math/rand/v2"
	"testing"

	"meecc/internal/obs"
)

// TestLookupAllocFree pins Lookup's zero-allocation property — it runs on
// every simulated memory access across L1/L2/LLC and the MEE cache.
func TestLookupAllocFree(t *testing.T) {
	c := New("alloc", 16, 4, NewLRU())
	c.Insert(3, 100, false)
	allocs := testing.AllocsPerRun(200, func() {
		c.Lookup(3, 100) // hit
		c.Lookup(3, 101) // miss
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocated %.1f times per run, want 0", allocs)
	}
}

// TestInsertInvalidateAllocFree covers the churn path under every policy:
// evicting inserts and invalidations must not allocate either.
func TestInsertInvalidateAllocFree(t *testing.T) {
	for _, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			p, err := PolicyByName(name, rand.New(rand.NewPCG(1, 2)))
			if err != nil {
				t.Fatal(err)
			}
			c := New("alloc", 16, 4, p)
			var tag Tag
			for ; tag < 4; tag++ {
				c.Insert(5, tag, false) // fill the set
			}
			allocs := testing.AllocsPerRun(200, func() {
				// A fresh tag evicts on every run (the set stays full),
				// so AllocsPerRun's whole-number average cannot hide a
				// per-victim allocation; invalidating and refilling the
				// previous tag churns a resident line too.
				c.Insert(5, tag, tag%2 == 0)
				c.Invalidate(5, tag-1)
				c.Insert(5, tag-1, false)
				tag++
			})
			if allocs != 0 {
				t.Fatalf("Insert/Invalidate allocated %.1f times per run, want 0", allocs)
			}
			if st := c.Stats(); st.Evictions == 0 || st.Invalidations == 0 {
				t.Fatalf("churn never evicted or invalidated: %+v", st)
			}
		})
	}
}

// TestNewCloneAllocsIndependentOfSets pins the flat layout: building or
// cloning a cache costs the same handful of allocations at any set count,
// so an 8192-set LLC is as cheap to allocate as a 2-set toy.
func TestNewCloneAllocsIndependentOfSets(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, name := range policyNames {
		p, err := PolicyByName(name, rng)
		if err != nil {
			t.Fatal(err)
		}
		var newAllocs, cloneAllocs []float64
		for _, sets := range []int{2, 8192} {
			c := New("alloc", sets, 16, p)
			newAllocs = append(newAllocs, testing.AllocsPerRun(5, func() { New("alloc", sets, 16, p) }))
			cloneAllocs = append(cloneAllocs, testing.AllocsPerRun(5, func() { c.Clone(rng) }))
		}
		if newAllocs[1] != newAllocs[0] || cloneAllocs[1] != cloneAllocs[0] || newAllocs[1] > 4 || cloneAllocs[1] > 4 {
			t.Errorf("%s: New allocs %v and Clone allocs %v at 2 and 8192 sets, want equal and at most 4", name, newAllocs, cloneAllocs)
		}
	}
}

// TestLookupInsertAllocFreeWithMetrics re-pins both hot paths with an
// observer attached. Cache metrics are all deferred samples over the
// existing Stats struct, so the hot path is unchanged by design — this test
// keeps that true as the instrumentation evolves.
func TestLookupInsertAllocFreeWithMetrics(t *testing.T) {
	c := New("alloc", 16, 4, NewLRU())
	o := obs.NewObserver()
	c.Observe(o, "llc")
	c.Insert(3, 100, false)
	var tag Tag
	allocs := testing.AllocsPerRun(200, func() {
		c.Lookup(3, 100)
		c.Lookup(3, 101)
		c.Insert(5, tag, tag%2 == 0)
		c.Invalidate(5, tag-3)
		tag++
	})
	if allocs != 0 {
		t.Fatalf("instrumented Lookup/Insert allocated %.1f times per run, want 0", allocs)
	}
	snap := o.Snapshot()
	if snap.Counters["cache.llc.hits"] == 0 || snap.Counters["cache.llc.misses"] == 0 {
		t.Errorf("cache samples missing from snapshot: %v", snap.Counters)
	}
}

// TestEvictionsBySetIntoReusesBuffer verifies the allocation-free counter
// snapshot: a caller-provided buffer of sufficient capacity is reused.
func TestEvictionsBySetIntoReusesBuffer(t *testing.T) {
	c := New("alloc", 8, 2, NewLRU())
	for i := 0; i < 32; i++ {
		c.Insert(i%8, Tag(i), false)
	}
	buf := make([]uint64, 8)
	got := c.EvictionsBySetInto(buf)
	if &got[0] != &buf[0] {
		t.Fatal("sufficient buffer was not reused")
	}
	want := c.EvictionsBySet()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("set %d: %d != %d", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { c.EvictionsBySetInto(buf) }); allocs != 0 {
		t.Fatalf("EvictionsBySetInto allocated %.1f times, want 0", allocs)
	}
	// Undersized or nil buffers grow.
	if short := c.EvictionsBySetInto(make([]uint64, 2)); len(short) != 8 {
		t.Fatalf("short buffer result length %d, want 8", len(short))
	}
}
