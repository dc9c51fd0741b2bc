package platform_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"meecc/internal/core"
	"meecc/internal/platform"
	"meecc/internal/sim"
	"meecc/internal/snapstore"
)

// warmChannel runs a channel's warm phase (calibration, Algorithm 1,
// monitor discovery) for a fixed seed.
func warmChannel(t *testing.T) *core.ChannelWarmState {
	t.Helper()
	ws, err := core.WarmChannel(core.DefaultChannelConfig(1))
	if err != nil {
		t.Fatalf("WarmChannel: %v", err)
	}
	return ws
}

// allocBytes returns the fewest heap bytes f allocated over three runs
// (the minimum filters out unrelated runtime allocations).
func allocBytes(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestWarmForkAllocBytes bounds the bytes, not just the objects, a fork of
// a warm channel machine allocates. The cache models keep their state in
// copy-on-write set pages, so Snapshot and Fork copy page directories, and
// a forked transmission clones only the pages of the sets it writes; a
// flat-slab fork copied ~14.6 MB per view.
func TestWarmForkAllocBytes(t *testing.T) {
	ws := warmChannel(t)
	live := ws.Snapshot().Fork()
	defer live.Close()
	fork := allocBytes(func() { live.Snapshot().Fork().Close() })
	if fork >= 1<<20 {
		t.Errorf("Snapshot().Fork() of a warm machine allocated %d bytes, want < 1 MB", fork)
	}
	cfg := core.DefaultChannelConfig(1)
	run := allocBytes(func() {
		if _, err := ws.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if run >= 2<<20 {
		t.Errorf("fork + one forked transmission allocated %d bytes, want < 2 MB", run)
	}
	t.Logf("Snapshot+Fork %d bytes; fork+transmission %d bytes", fork, run)
}

// enclaveWord runs one enclave thread on plat that stores val at the first
// word of process 0's enclave when store is set, and returns the word it
// then loads there.
func enclaveWord(plat *platform.Platform, store bool, val uint64) uint64 {
	pr := plat.Procs()[0]
	va := pr.Enclave().Base
	var got uint64
	plat.SpawnThread("word", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		if store {
			th.WriteU64(va, val)
		}
		got, _ = th.ReadU64(va)
	})
	plat.Run(-1)
	return got
}

// TestSiblingForksIsolated checks copy-on-write isolation on all three
// sides of a snapshot. The parent keeps running after Snapshot, and two
// sibling forks store different values into the same line — the same LLC
// set and the same plaintext buffer, written through Hierarchy.Data. Each
// view reads back only its own store, and the frozen snapshot encodes to
// the same bytes before and after.
func TestSiblingForksIsolated(t *testing.T) {
	ws := warmChannel(t)
	parent := ws.Snapshot().Fork()
	defer parent.Close()
	base := enclaveWord(parent, false, 0) // the line is now cached
	snap := parent.Snapshot()
	before, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}

	a, b := snap.Fork(), snap.Fork()
	defer a.Close()
	defer b.Close()
	views := []struct {
		name string
		plat *platform.Platform
		val  uint64
	}{{"parent", parent, 0x1111}, {"fork a", a, 0xaaaa}, {"fork b", b, 0xbbbb}}
	for _, v := range views {
		if got := enclaveWord(v.plat, true, v.val); got != v.val {
			t.Fatalf("%s read %#x after storing %#x", v.name, got, v.val)
		}
	}
	for _, v := range views {
		if got := enclaveWord(v.plat, false, 0); got != v.val {
			t.Errorf("%s read %#x, want its own %#x", v.name, got, v.val)
		}
	}
	fresh := snap.Fork()
	defer fresh.Close()
	if got := enclaveWord(fresh, false, 0); got != base {
		t.Errorf("fresh fork read %#x, want the snapshot's %#x", got, base)
	}

	after, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("frozen snapshot's encoding changed after its parent and forks wrote")
	}
}

// TestConcurrentForksMatchSequential forks one warm snapshot from four
// goroutines at once, each running a transmission, and checks every result
// equals the one a sequential fork produced. Forking only reads the frozen
// snapshot, so the race detector must find nothing here either.
func TestConcurrentForksMatchSequential(t *testing.T) {
	ws := warmChannel(t)
	cfgs := make([]core.ChannelConfig, 4)
	want := make([]*core.ChannelResult, len(cfgs))
	for i := range cfgs {
		cfgs[i] = core.DefaultChannelConfig(1)
		cfgs[i].Window = sim.Cycles(10000 + 2500*i)
		cfgs[i].Bits = core.PatternBits([]string{"10", "110", "100", "1"}[i], 16)
		res, err := ws.Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got := make([]*core.ChannelResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = ws.Run(cfgs[i])
		}(i)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: concurrent fork result differs from sequential fork", i)
		}
	}
}

// BenchmarkPlatformBoot measures booting the default machine.
func BenchmarkPlatformBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		platform.New(platform.DefaultConfig(uint64(i))).Close()
	}
}

// BenchmarkPlatformSnapshotFork measures Snapshot plus Fork of a warm
// channel machine — the per-cell cost of a warm-forked sweep.
func BenchmarkPlatformSnapshotFork(b *testing.B) {
	ws, err := core.WarmChannel(core.DefaultChannelConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	live := ws.Snapshot().Fork()
	defer live.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live.Snapshot().Fork().Close()
	}
}
