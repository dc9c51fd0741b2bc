package cpucache

import (
	"testing"

	"meecc/internal/dram"
)

// BenchmarkHierarchyAccessFill is the hierarchy's per-access cost: a
// working set twice the LLC's associativity per set, strided so every line
// lands in the same handful of LLC sets, keeps a steady mix of L1/L2/LLC
// hits, misses with Fill, and dirty LLC evictions.
func BenchmarkHierarchyAccessFill(b *testing.B) {
	cfg := DefaultConfig(2)
	h := New(cfg)
	stride := dram.Addr(cfg.LLCSets * dram.LineSize)
	const lines = 64
	var data [dram.LineSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := dram.Addr(i%lines)*stride + dram.Addr(i%4)*dram.LineSize
		core := i & 1
		if lvl, _ := h.Access(core, addr, i%3 == 0); lvl == Miss {
			h.Fill(core, addr, data, i%3 == 0)
		}
	}
}
