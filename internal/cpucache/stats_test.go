package cpucache

import (
	"testing"

	"meecc/internal/dram"
)

func TestPerSetEvictionCounting(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.LLCSets, cfg.LLCWays = 4, 2
	h := New(cfg)
	// Hammer set 0: addresses stride LLCSets*64 bytes.
	stride := dram.Addr(4 * 64)
	for i := 0; i < 10; i++ {
		h.Fill(0, dram.Addr(i)*stride, [64]byte{}, false)
	}
	llc := h.LLC()
	bySet := llc.EvictionsBySet()
	if bySet[0] != 8 { // 10 fills into 2 ways
		t.Fatalf("set 0 evictions %d, want 8", bySet[0])
	}
	for s := 1; s < 4; s++ {
		if bySet[s] != 0 {
			t.Fatalf("set %d evictions %d, want 0", s, bySet[s])
		}
	}
	set, count := llc.MaxSetEvictions()
	if set != 0 || count != 8 {
		t.Fatalf("hottest set %d/%d", set, count)
	}
	llc.ResetStats()
	if _, count := llc.MaxSetEvictions(); count != 0 {
		t.Fatal("per-set stats survived reset")
	}
}

func TestInvalidateOthersKeepsWriterCopy(t *testing.T) {
	h := New(DefaultConfig(4))
	h.Fill(0, 0x9000, [64]byte{}, false)
	h.Access(1, 0x9000, false) // core 1 promotes a copy
	h.Access(0, 0x9000, true)  // core 0 writes -> invalidates core 1
	if lv, _ := h.Access(0, 0x9000, false); lv != HitL1 {
		t.Fatalf("writer lost its copy (%v)", lv)
	}
	if lv, _ := h.Access(1, 0x9000, false); lv != HitLLC {
		t.Fatalf("reader should re-fetch from LLC, got %v", lv)
	}
}

func TestWriteMissFillsDirty(t *testing.T) {
	h := New(DefaultConfig(5))
	if lv, _ := h.Access(0, 0xA000, true); lv != Miss {
		t.Fatal("expected write miss")
	}
	h.Fill(0, 0xA000, [64]byte{1}, true)
	v, _ := h.Flush(0xA000)
	if v == nil || !v.Dirty {
		t.Fatal("write-allocate fill lost dirtiness")
	}
}
