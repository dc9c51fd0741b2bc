package cpucache

import (
	"testing"

	"meecc/internal/dram"
)

func newH() *Hierarchy {
	return New(DefaultConfig(4))
}

func line(val byte) (l [dram.LineSize]byte) {
	for i := range l {
		l[i] = val
	}
	return
}

func TestMissThenFillThenHitsL1(t *testing.T) {
	h := newH()
	lv, _ := h.Access(0, 0x1000, false)
	if lv != Miss {
		t.Fatalf("cold access %v, want miss", lv)
	}
	if v := h.Fill(0, 0x1000, line(7), false); v != nil {
		t.Fatalf("fill produced victim %+v", v)
	}
	lv, lat := h.Access(0, 0x1000, false)
	if lv != HitL1 {
		t.Fatalf("refetch %v, want L1", lv)
	}
	if lat != 4 {
		t.Fatalf("L1 latency %d", lat)
	}
	if d := h.Data(0x1000); d == nil || d[0] != 7 {
		t.Fatal("plaintext mirror wrong")
	}
}

func TestCrossCoreHitsInLLC(t *testing.T) {
	h := newH()
	h.Fill(0, 0x2000, line(1), false)
	lv, lat := h.Access(1, 0x2000, false)
	if lv != HitLLC {
		t.Fatalf("other-core access %v, want LLC", lv)
	}
	if lat != 42 {
		t.Fatalf("LLC latency %d", lat)
	}
	// Now core 1 has it in L1 too.
	if lv, _ := h.Access(1, 0x2000, false); lv != HitL1 {
		t.Fatalf("after promotion got %v", lv)
	}
}

func TestUnalignedAddressesShareLine(t *testing.T) {
	h := newH()
	h.Fill(0, 0x3000, line(9), false)
	if lv, _ := h.Access(0, 0x303F, false); lv != HitL1 {
		t.Fatalf("same-line offset access %v, want L1", lv)
	}
	if lv, _ := h.Access(0, 0x3040, false); lv != Miss {
		t.Fatalf("next-line access %v, want miss", lv)
	}
}

func TestFlushInvalidatesEverywhere(t *testing.T) {
	h := newH()
	h.Fill(0, 0x4000, line(3), false)
	h.Access(1, 0x4000, false) // promote into core 1's privates
	v, lat := h.Flush(0x4000)
	if v == nil || v.Dirty {
		t.Fatalf("flush victim %+v, want clean line", v)
	}
	if lat != 35 {
		t.Fatalf("flush latency %d", lat)
	}
	for core := 0; core < 2; core++ {
		if lv, _ := h.Access(core, 0x4000, false); lv != Miss {
			t.Fatalf("core %d still hits at %v after clflush", core, lv)
		}
	}
	if h.Resident(0x4000) {
		t.Fatal("line still resident after flush")
	}
}

func TestFlushAbsentLineIsNoopVictim(t *testing.T) {
	h := newH()
	v, _ := h.Flush(0x5000)
	if v != nil {
		t.Fatalf("flush of absent line returned %+v", v)
	}
}

func TestWriteMarksDirtyAndFlushReturnsData(t *testing.T) {
	h := newH()
	h.Fill(0, 0x6000, line(0), false)
	h.Access(0, 0x6000, true)
	d := h.Data(0x6000)
	d[5] = 0xEE
	v, _ := h.Flush(0x6000)
	if v == nil || !v.Dirty {
		t.Fatalf("victim %+v, want dirty", v)
	}
	if v.Data[5] != 0xEE {
		t.Fatal("dirty data lost on flush")
	}
}

func TestInclusiveLLCEvictionBackInvalidates(t *testing.T) {
	cfg := DefaultConfig(2)
	// Tiny LLC: 1 set, 2 ways, so the third distinct line evicts.
	cfg.LLCSets, cfg.LLCWays = 1, 2
	h := New(cfg)
	h.Fill(0, 0x0000, line(1), false)
	h.Fill(0, 0x1000, line(2), false)
	v := h.Fill(0, 0x2000, line(3), false)
	if v == nil || v.Addr != 0x0000 {
		t.Fatalf("LLC eviction victim %+v, want line 0x0", v)
	}
	// Back-invalidation: line 0 must be gone from core 0's L1 even though
	// the L1 set had room.
	if lv, _ := h.Access(0, 0x0000, false); lv != Miss {
		t.Fatalf("back-invalidated line still hits at %v", lv)
	}
}

func TestDirtyLLCVictimCarriesData(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.LLCSets, cfg.LLCWays = 1, 1
	h := New(cfg)
	h.Fill(0, 0x0000, line(1), false)
	h.Access(0, 0x0000, true)
	h.Data(0x0000)[0] = 0xAA
	v := h.Fill(0, 0x1000, line(2), false)
	if v == nil || !v.Dirty || v.Data[0] != 0xAA {
		t.Fatalf("dirty victim %+v", v)
	}
}

func TestFillWithDirtyFlag(t *testing.T) {
	h := newH()
	h.Fill(0, 0x7000, line(1), true)
	v, _ := h.Flush(0x7000)
	if v == nil || !v.Dirty {
		t.Fatal("dirty fill lost its dirtiness")
	}
}

func TestSeparateLinesSeparateSets(t *testing.T) {
	h := newH()
	// Fill many lines; counts should accumulate without interference.
	for i := 0; i < 100; i++ {
		h.Fill(0, dram.Addr(i*64), line(byte(i)), false)
	}
	for i := 0; i < 100; i++ {
		if lv, _ := h.Access(0, dram.Addr(i*64), false); lv == Miss {
			t.Fatalf("line %d lost", i)
		}
	}
}
