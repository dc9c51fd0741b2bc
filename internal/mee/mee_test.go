package mee

import (
	"errors"
	"math/rand/v2"
	"testing"

	"meecc/internal/dram"
	"meecc/internal/itree"
	"meecc/internal/sim"
)

type fixture struct {
	eng *Engine
	mem *dram.DRAM
	rng *rand.Rand
	now sim.Cycles
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 22))
	mem := dram.New(dram.DefaultConfig())
	geom, err := itree.NewGeometry(1<<30, 128<<20, 96<<20)
	if err != nil {
		t.Fatal(err)
	}
	crypt := itree.NewCrypto([16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	return &fixture{
		eng: New(DefaultConfig(), geom, crypt, mem, rng),
		mem: mem,
		rng: rng,
	}
}

// read performs a read far enough in the future to avoid port/bank carryover.
func (f *fixture) read(t *testing.T, addr dram.Addr) ([64]byte, sim.Cycles, HitLevel) {
	t.Helper()
	f.now += 100000
	data, lat, hit, err := f.eng.ReadData(f.now, f.rng, addr)
	if err != nil {
		t.Fatalf("ReadData(%#x): %v", addr, err)
	}
	return data, lat, hit
}

func (f *fixture) write(t *testing.T, addr dram.Addr, val byte) {
	t.Helper()
	f.now += 100000
	var line [64]byte
	for i := range line {
		line[i] = val
	}
	if _, _, err := f.eng.WriteData(f.now, f.rng, addr, line); err != nil {
		t.Fatalf("WriteData(%#x): %v", addr, err)
	}
}

func (f *fixture) dataAddr(off uint64) dram.Addr {
	return f.eng.Geometry().DataBase + dram.Addr(off)
}

func TestColdReadWalksToRoot(t *testing.T) {
	f := newFixture(t)
	_, lat, hit := f.read(t, f.dataAddr(0))
	if hit != HitRoot {
		t.Fatalf("cold read hit %v, want root access", hit)
	}
	if lat < 1300 || lat > 1900 {
		t.Fatalf("cold read latency %d, want ~1560", lat)
	}
}

func TestRepeatedReadHitsVersions(t *testing.T) {
	f := newFixture(t)
	a := f.dataAddr(0)
	f.read(t, a)
	_, lat, hit := f.read(t, a)
	if hit != HitVersions {
		t.Fatalf("second read hit %v, want versions", hit)
	}
	if lat < 420 || lat > 560 {
		t.Fatalf("versions-hit latency %d, want ~480", lat)
	}
}

func TestSame512BBlockSharesVersionsLine(t *testing.T) {
	f := newFixture(t)
	f.read(t, f.dataAddr(0))
	// Different line, same 512 B block -> same versions line -> versions hit.
	_, _, hit := f.read(t, f.dataAddr(64))
	if hit != HitVersions {
		t.Fatalf("same-block read hit %v, want versions", hit)
	}
}

func TestNeighboringBlockHitsL0(t *testing.T) {
	f := newFixture(t)
	f.read(t, f.dataAddr(0))
	// Next 512 B block: fresh versions line but same L0 line.
	_, lat, hit := f.read(t, f.dataAddr(512))
	if hit != HitL0 {
		t.Fatalf("neighboring block hit %v, want L0", hit)
	}
	if lat < 650 || lat > 880 {
		t.Fatalf("L0-hit latency %d, want ~750", lat)
	}
}

func TestStrideLaddersUpTheTree(t *testing.T) {
	f := newFixture(t)
	f.read(t, f.dataAddr(0))
	// 4 KB away: same L1, different L0.
	_, latL1, hit := f.read(t, f.dataAddr(4096))
	if hit != HitL1 {
		t.Fatalf("4KB-away read hit %v, want L1", hit)
	}
	// 32 KB away: same L2, different L1.
	_, latL2, hit := f.read(t, f.dataAddr(32<<10))
	if hit != HitL2 {
		t.Fatalf("32KB-away read hit %v, want L2", hit)
	}
	// 256 KB away: different L2 -> root.
	_, latRoot, hit := f.read(t, f.dataAddr(256<<10))
	if hit != HitRoot {
		t.Fatalf("256KB-away read hit %v, want root", hit)
	}
	if !(latL1 < latL2 && latL2 < latRoot) {
		t.Fatalf("latency not monotone in depth: L1=%d L2=%d root=%d", latL1, latL2, latRoot)
	}
}

func TestLatencyLevelSeparation(t *testing.T) {
	// Figure 5's modes must be separated by roughly one DRAM access (~270).
	f := newFixture(t)
	means := map[HitLevel][]sim.Cycles{}
	for trial := 0; trial < 40; trial++ {
		base := uint64(trial) * (1 << 20) // 1 MB apart: cold regions
		f.read(t, f.dataAddr(base))       // root walk warms the chain
		_, lv, h := f.read(t, f.dataAddr(base))
		if h == HitVersions {
			means[HitVersions] = append(means[HitVersions], lv)
		}
		_, l0, h0 := f.read(t, f.dataAddr(base+512))
		if h0 == HitL0 {
			means[HitL0] = append(means[HitL0], l0)
		}
	}
	avg := func(xs []sim.Cycles) float64 {
		var s sim.Cycles
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	if len(means[HitVersions]) == 0 || len(means[HitL0]) == 0 {
		t.Fatal("missing samples")
	}
	vh, l0h := avg(means[HitVersions]), avg(means[HitL0])
	gap := l0h - vh
	if gap < 220 || gap > 340 {
		t.Fatalf("versions-hit %.0f vs L0-hit %.0f: gap %.0f, want ~270", vh, l0h, gap)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFixture(t)
	a := f.dataAddr(4096 * 3)
	f.write(t, a, 0xAB)
	got, _, _ := f.read(t, a)
	for i, b := range got {
		if b != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, b)
		}
	}
}

func TestWriteBumpsVersionCiphertextChanges(t *testing.T) {
	f := newFixture(t)
	a := f.dataAddr(0)
	f.write(t, a, 0x11)
	ct1 := f.mem.ReadLine(a)
	f.write(t, a, 0x11) // same plaintext, new version
	ct2 := f.mem.ReadLine(a)
	if ct1 == ct2 {
		t.Fatal("rewriting identical plaintext produced identical ciphertext (version not bumped)")
	}
	got, _, _ := f.read(t, a)
	if got[0] != 0x11 {
		t.Fatal("roundtrip after double write failed")
	}
}

func TestFlushCacheWritebackThenVerifies(t *testing.T) {
	f := newFixture(t)
	// Dirty a bunch of versions/tag lines across several L0 regions.
	for i := uint64(0); i < 32; i++ {
		f.write(t, f.dataAddr(i*512), byte(i))
	}
	f.now += 100000
	f.eng.FlushCache(f.now, f.rng)
	if f.eng.Cache().ValidCount() != 0 {
		t.Fatal("MEE cache not empty after FlushCache")
	}
	// Every line must re-verify from DRAM (full chain walk) and decrypt.
	for i := uint64(0); i < 32; i++ {
		got, _, hit := f.read(t, f.dataAddr(i*512))
		if got[0] != byte(i) {
			t.Fatalf("line %d read %#x, want %#x", i, got[0], byte(i))
		}
		if i == 0 && hit != HitRoot {
			t.Fatalf("first read after flush hit %v, want root", hit)
		}
	}
}

func TestTamperCiphertextDetected(t *testing.T) {
	f := newFixture(t)
	a := f.dataAddr(512 * 5)
	f.write(t, a, 0x42)
	raw := f.mem.ReadLine(a)
	raw[7] ^= 0x01
	f.mem.WriteLine(a, raw)
	f.now += 100000
	_, _, _, err := f.eng.ReadData(f.now, f.rng, a)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered ciphertext read returned %v, want IntegrityError", err)
	}
	if f.eng.Stats().Violations == 0 {
		t.Fatal("violation not counted")
	}
}

func TestTamperVersionLineDetected(t *testing.T) {
	f := newFixture(t)
	a := f.dataAddr(512 * 9)
	f.write(t, a, 0x77)
	f.now += 100000
	f.eng.FlushCache(f.now, f.rng)
	vaddr := f.eng.Geometry().VersionLineAddr(a)
	raw := f.mem.ReadLine(vaddr)
	raw[0] ^= 0x80
	f.mem.WriteLine(vaddr, raw)
	f.now += 100000
	_, _, _, err := f.eng.ReadData(f.now, f.rng, a)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered versions line read returned %v, want IntegrityError", err)
	}
}

func TestReplayedVersionLineDetected(t *testing.T) {
	f := newFixture(t)
	a := f.dataAddr(512 * 13)
	f.write(t, a, 0x01)
	f.now += 100000
	f.eng.FlushCache(f.now, f.rng)
	vaddr := f.eng.Geometry().VersionLineAddr(a)
	old := f.mem.ReadLine(vaddr) // snapshot: version=1, MAC valid for parent counter now
	// Advance state: write again, flush (parent counter increments).
	f.write(t, a, 0x02)
	f.now += 100000
	f.eng.FlushCache(f.now, f.rng)
	// Replay the old versions line.
	f.mem.WriteLine(vaddr, old)
	f.now += 100000
	_, _, _, err := f.eng.ReadData(f.now, f.rng, a)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replayed versions line returned %v, want IntegrityError (freshness)", err)
	}
}

func TestCacheSetPlacementOddEven(t *testing.T) {
	f := newFixture(t)
	g := f.eng.Geometry()
	for i := uint64(0); i < 200; i++ {
		va := g.VersBase + dram.Addr(i*64)
		if s := f.eng.CacheSetFor(va); s%2 != 1 {
			t.Fatalf("versions line %d in even set %d", i, s)
		}
		ta := g.TagBase + dram.Addr(i*64)
		if s := f.eng.CacheSetFor(ta); s%2 != 0 {
			t.Fatalf("tag line %d in odd set %d", i, s)
		}
	}
	// Counter levels stay out of the versions (odd) sets so that Algorithm 1
	// discovers exactly 8 ways, as on the paper's hardware.
	for l := 0; l < itree.Levels; l++ {
		if s := f.eng.CacheSetFor(g.LevelBase[l]); s%2 != 0 {
			t.Fatalf("level %d line in odd set %d", l, s)
		}
	}
}

func TestVersionsConflictEviction(t *testing.T) {
	// 9 data addresses whose versions lines map to the same odd set
	// (version-line indices 64 apart => data addresses 32 KB apart)
	// overflow the 8 ways: at least one re-access misses.
	f := newFixture(t)
	const strideData = 64 * 512 // 64 versions lines apart = same set
	for i := uint64(0); i <= 8; i++ {
		f.read(t, f.dataAddr(i*strideData))
	}
	misses := 0
	for i := uint64(0); i <= 8; i++ {
		if _, _, hit := f.read(t, f.dataAddr(i*strideData)); hit != HitVersions {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("no versions line evicted from a 9-line conflict in an 8-way set")
	}
}

func TestEightWaySetMostlySurvives(t *testing.T) {
	// Exactly 8 distinct versions lines fit in one set; only occasional
	// interference from L0/L1/L2 lines sharing the odd sets (§4.1) may
	// displace a line or two.
	f := newFixture(t)
	const strideData = 64 * 512
	// Start at block 208 (offset 208*512): for this base the covering
	// L0/L1/L2 lines of all eight accesses map to different odd sets than
	// the versions lines do, so the only lines in the target set are the
	// eight versions lines themselves.
	const base = 208 * 512
	for i := uint64(0); i < 8; i++ {
		f.read(t, f.dataAddr(base+i*strideData))
	}
	hits := 0
	for i := uint64(0); i < 8; i++ {
		if _, _, hit := f.read(t, f.dataAddr(base+i*strideData)); hit == HitVersions {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("only %d of 8 versions lines survived a non-overflowing set", hits)
	}
}

func TestMEEPortContention(t *testing.T) {
	f := newFixture(t)
	a, b := f.dataAddr(0), f.dataAddr(1<<20)
	f.read(t, a)
	f.read(t, b)
	// Two concurrent accesses at the same instant: the second stalls.
	f.now += 100000
	_, lat1, _, err := f.eng.ReadData(f.now, f.rng, a)
	if err != nil {
		t.Fatal(err)
	}
	_, lat2, _, err := f.eng.ReadData(f.now, f.rng, b)
	if err != nil {
		t.Fatal(err)
	}
	if lat2 <= lat1 {
		t.Fatalf("concurrent access lat %d not delayed past first %d", lat2, lat1)
	}
	if f.eng.Stats().StallCyc == 0 {
		t.Fatal("no port stall recorded")
	}
}

func TestStatsHitAccounting(t *testing.T) {
	f := newFixture(t)
	f.read(t, f.dataAddr(0))
	f.read(t, f.dataAddr(0))
	st := f.eng.Stats()
	if st.Reads != 2 {
		t.Fatalf("reads=%d", st.Reads)
	}
	if st.HitsAt[HitRoot] != 1 || st.HitsAt[HitVersions] != 1 {
		t.Fatalf("hit histogram %v", st.HitsAt)
	}
}
