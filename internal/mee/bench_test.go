package mee

import (
	"math/rand/v2"
	"strings"
	"testing"

	"meecc/internal/dram"
	"meecc/internal/itree"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

func benchEngine(b *testing.B) (*Engine, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewPCG(11, 22))
	mem := dram.New(dram.DefaultConfig())
	geom, err := itree.NewGeometry(1<<30, 128<<20, 96<<20)
	if err != nil {
		b.Fatal(err)
	}
	return New(DefaultConfig(), geom, itree.NewCrypto([16]byte{1}), mem, rng), rng
}

// BenchmarkReadVersionsHit is the hot path of the whole simulation: a
// protected read whose versions line is cached.
func BenchmarkReadVersionsHit(b *testing.B) {
	e, rng := benchEngine(b)
	addr := e.Geometry().DataBase
	now := sim.Cycles(0)
	if _, _, _, err := e.ReadData(now, rng, addr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10000
		if _, _, _, err := e.ReadData(now, rng, addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadObserved is the warm read with a live observer attached: it
// both measures the instrumentation overhead against BenchmarkReadVersionsHit
// and reports the MEE cache hit rate as a custom metric. benchjson stores
// meeHits/op alongside the standard units, so the hit rate rides through
// ./ci.sh bench baselines like any other value.
func BenchmarkReadObserved(b *testing.B) {
	e, rng := benchEngine(b)
	o := obs.NewObserver()
	e.Observe(o)
	addr := e.Geometry().DataBase
	now := sim.Cycles(0)
	if _, _, _, err := e.ReadData(now, rng, addr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10000
		if _, _, _, err := e.ReadData(now, rng, addr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var hits uint64
	for name, v := range o.Snapshot().Counters {
		if strings.HasPrefix(name, "mee.hits.") {
			hits += v
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "meeHits/op")
}

// BenchmarkReadColdWalk measures the full root walk (every level fetched
// and verified with real AES MACs).
func BenchmarkReadColdWalk(b *testing.B) {
	e, rng := benchEngine(b)
	now := sim.Cycles(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10000
		addr := e.Geometry().DataBase + dram.Addr((i%300)*(256<<10))
		if _, _, _, err := e.ReadData(now, rng, addr); err != nil {
			b.Fatal(err)
		}
		if i%300 == 299 {
			b.StopTimer()
			e.FlushCache(now, rng)
			b.StartTimer()
		}
	}
}

// BenchmarkWriteData measures the protected write path (version bump,
// re-encrypt, re-MAC).
func BenchmarkWriteData(b *testing.B) {
	e, rng := benchEngine(b)
	var line [64]byte
	now := sim.Cycles(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10000
		addr := e.Geometry().DataBase + dram.Addr((i%64)*512)
		if _, _, err := e.WriteData(now, rng, addr, line); err != nil {
			b.Fatal(err)
		}
	}
}
