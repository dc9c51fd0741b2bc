// Package cpucache models the on-chip CPU cache hierarchy: per-core L1D and
// L2 plus a shared, inclusive last-level cache. The covert channel needs it
// for two reasons: enclave lines that hit in these caches never reach the
// MEE (challenge 1 in Section 3 of the paper), and clflush — which evicts a
// line from every level but does NOT touch the MEE cache — is what forces
// every probe to take the main-memory path.
//
// Functionally, the hierarchy keeps a plaintext mirror of every resident
// line; protected-region lines are decrypted by the MEE on fill and
// re-encrypted on dirty writeback, so DRAM only ever holds ciphertext for
// the protected region.
package cpucache

import (
	"fmt"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

// Level identifies where an access hit.
type Level int

const (
	HitL1 Level = iota
	HitL2
	HitLLC
	Miss
)

func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	default:
		return "miss"
	}
}

// Config describes the hierarchy's geometry and latencies (cycles). The
// defaults model the paper's i7-6700K (Skylake): 32 KB 8-way L1D, 256 KB
// 4-way L2, 8 MB 16-way shared inclusive LLC.
type Config struct {
	Cores   int
	L1Sets  int
	L1Ways  int
	L2Sets  int
	L2Ways  int
	LLCSets int
	LLCWays int

	L1Lat    float64
	L2Lat    float64
	LLCLat   float64
	MissLat  float64 // traversal cost charged before the memory system takes over
	FlushLat float64 // clflush cost as observed by the issuing core
}

// DefaultConfig returns the Skylake-like geometry for the given core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:  cores,
		L1Sets: 64, L1Ways: 8,
		L2Sets: 1024, L2Ways: 4,
		LLCSets: 8192, LLCWays: 16,
		L1Lat: 4, L2Lat: 14, LLCLat: 42, MissLat: 50, FlushLat: 35,
	}
}

// Victim is a line leaving the hierarchy toward memory. Pointers returned by
// Fill and Flush alias a scratch field inside the Hierarchy and are valid
// only until the next Fill, Flush, or Repage-driven drop; callers must
// consume (or copy) the victim before touching the hierarchy again.
type Victim struct {
	Addr  dram.Addr
	Data  [dram.LineSize]byte
	Dirty bool
}

type lineBuf struct {
	data  [dram.LineSize]byte
	dirty bool
	// valid marks the slot occupied; the slot index is implied by position
	// in the dense [set*ways+way] slab.
	valid bool
	// cores is a conservative mask of cores whose private L1/L2 may still
	// hold the line: a set bit means "maybe present", a clear bit means
	// "definitely absent". It lets flushes and back-invalidations skip the
	// private-cache scans that would find nothing — pure host-side
	// bookkeeping with no effect on simulated state or statistics (a no-op
	// Invalidate touches neither replacement state nor counters).
	cores uint16
}

// Hierarchy is the multi-core cache stack. Not safe for concurrent use; the
// simulation engine serializes all actors.
type Hierarchy struct {
	cfg Config
	l1  []*cache.Cache
	l2  []*cache.Cache
	llc *cache.Cache
	// bufs mirrors plaintext content and dirtiness of every LLC-resident
	// line (inclusive LLC means LLC residency == hierarchy residency). It is
	// one contiguous value slab indexed [set*ways+way] in parallel with the
	// LLC's line storage: the hot-path lookup is an array index, dropping a
	// line is clearing its valid bit, and Fork is a single slab copy.
	bufs []lineBuf
	// freeBufs tracks how deep the pointer-era recycling free list would be,
	// so the linebuf alloc/recycled observability counters keep their exact
	// historical semantics now that slots are slab-resident.
	freeBufs int
	// victim is the scratch Victim that Fill/Flush drops fill.
	victim Victim

	// Observability (nil when disabled): free-list churn and clflush
	// counters; per-level cache statistics surface as deferred samples.
	cBufAlloc   *obs.Counter
	cBufRecycle *obs.Counter
	cFlush      *obs.Counter
}

// countInstall and countDrop keep the linebuf churn counters bit-compatible
// with the pointer-era free list: an install recycles when a drop preceded
// it, and allocates otherwise.
func (h *Hierarchy) countInstall() {
	if h.freeBufs > 0 {
		h.freeBufs--
		h.cBufRecycle.Inc()
		return
	}
	h.cBufAlloc.Inc()
}

func (h *Hierarchy) countDrop() { h.freeBufs++ }

// allCores is the mask with every core's bit set.
func (h *Hierarchy) allCores() uint16 { return uint16(1)<<h.cfg.Cores - 1 }

// New builds the hierarchy. Every level uses true LRU replacement.
func New(cfg Config) *Hierarchy {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("cpucache: invalid core count %d", cfg.Cores))
	}
	if cfg.Cores > 16 {
		panic(fmt.Sprintf("cpucache: core count %d exceeds presence-mask width", cfg.Cores))
	}
	h := &Hierarchy{
		cfg:  cfg,
		llc:  cache.New("llc", cfg.LLCSets, cfg.LLCWays, cache.NewLRU()),
		bufs: make([]lineBuf, cfg.LLCSets*cfg.LLCWays),
	}
	for c := 0; c < cfg.Cores; c++ {
		h.l1 = append(h.l1, cache.New(fmt.Sprintf("l1d-%d", c), cfg.L1Sets, cfg.L1Ways, cache.NewLRU()))
		h.l2 = append(h.l2, cache.New(fmt.Sprintf("l2-%d", c), cfg.L2Sets, cfg.L2Ways, cache.NewLRU()))
	}
	return h
}

// Fork returns an independent deep copy of the hierarchy — every cache
// level's lines, replacement state and statistics, plus the plaintext line
// buffers — for platform forking. Observability is not carried over.
func (h *Hierarchy) Fork() *Hierarchy {
	n := &Hierarchy{
		cfg:  h.cfg,
		llc:  h.llc.Clone(nil),
		bufs: make([]lineBuf, len(h.bufs)),
	}
	for _, c := range h.l1 {
		n.l1 = append(n.l1, c.Clone(nil))
	}
	for _, c := range h.l2 {
		n.l2 = append(n.l2, c.Clone(nil))
	}
	copy(n.bufs, h.bufs) // value slab: one memcpy clones every resident line
	return n
}

// bufIdx maps an LLC location to its slot in the dense buffer array.
func (h *Hierarchy) bufIdx(set, way int) int { return set*h.cfg.LLCWays + way }

// residentBuf returns the buffer of an LLC-resident line without touching
// replacement state or statistics, or nil when absent.
func (h *Hierarchy) residentBuf(addr dram.Addr) *lineBuf {
	set := h.set(h.llc, addr)
	way, ok := h.llc.WayOf(set, h.tag(addr))
	if !ok {
		return nil
	}
	if b := &h.bufs[h.bufIdx(set, way)]; b.valid {
		return b
	}
	return nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Observe attaches an observer: the shared LLC gets the full per-cache
// sample set, the per-core L1/L2 stats are aggregated into summed samples,
// and the hot path gains only nil-checked counters for line-buffer churn and
// clflush. Safe to call with nil.
func (h *Hierarchy) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	h.llc.Observe(o, "llc")
	agg := func(name string, field func(cache.Stats) uint64, caches []*cache.Cache) {
		o.Sample(name, obs.Semantic, func() uint64 {
			var n uint64
			for _, c := range caches {
				n += field(c.Stats())
			}
			return n
		})
	}
	agg("cache.l1.hits", func(s cache.Stats) uint64 { return s.Hits }, h.l1)
	agg("cache.l1.misses", func(s cache.Stats) uint64 { return s.Misses }, h.l1)
	agg("cache.l2.hits", func(s cache.Stats) uint64 { return s.Hits }, h.l2)
	agg("cache.l2.misses", func(s cache.Stats) uint64 { return s.Misses }, h.l2)
	h.cBufAlloc = o.Counter("cpucache.linebuf.alloc")
	h.cBufRecycle = o.Counter("cpucache.linebuf.recycled")
	h.cFlush = o.Counter("cpucache.flushes")
}

// LLC exposes the shared cache for statistics and tests.
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// L1 exposes a core's L1D for tests.
func (h *Hierarchy) L1(core int) *cache.Cache { return h.l1[core] }

func lineAddr(addr dram.Addr) dram.Addr { return addr &^ (dram.LineSize - 1) }

func (h *Hierarchy) set(c *cache.Cache, addr dram.Addr) int {
	return int((uint64(addr) / dram.LineSize) % uint64(c.Sets()))
}

func (h *Hierarchy) tag(addr dram.Addr) cache.Tag {
	return cache.Tag(uint64(addr) / dram.LineSize)
}

// Access looks addr up for core. On any hit it refreshes the line into the
// upper levels, applies the write (marking the line dirty), and returns the
// hit level plus lookup latency. On a miss it returns (Miss, MissLat); the
// caller must fetch the line from the memory system and call Fill.
//
// Writes invalidate the line from every other core's private caches
// (MESI-style write-invalidate), so a reader on another core re-fetches
// from the LLC — the timing that makes the Figure 2(c) hyperthread timer
// cost its ~50 cycles per read.
func (h *Hierarchy) Access(core int, addr dram.Addr, write bool) (Level, sim.Cycles) {
	addr = lineAddr(addr)
	tag := h.tag(addr)
	lvl := Miss
	var lat sim.Cycles
	switch {
	case h.l1[core].Lookup(h.set(h.l1[core], addr), tag):
		h.touchShared(core, addr) // keep L2/LLC recency in sync
		lvl, lat = HitL1, sim.Cycles(h.cfg.L1Lat)
	case h.l2[core].Lookup(h.set(h.l2[core], addr), tag):
		h.l1[core].Insert(h.set(h.l1[core], addr), tag, false)
		h.llc.Lookup(h.set(h.llc, addr), tag)
		lvl, lat = HitL2, sim.Cycles(h.cfg.L2Lat)
	default:
		set := h.set(h.llc, addr)
		way, hit := h.llc.LookupWay(set, tag)
		if !hit {
			return Miss, sim.Cycles(h.cfg.MissLat)
		}
		h.l2[core].Insert(h.set(h.l2[core], addr), tag, false)
		h.l1[core].Insert(h.set(h.l1[core], addr), tag, false)
		h.bufs[h.bufIdx(set, way)].cores |= 1 << uint(core) // now privately resident here too
		lvl, lat = HitLLC, sim.Cycles(h.cfg.LLCLat)
	}
	if write {
		if b := h.residentBuf(addr); b != nil {
			b.dirty = true
			h.invalidateOthers(core, addr, b.cores)
			b.cores = 1 << uint(core) // sole private holder after write-invalidate
		} else {
			h.invalidateOthers(core, addr, h.allCores())
		}
	}
	return lvl, lat
}

// invalidateOthers drops the line from every core's private caches except
// the writer's; the line stays in the shared LLC. mask bounds the cores that
// can hold the line — scans for cores with a clear bit are guaranteed misses
// (no state or stat effect) and are skipped.
func (h *Hierarchy) invalidateOthers(writer int, addr dram.Addr, mask uint16) {
	tag := h.tag(addr)
	for c := 0; c < h.cfg.Cores; c++ {
		if c == writer || mask&(1<<uint(c)) == 0 {
			continue
		}
		h.l1[c].Invalidate(h.set(h.l1[c], addr), tag)
		h.l2[c].Invalidate(h.set(h.l2[c], addr), tag)
	}
}

func (h *Hierarchy) touchShared(core int, addr dram.Addr) {
	tag := h.tag(addr)
	h.l2[core].Lookup(h.set(h.l2[core], addr), tag)
	h.llc.Lookup(h.set(h.llc, addr), tag)
}

// Data returns the plaintext view of a resident line, or nil if the line is
// not cached. The returned slice aliases internal state; writes through it
// must be paired with a write Access so dirtiness is tracked.
func (h *Hierarchy) Data(addr dram.Addr) *[dram.LineSize]byte {
	if b := h.residentBuf(lineAddr(addr)); b != nil {
		return &b.data
	}
	return nil
}

// Fill installs a line fetched from the memory system into all three levels
// for core, returning any LLC victim that must be written back to memory.
// Inclusive-LLC semantics: the victim is back-invalidated from every core's
// private caches.
func (h *Hierarchy) Fill(core int, addr dram.Addr, data [dram.LineSize]byte, dirty bool) *Victim {
	addr = lineAddr(addr)
	tag := h.tag(addr)
	var victim *Victim
	set := h.set(h.llc, addr)
	way, ev := h.llc.InsertWay(set, tag, false)
	idx := h.bufIdx(set, way)
	mask := uint16(1) << uint(core)
	if ev.Valid {
		// The victim's buffer sits in the slot the new line just took; copy
		// it out before overwriting, then back-invalidate the private caches
		// (the LLC entry is already gone — Insert replaced it). The victim's
		// presence mask bounds which cores can still hold it privately.
		evAddr := dram.Addr(uint64(ev.Tag) * dram.LineSize)
		evTag := h.tag(evAddr)
		evb := h.bufs[idx]
		evMask := evb.cores
		if !evb.valid {
			evMask = h.allCores()
		}
		for c := 0; c < h.cfg.Cores; c++ {
			if evMask&(1<<uint(c)) == 0 {
				continue
			}
			h.l1[c].Invalidate(h.set(h.l1[c], evAddr), evTag)
			h.l2[c].Invalidate(h.set(h.l2[c], evAddr), evTag)
		}
		if evb.valid {
			h.victim = Victim{Addr: evAddr, Data: evb.data, Dirty: evb.dirty}
			h.countDrop()
			victim = &h.victim
		}
	} else if b := &h.bufs[idx]; b.valid {
		// Re-filling a still-resident line: other cores may hold it
		// privately, so their mask bits must survive.
		mask |= b.cores
	}
	h.l2[core].Insert(h.set(h.l2[core], addr), tag, false)
	h.l1[core].Insert(h.set(h.l1[core], addr), tag, false)
	h.countInstall()
	h.bufs[idx] = lineBuf{data: data, dirty: dirty, valid: true, cores: mask}
	return victim
}

// dropLine removes a line everywhere and returns it as a Victim (nil if the
// line had no buffer, which cannot happen in a consistent hierarchy). The
// returned pointer aliases the hierarchy's scratch Victim.
func (h *Hierarchy) dropLine(addr dram.Addr) *Victim {
	tag := h.tag(addr)
	set := h.set(h.llc, addr)
	way, _ := h.llc.InvalidateWay(set, tag)
	if way < 0 {
		// Not in the inclusive LLC; sweep the private caches anyway (the
		// historical behavior — a guaranteed no-op in a consistent hierarchy).
		for c := 0; c < h.cfg.Cores; c++ {
			h.l1[c].Invalidate(h.set(h.l1[c], addr), tag)
			h.l2[c].Invalidate(h.set(h.l2[c], addr), tag)
		}
		return nil
	}
	idx := h.bufIdx(set, way)
	b := h.bufs[idx]
	h.bufs[idx] = lineBuf{}
	mask := b.cores
	if !b.valid {
		mask = h.allCores()
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		h.l1[c].Invalidate(h.set(h.l1[c], addr), tag)
		h.l2[c].Invalidate(h.set(h.l2[c], addr), tag)
	}
	if !b.valid {
		return nil
	}
	h.countDrop()
	h.victim = Victim{Addr: addr, Data: b.data, Dirty: b.dirty}
	return &h.victim
}

// Flush implements clflush: the line is invalidated from every level of
// every core. It returns the victim (nil if the line was not cached) and
// the latency charged to the issuing core. The MEE cache is unaffected —
// that asymmetry is the paper's challenge 1.
func (h *Hierarchy) Flush(addr dram.Addr) (*Victim, sim.Cycles) {
	addr = lineAddr(addr)
	h.cFlush.Inc()
	lat := sim.Cycles(h.cfg.FlushLat)
	if h.residentBuf(addr) == nil {
		return nil, lat
	}
	return h.dropLine(addr), lat
}

// Resident reports whether addr's line is anywhere in the hierarchy.
func (h *Hierarchy) Resident(addr dram.Addr) bool {
	return h.residentBuf(lineAddr(addr)) != nil
}
