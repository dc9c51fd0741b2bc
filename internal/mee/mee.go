// Package mee models the Memory Encryption Engine: the hardware unit inside
// the memory controller that encrypts/decrypts protected-region traffic and
// verifies its integrity and freshness against the counter tree, caching
// recently verified tree lines in the MEE cache.
//
// The properties the covert channel exploits are implemented faithfully:
//
//   - the MEE cache is shared by all cores (it sits in the memory
//     controller, not in any core);
//   - every protected data access checks the covering versions line first,
//     and the tree walk stops at the first MEE-cache hit (Section 2.2 of the
//     paper), so access latency reveals the deepest cached level;
//   - versions lines occupy odd cache sets and PD_Tag/L0..L2 lines even sets
//     (Section 4.1);
//   - clflush does not touch the MEE cache — there is deliberately no flush
//     on the public access path;
//   - the engine is single-ported, so concurrent walks from different cores
//     serialize and contend.
package mee

import (
	"fmt"
	"math/rand/v2"

	"meecc/internal/cache"
	"meecc/internal/cow"
	"meecc/internal/dram"
	"meecc/internal/itree"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

// HitLevel reports the deepest integrity-tree level that hit in the MEE
// cache during a walk — the quantity Figure 5 of the paper histograms.
type HitLevel int

const (
	// HitVersions: the versions line itself was cached; fastest path.
	HitVersions HitLevel = iota
	// HitL0..HitL2: the walk fetched lower levels from DRAM and first hit
	// the cache at this level.
	HitL0
	HitL1
	HitL2
	// HitRoot: nothing was cached; the walk went all the way to the on-die
	// root counters.
	HitRoot
)

func (h HitLevel) String() string {
	switch h {
	case HitVersions:
		return "versions-hit"
	case HitL0:
		return "level0-hit"
	case HitL1:
		return "level1-hit"
	case HitL2:
		return "level2-hit"
	case HitRoot:
		return "root-access"
	default:
		return fmt.Sprintf("HitLevel(%d)", int(h))
	}
}

// IntegrityError reports a failed MAC verification — either real tampering
// (a test flipping DRAM bits) or a replay.
type IntegrityError struct {
	Addr dram.Addr
	Kind itree.NodeKind
	What string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("mee: integrity violation on %s line %#x: %s", e.Kind, e.Addr, e.What)
}

// Config sets the MEE cache organization and the timing model. The defaults
// reproduce the organization the paper reverse-engineers and its published
// latencies.
type Config struct {
	// CacheSets/CacheWays: 128 sets (64 odd for versions, 64 even for
	// tags/levels) of 8 ways — the organization §4 reverse-engineers.
	CacheSets int
	CacheWays int
	// Policy names the replacement policy ("" selects lru; the names are
	// cache.PolicyByName's). The paper assumes "approximate LRU"; we default
	// to true LRU because it reproduces the paper's phenomenology exactly —
	// in the 9-line/8-way musical chairs of Algorithm 2, a single forward
	// pass evicts the spy's monitor line only ~half the time (the eviction
	// cascade can close on an already-visited line), while the
	// forward+backward two-phase pass makes the monitor the oldest line by
	// the backward miss and evicts it deterministically. That is precisely
	// the failure mode §5.3's two-phase design exists to fix. Tree-PLRU is
	// available for ablations; being only path-wise recency-aware, it can
	// lock into cycles that never evict the monitor.
	Policy string

	// PipelineBase is the mean cost (cycles) of the MEE pipeline itself —
	// decryption, MAC checks, queueing inside the unit — added to every
	// protected access on top of the DRAM fetches.
	PipelineBase float64
	// LevelCheck is the extra verification cost per tree level fetched.
	LevelCheck float64
	// WriteExtra is added to protected writes (counter update, re-MAC).
	WriteExtra float64
	// PortOccupancy is how long one access occupies the engine's request
	// port. The MEE pipelines DRAM fetches of concurrent walks (those
	// contend at the banks instead), so only the crypto/check stage
	// serializes.
	PortOccupancy float64
	// JitterSigma is gaussian jitter on the pipeline cost.
	JitterSigma float64

	// RandomEvictProb, when positive, evicts one random MEE-cache line per
	// protected access with this probability — a noise-injection mitigation
	// evaluated in the extension experiments (§5.5 discussion).
	RandomEvictProb float64
}

// DefaultConfig returns the reverse-engineered organization (64 KB, 8-way,
// 128 sets — Section 4) with timing calibrated to Figure 5: ~480 cycles for
// a versions hit, ~+270 per additional tree level fetched.
func DefaultConfig() Config {
	return Config{
		CacheSets:     128,
		CacheWays:     8,
		PipelineBase:  230,
		LevelCheck:    20,
		WriteExtra:    60,
		PortOccupancy: 120,
		JitterSigma:   8,
	}
}

// policyName resolves the replacement policy's name, defaulting to lru.
func (c Config) policyName() string {
	if c.Policy == "" {
		return "lru"
	}
	return c.Policy
}

// Stats counts MEE events.
type Stats struct {
	Reads      uint64
	Writes     uint64
	HitsAt     [5]uint64 // indexed by HitLevel
	Writebacks uint64
	Violations uint64
	StallCyc   sim.Cycles
}

// Engine is the MEE instance for one memory controller.
type Engine struct {
	cfg   Config
	geom  itree.Geometry
	crypt *itree.Crypto
	mem   *dram.DRAM
	cache *cache.Cache

	// bufs mirrors the current content of every tree line resident in the
	// MEE cache (DRAM may be stale for dirty lines). It is a value slab
	// indexed [set][way] in parallel with the cache's line directory,
	// stored as copy-on-write set pages: the per-walk lookup is an array
	// index, dropping a line is clearing its slot, and Fork copies a page
	// directory. Every node-buffer pointer is taken through slot, which
	// owns the page first, so a pointer held across a walk never goes
	// stale by a later clone.
	bufs  cow.Slab[nodeBuf]
	nBufs int // resident count, for maybeRandomEvict's capacity/empty checks
	// freeBufs tracks how deep the pointer-era recycling free list would be,
	// so the nodebuf alloc/recycled observability counters keep their exact
	// historical semantics now that slots are slab-resident.
	freeBufs int
	// dataMemo and nodeMemo cache the most recent crypto result per line:
	// DataMAC/DecryptLine are pure functions of (address, version,
	// ciphertext) and NodeMAC of (address, parent counter, counters), so a
	// matching entry replays the result without re-running AES. The memos
	// are host-side caches only — they never affect simulated timing or
	// state, are excluded from snapshots, and are dropped on Fork (each
	// fork rebuilds its own; sharing would race across goroutines). Tamper
	// detection is unaffected: a tampered line differs in the memo key and
	// recomputes.
	dataMemo map[dram.Addr]*dataMemoEntry
	nodeMemo map[dram.Addr]nodeMemoEntry
	// root holds the on-die SRAM root counters — always trusted, always
	// current.
	root []uint64
	// initialized tracks tree lines whose DRAM image has been materialized
	// with valid MACs (lazy boot-time initialization): one bit per PRM line,
	// in copy-on-write pages shared across forks.
	initialized cow.Bits

	port  sim.Resource
	stats Stats

	// Observability (nil when disabled): free-list churn counters, the
	// requester-latency histogram, and the hit-level counter track. Stats
	// fields are surfaced as deferred samples instead (see Observe).
	cBufAlloc   *obs.Counter
	cBufRecycle *obs.Counter
	hReadLat    *obs.Histogram
	tr          *obs.Tracer
	nHitLevel   obs.NameID
}

// nodeBuf is the decoded content of a cached tree line. addr is the line's
// DRAM address, kept here so resident lines can be enumerated from the
// buffer slab alone (random eviction, cache flush). valid marks the
// slot occupied; the slot index is implied by position in the slab.
type nodeBuf struct {
	addr    dram.Addr
	kind    itree.NodeKind
	counter itree.CounterLine // for version/level lines
	tags    itree.TagLine     // for tag lines
	dirty   bool
	valid   bool
}

// dataMemoEntry is the memoized crypto result for one data line: the
// PD_Tag and plaintext of the given (version, ciphertext) pair.
type dataMemoEntry struct {
	version uint64
	ct      [itree.LineSize]byte
	mac     uint64
	plain   [itree.LineSize]byte
}

// nodeMemoEntry is the memoized embedded MAC of one counter line under the
// given parent counter and counter values.
type nodeMemoEntry struct {
	pc       uint64
	counters [itree.CountersPerLine]uint64
	mac      uint64
}

// nodeMAC computes (or replays) the embedded MAC of a counter line. Both
// verification and MAC production go through here, so a line written back
// and later reloaded verifies from the memo.
func (e *Engine) nodeMAC(addr dram.Addr, pc uint64, counters [itree.CountersPerLine]uint64) uint64 {
	if m, ok := e.nodeMemo[addr]; ok && m.pc == pc && m.counters == counters {
		return m.mac
	}
	mac := e.crypt.NodeMAC(addr, pc, counters)
	if e.nodeMemo == nil {
		e.nodeMemo = make(map[dram.Addr]nodeMemoEntry)
	}
	e.nodeMemo[addr] = nodeMemoEntry{pc: pc, counters: counters, mac: mac}
	return mac
}

// putDataMemo records the crypto result for a data line, reusing the
// existing entry's storage when present.
func (e *Engine) putDataMemo(addr dram.Addr, version uint64, ct [itree.LineSize]byte, mac uint64, plain [itree.LineSize]byte) {
	m := e.dataMemo[addr]
	if m == nil {
		if e.dataMemo == nil {
			e.dataMemo = make(map[dram.Addr]*dataMemoEntry)
		}
		m = &dataMemoEntry{}
		e.dataMemo[addr] = m
	}
	*m = dataMemoEntry{version: version, ct: ct, mac: mac, plain: plain}
}

// countInstall and countDrop keep the nodebuf churn counters bit-compatible
// with the pointer-era free list: an install recycles when a drop preceded
// it, and allocates otherwise.
func (e *Engine) countInstall() {
	if e.freeBufs > 0 {
		e.freeBufs--
		e.cBufRecycle.Inc()
		return
	}
	e.cBufAlloc.Inc()
}

func (e *Engine) countDrop() { e.freeBufs++ }

// New builds an MEE over the given geometry, crypto, and DRAM. rng is the
// engine's seeded stream, which randomized replacement policies draw their
// victims from. It panics on an unknown policy name.
func New(cfg Config, geom itree.Geometry, crypt *itree.Crypto, mem *dram.DRAM, rng *rand.Rand) *Engine {
	if cfg.CacheSets%2 != 0 {
		panic("mee: cache sets must be even (odd/even split)")
	}
	policy, err := cache.PolicyByName(cfg.policyName(), rng)
	if err != nil {
		panic(fmt.Sprintf("mee: %v", err))
	}
	return &Engine{
		cfg:         cfg,
		geom:        geom,
		crypt:       crypt,
		mem:         mem,
		cache:       cache.New("mee", cfg.CacheSets, cfg.CacheWays, policy),
		bufs:        cow.New[nodeBuf](cfg.CacheSets, cfg.CacheWays),
		root:        make([]uint64, geom.RootCounters),
		initialized: cow.NewBits(initWords(geom)),
	}
}

// initWords is the size in words of the initialized bitset.
func initWords(geom itree.Geometry) int { return int((geom.PRMSize/itree.LineSize + 63) / 64) }

// slot returns the node buffer of a cache location for reading and
// writing; its set page is cloned first if shared.
func (e *Engine) slot(set, way int) *nodeBuf { return &e.bufs.Own(set)[way] }

// Fork returns an independent copy of the engine for platform forking:
// cache contents and replacement state, resident node buffers, root
// counters, init bitmap, port, and statistics all carry over. The copy gets
// its own crypto scratch (same keys); mem rebinds it to the fork's DRAM
// view; rng rebinds randomized replacement policies and must be the forked
// engine's stream. Forking a frozen engine (from Snapshot or
// EngineFromState) only reads it, so it may be forked from several
// goroutines at once. Observability is not carried over — attach via
// Observe if needed.
func (e *Engine) Fork(mem *dram.DRAM, rng *rand.Rand) *Engine {
	n := e.copyWith(e.cache.Clone(rng))
	n.mem = mem
	n.bufs = e.bufs.Fork()
	n.initialized = e.initialized.Fork()
	return n
}

// Snapshot returns a frozen copy of the engine for a platform snapshot: it
// has no DRAM binding and never runs — Fork it. e keeps running; its MEE
// cache pages go copy-on-write against the frozen copy.
func (e *Engine) Snapshot() *Engine {
	n := e.copyWith(e.cache.Snapshot())
	n.bufs = e.bufs.Freeze()
	n.initialized = e.initialized.Freeze()
	return n
}

// copyWith copies the engine around an already-copied MEE cache.
func (e *Engine) copyWith(c *cache.Cache) *Engine {
	n := &Engine{
		cfg:   e.cfg,
		geom:  e.geom,
		crypt: e.crypt.Clone(),
		cache: c,
		nBufs: e.nBufs,
		root:  make([]uint64, len(e.root)),
		port:  e.port,
		stats: e.stats,
	}
	copy(n.root, e.root)
	return n
}

// Cache exposes the MEE cache for statistics and white-box tests.
func (e *Engine) Cache() *cache.Cache { return e.cache }

// Observe attaches an observer. The accumulated Stats (reads, writes,
// per-level hits, writebacks, violations, stall cycles) become deferred
// samples evaluated at snapshot time, so the walk hot path gains only the
// nil-checked free-list counters and one histogram observation per access.
// With a tracer attached, every data access also emits a sample on the
// "mee.hit_level" counter track — the per-access signal Figure 5 histograms.
// Safe to call with nil.
func (e *Engine) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	o.Sample("mee.reads", obs.Semantic, func() uint64 { return e.stats.Reads })
	o.Sample("mee.writes", obs.Semantic, func() uint64 { return e.stats.Writes })
	o.Sample("mee.writebacks", obs.Semantic, func() uint64 { return e.stats.Writebacks })
	o.Sample("mee.violations", obs.Semantic, func() uint64 { return e.stats.Violations })
	o.Sample("mee.stall_cycles", obs.Semantic, func() uint64 { return uint64(e.stats.StallCyc) })
	for h := HitVersions; h <= HitRoot; h++ {
		h := h
		o.Sample("mee.hits."+h.String(), obs.Semantic, func() uint64 { return e.stats.HitsAt[h] })
	}
	e.cBufAlloc = o.Counter("mee.nodebuf.alloc")
	e.cBufRecycle = o.Counter("mee.nodebuf.recycled")
	e.hReadLat = o.Histogram("mee.read_latency")
	e.cache.Observe(o, "mee")
	e.tr = o.Tracer()
	e.nHitLevel = e.tr.Name("mee.hit_level")
}

// Geometry returns the integrity-tree geometry.
func (e *Engine) Geometry() *itree.Geometry { return &e.geom }

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the statistics.
func (e *Engine) ResetStats() { e.stats = Stats{}; e.cache.ResetStats() }

// CacheSetFor reports the MEE cache set a tree line maps to. Versions lines
// live in odd sets; PD_Tag lines and the L0..L2 counter lines live in even
// sets (§4.1 of the paper reverse-engineers the versions/PD_Tag split; the
// upper levels' placement is not published). Keeping the upper levels out of
// the versions sets is required for Algorithm 1 to discover exactly 8 ways,
// as the paper does: if L0 lines shared versions sets, every candidate pass
// would carry one extra odd-set fill and cap index sets at 7. The residual
// "versions data eviction caused by other levels" the paper mentions shows
// up in our model through PD_Tag pressure and PLRU dynamics instead.
func (e *Engine) CacheSetFor(addr dram.Addr) int {
	lineIdx := uint64(addr) / itree.LineSize
	half := uint64(e.cfg.CacheSets / 2)
	if e.geom.Classify(addr) == itree.KindVersion {
		return int(2*(lineIdx%half)) + 1
	}
	return int(2 * (lineIdx % half))
}

func (e *Engine) cacheTag(addr dram.Addr) cache.Tag {
	return cache.Tag(uint64(addr) / itree.LineSize)
}

// walker accumulates latency for one protected access. In postedMode (used
// for writebacks and background flushes) DRAM traffic occupies banks but
// adds no requester latency, and hit-level accounting is suppressed.
type walker struct {
	e          *Engine
	rng        *rand.Rand
	now        sim.Cycles // start time of the access
	lat        sim.Cycles // accumulated serial latency
	hit        HitLevel   // deepest level that hit (set once, by the first hit)
	set        bool
	postedMode bool
}

func (w *walker) dram(addr dram.Addr, write bool) {
	if w.postedMode {
		w.posted(addr, write)
		return
	}
	w.lat += w.e.mem.Access(w.now+w.lat, w.rng, addr, write)
}

// posted performs a DRAM access that occupies the bank but does not delay
// the requester (posted writes / background writebacks).
func (w *walker) posted(addr dram.Addr, write bool) {
	_ = w.e.mem.Access(w.now+w.lat, w.rng, addr, write)
}

func (w *walker) markHit(h HitLevel) {
	if w.postedMode || w.set {
		return
	}
	w.hit = h
	w.set = true
}

// ReadData performs a protected-region read of the 64-byte line containing
// addr, starting at cycle now. It returns the decrypted line, the total
// latency the requesting core observes (including MEE port contention), and
// the hit level for instrumentation.
func (e *Engine) ReadData(now sim.Cycles, rng *rand.Rand, addr dram.Addr) ([itree.LineSize]byte, sim.Cycles, HitLevel, error) {
	addr &^= itree.LineSize - 1
	if !e.geom.ContainsData(addr) {
		panic(fmt.Sprintf("mee: ReadData at %#x outside protected region", addr))
	}
	e.stats.Reads++
	w := &walker{e: e, rng: rng, now: now}
	e.maybeRandomEvict(w)

	// Data ciphertext fetch from DRAM (the MEE never caches data lines).
	w.dram(addr, false)
	ct := e.mem.ReadLine(addr)

	// Versions walk: stops at the first MEE-cache hit.
	vline, err := e.loadVersions(w, addr)
	if err != nil {
		return [itree.LineSize]byte{}, w.lat, w.hit, err
	}
	slot := e.geom.VersionSlot(addr)
	version := vline.counter.Counters[slot]

	// PD_Tag check. The tag fetch overlaps the data fetch in the real
	// pipeline, so it adds no serial latency, but it does occupy a DRAM
	// bank on a miss and consumes even-set cache capacity.
	tline, err := e.loadTags(w, addr)
	if err != nil {
		return [itree.LineSize]byte{}, w.lat, w.hit, err
	}
	m := e.dataMemo[addr]
	memoHit := m != nil && m.version == version && m.ct == ct
	var want uint64
	if memoHit {
		want = m.mac
	} else {
		want = e.crypt.DataMAC(addr, version, ct)
	}
	if tline.tags.Tags[slot] != want {
		e.stats.Violations++
		return [itree.LineSize]byte{}, w.lat, w.hit, &IntegrityError{Addr: addr, Kind: itree.KindData, What: "PD_Tag mismatch"}
	}
	var plain [itree.LineSize]byte
	if memoHit {
		plain = m.plain
	} else {
		plain = e.crypt.DecryptLine(addr, version, ct)
		e.putDataMemo(addr, version, ct, want, plain)
	}

	// MEE pipeline cost and port serialization (crypto stage only; DRAM
	// fetches of concurrent walks overlap and contend at the banks).
	w.lat += sim.Gauss(rng, e.cfg.PipelineBase, e.cfg.JitterSigma)
	stall := e.port.Acquire(now, e.portOccupancy())
	e.stats.StallCyc += stall
	e.stats.HitsAt[w.hit]++
	e.hReadLat.Observe(int64(stall + w.lat))
	if e.tr != nil {
		e.tr.Count(e.nHitLevel, int64(now), int64(w.hit))
	}
	return plain, stall + w.lat, w.hit, nil
}

// portOccupancy bounds how long one request holds the MEE port.
func (e *Engine) portOccupancy() sim.Cycles {
	if e.cfg.PortOccupancy <= 0 {
		return 1
	}
	return sim.Cycles(e.cfg.PortOccupancy)
}

// WriteData performs a protected-region write of the full line at addr:
// version increment, re-encryption, PD_Tag recompute. The new ciphertext
// write to DRAM is posted.
func (e *Engine) WriteData(now sim.Cycles, rng *rand.Rand, addr dram.Addr, plain [itree.LineSize]byte) (sim.Cycles, HitLevel, error) {
	addr &^= itree.LineSize - 1
	if !e.geom.ContainsData(addr) {
		panic(fmt.Sprintf("mee: WriteData at %#x outside protected region", addr))
	}
	e.stats.Writes++
	w := &walker{e: e, rng: rng, now: now}
	e.maybeRandomEvict(w)

	vline, err := e.loadVersions(w, addr)
	if err != nil {
		return w.lat, w.hit, err
	}
	slot := e.geom.VersionSlot(addr)
	if vline.counter.Counters[slot] >= itree.CounterMax {
		return w.lat, w.hit, fmt.Errorf("mee: version counter overflow at %#x (re-key required)", addr)
	}
	vline.counter.Counters[slot]++
	vline.dirty = true
	version := vline.counter.Counters[slot]

	ct := e.crypt.EncryptLine(addr, version, plain)
	e.mem.WriteLine(addr, ct)
	w.posted(addr, true)

	tline, err := e.loadTags(w, addr)
	if err != nil {
		return w.lat, w.hit, err
	}
	mac := e.crypt.DataMAC(addr, version, ct)
	tline.tags.Tags[slot] = mac
	tline.dirty = true
	e.putDataMemo(addr, version, ct, mac, plain)

	w.lat += sim.Gauss(rng, e.cfg.PipelineBase+e.cfg.WriteExtra, e.cfg.JitterSigma)
	stall := e.port.Acquire(now, e.portOccupancy())
	e.stats.StallCyc += stall
	e.stats.HitsAt[w.hit]++
	if e.tr != nil {
		e.tr.Count(e.nHitLevel, int64(now), int64(w.hit))
	}
	return stall + w.lat, w.hit, nil
}
