// Package cache provides a generic set-associative cache model with
// pluggable replacement policies. It is used for the CPU cache hierarchy
// (L1/L2/LLC) and for the MEE cache; callers own the address-to-set mapping,
// so the MEE's odd/even set split for versions and PD_Tag lines lives in the
// mee package, not here.
package cache

import (
	"fmt"
	"math/rand/v2"

	"meecc/internal/cow"
	"meecc/internal/obs"
)

// Tag identifies a cache line. By convention it is the full line address
// (physical address >> log2(lineSize)), which keeps tags unique across sets
// and makes test assertions straightforward. Tags must be below 2^62.
type Tag uint64

// Line is one cache line's bookkeeping. The data payload lives in the
// backing store (DRAM model); caches here track presence and dirtiness only,
// which is all the timing channel needs.
type Line struct {
	Tag   Tag
	Valid bool
	Dirty bool
}

// Stats accumulates cache event counts.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Fills         uint64
	Evictions     uint64
	WritebacksOut uint64 // dirty evictions + dirty invalidations
	Invalidations uint64
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulation engine serializes all actors, so no locking is needed.
//
// Each set is one record of words in a copy-on-write slab (internal/cow):
// its ways' lines, packed one word each (see pack), then the policy's
// replacement words. A clone shares every page of sets with its source
// until one side writes a set, so forking an 8192-set LLC copies two small
// page directories, and a fresh cache allocates no page until a set is
// first written.
type Cache struct {
	name       string
	sets, ways int
	policy     string
	slab       cow.Slab[uint64] // per set: ways line words, then replacement words
	evBySet    cow.Slab[uint64] // one counter per set
	stats      Stats
	kind       policyKind
	rng        *rand.Rand // victim source of randomized policies, else nil
}

// A resident line is packed into one word: the tag in the low 62 bits, then
// the dirty and valid flags. Tags are line addresses, far below 2^62; the
// zero word is an empty way.
const (
	dirtyBit = 1 << 62
	validBit = 1 << 63
	tagMask  = dirtyBit - 1
)

func pack(l Line) uint64 {
	w := uint64(l.Tag)
	if l.Valid {
		w |= validBit
	}
	if l.Dirty {
		w |= dirtyBit
	}
	return w
}

func unpack(w uint64) Line {
	return Line{Tag: Tag(w & tagMask), Valid: w&validBit != 0, Dirty: w&dirtyBit != 0}
}

// New builds a cache with the given geometry and replacement policy.
// sets and ways must be positive; tree-PLRU additionally requires ways to be
// a power of two, and the bit-per-way policies at most 64 ways.
func New(name string, sets, ways int, policy Policy) *Cache {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %dx%d", name, sets, ways))
	}
	if err := policy.kind.checkWays(ways); err != nil {
		panic(fmt.Sprintf("cache %s: %v", name, err))
	}
	return &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		policy:  policy.Name(),
		slab:    cow.New[uint64](sets, ways+policy.kind.words(ways)),
		evBySet: cow.New[uint64](sets, 1),
		kind:    policy.kind,
		rng:     policy.rng,
	}
}

// find returns the way of rec (a set record, nil for an untouched set)
// holding tag, or -1.
func (c *Cache) find(rec []uint64, tag Tag) int {
	if rec == nil {
		return -1
	}
	want := uint64(tag) | validBit
	for w, x := range rec[:c.ways] {
		if x&^dirtyBit == want {
			return w
		}
	}
	return -1
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Observe registers the cache's counters with an observer as deferred
// samples under "cache.<prefix>.": nothing is added to the lookup/insert hot
// path — the existing Stats fields are simply read at snapshot time. The
// eviction-by-set distribution is summarized as the hottest set and its
// eviction count, the signal the Prime+Probe channel rides on. Safe with a
// nil observer.
func (c *Cache) Observe(o *obs.Observer, prefix string) {
	if o == nil {
		return
	}
	p := "cache." + prefix + "."
	o.Sample(p+"hits", obs.Semantic, func() uint64 { return c.stats.Hits })
	o.Sample(p+"misses", obs.Semantic, func() uint64 { return c.stats.Misses })
	o.Sample(p+"fills", obs.Semantic, func() uint64 { return c.stats.Fills })
	o.Sample(p+"evictions", obs.Semantic, func() uint64 { return c.stats.Evictions })
	o.Sample(p+"writebacks_out", obs.Semantic, func() uint64 { return c.stats.WritebacksOut })
	o.Sample(p+"invalidations", obs.Semantic, func() uint64 { return c.stats.Invalidations })
	o.Sample(p+"hot_set", obs.Semantic, func() uint64 {
		set, _ := c.MaxSetEvictions()
		return uint64(set)
	})
	o.Sample(p+"hot_set_evictions", obs.Semantic, func() uint64 {
		_, n := c.MaxSetEvictions()
		return n
	})
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics counters, including per-set evictions.
// The eviction-counter pages are dropped rather than zeroed, so a reset
// copies nothing, even in a fork that still shares them.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	c.evBySet.Clear()
}

// EvictionsBySet returns a copy of the per-set conflict-eviction counters —
// the signal hardware-performance-counter detectors of cache attacks watch
// for (a covert channel hammers one set; benign traffic spreads out).
func (c *Cache) EvictionsBySet() []uint64 {
	return c.EvictionsBySetInto(nil)
}

// EvictionsBySetInto copies the per-set eviction counters into dst, growing
// it only if its capacity is insufficient, and returns the filled slice.
// Periodic samplers (e.g. the detect monitor) pass their previous buffer to
// keep the polling loop allocation-free.
func (c *Cache) EvictionsBySetInto(dst []uint64) []uint64 {
	return c.evBySet.Flatten(dst)
}

// MaxSetEvictions returns the hottest set's eviction count and its index.
func (c *Cache) MaxSetEvictions() (set int, count uint64) {
	for s := 0; s < c.sets; s++ {
		if n := c.evBySet.Get(s); n != nil && n[0] > count {
			set, count = s, n[0]
		}
	}
	return set, count
}

// Lookup probes set for tag. On a hit it updates replacement state and
// returns true. On a miss it returns false and does not modify the cache.
func (c *Cache) Lookup(set int, tag Tag) bool {
	_, hit := c.LookupWay(set, tag)
	return hit
}

// LookupWay is Lookup returning the resident way on a hit, so callers that
// keep per-line side data in dense [set][way] arrays (the MEE node buffers,
// the cpucache plaintext buffers) can index it without a map. way is -1 on a
// miss.
//
// A lookup owns the set's page even on a miss (contents unchanged): every
// caller fills the set after a miss, so the page would be cloned anyway,
// and one page access per lookup is measurably cheaper than two.
func (c *Cache) LookupWay(set int, tag Tag) (way int, hit bool) {
	rec := c.slab.Own(set)
	if w := c.find(rec, tag); w >= 0 {
		c.touch(rec[c.ways:], w)
		c.stats.Hits++
		return w, true
	}
	c.stats.Misses++
	return -1, false
}

// Contains probes set for tag without updating replacement state or stats.
func (c *Cache) Contains(set int, tag Tag) bool {
	_, ok := c.WayOf(set, tag)
	return ok
}

// WayOf returns the way holding tag without updating replacement state or
// stats (Contains with the way exposed). way is -1 when absent.
func (c *Cache) WayOf(set int, tag Tag) (way int, ok bool) {
	w := c.find(c.slab.Get(set), tag)
	return w, w >= 0
}

// MarkDirty sets the dirty bit of a resident line. It reports whether the
// line was present.
func (c *Cache) MarkDirty(set int, tag Tag) bool {
	w, ok := c.WayOf(set, tag)
	if ok {
		c.slab.Own(set)[w] |= dirtyBit
	}
	return ok
}

// Insert fills tag into set, evicting if necessary. It returns the evicted
// line (Valid=false if an empty way was used). The inserted line's dirty bit
// is set from dirty. Inserting a tag that is already resident just touches
// it (and ORs in the dirty bit).
func (c *Cache) Insert(set int, tag Tag, dirty bool) (evicted Line) {
	_, evicted = c.InsertWay(set, tag, dirty)
	return evicted
}

// InsertWay is Insert returning the way the line landed in, so callers with
// dense [set][way] side data can place the line's payload without a map.
// It panics on a tag of 2^62 or more (see Tag).
func (c *Cache) InsertWay(set int, tag Tag, dirty bool) (way int, evicted Line) {
	var d uint64
	if dirty {
		d = dirtyBit
	}
	if tag > tagMask {
		panic(fmt.Sprintf("cache %s: tag %#x exceeds 62 bits", c.name, tag))
	}
	rec := c.slab.Own(set)
	ws, r := rec[:c.ways], rec[c.ways:]
	// Already present: refresh.
	if w := c.find(rec, tag); w >= 0 {
		ws[w] |= d
		c.touch(r, w)
		return w, Line{}
	}
	line := uint64(tag) | validBit | d
	// Empty way available.
	for w, x := range ws {
		if x&validBit == 0 {
			ws[w] = line
			c.fill(r, w)
			c.stats.Fills++
			return w, Line{}
		}
	}
	// Evict a victim.
	w := c.victim(r)
	evicted = unpack(ws[w])
	c.stats.Evictions++
	c.evBySet.Own(set)[0]++
	if evicted.Dirty {
		c.stats.WritebacksOut++
	}
	ws[w] = line
	c.fill(r, w)
	c.stats.Fills++
	return w, evicted
}

// Invalidate removes tag from set (clflush semantics). It returns the line
// that was removed; Valid=false means the tag was not resident. Dirty
// removals count as writebacks.
func (c *Cache) Invalidate(set int, tag Tag) Line {
	_, l := c.InvalidateWay(set, tag)
	return l
}

// InvalidateWay is Invalidate returning the way the line was removed from
// (-1 when the tag was not resident).
func (c *Cache) InvalidateWay(set int, tag Tag) (way int, removed Line) {
	w, ok := c.WayOf(set, tag)
	if !ok {
		return -1, Line{}
	}
	rec := c.slab.Own(set)
	l := unpack(rec[w])
	rec[w] = 0
	c.invalidate(rec[c.ways:], w)
	c.stats.Invalidations++
	if l.Dirty {
		c.stats.WritebacksOut++
	}
	return w, l
}

// FlushAll invalidates every line, returning the dirty lines that would be
// written back.
func (c *Cache) FlushAll() []Line {
	var dirty []Line
	for set := 0; set < c.sets; set++ {
		rec := c.slab.Get(set)
		for w := 0; rec != nil && w < c.ways; w++ {
			if l := unpack(rec[w]); l.Valid {
				rec = c.slab.Own(set)
				rec[w] = 0
				c.invalidate(rec[c.ways:], w)
				c.stats.Invalidations++
				if l.Dirty {
					dirty = append(dirty, l)
					c.stats.WritebacksOut++
				}
			}
		}
	}
	return dirty
}

// Clone returns an independent copy of the cache — lines, replacement
// state, statistics, and per-set eviction counters — for platform forking.
// The copy shares every set page with c until either side writes it. A live
// c moves to a fresh page generation; a frozen c (from Snapshot or
// FromState) is only read, so it may be cloned from several goroutines at
// once. Randomized policies (random, nru) draw the copy's victims from rng,
// which must be the fork's engine stream.
func (c *Cache) Clone(rng *rand.Rand) *Cache {
	n := c.copyHeader()
	n.slab, n.evBySet = c.slab.Fork(), c.evBySet.Fork()
	if c.kind.randomized() {
		n.rng = rng
	}
	return n
}

// Snapshot returns a frozen copy of the cache: it shares every set page
// with c, holds no random source, and never runs — Clone it to get a
// runnable cache. c keeps running on a fresh page generation, cloning each
// shared page before its first write.
func (c *Cache) Snapshot() *Cache {
	n := c.copyHeader()
	n.slab, n.evBySet = c.slab.Freeze(), c.evBySet.Freeze()
	return n
}

// copyHeader copies everything but the set pages and the random source.
func (c *Cache) copyHeader() *Cache {
	return &Cache{name: c.name, sets: c.sets, ways: c.ways, policy: c.policy, stats: c.stats, kind: c.kind}
}

// SetContents returns a copy of the lines in a set, for tests and tools.
func (c *Cache) SetContents(set int) []Line {
	ws := make([]Line, c.ways)
	if rec := c.slab.Get(set); rec != nil {
		for w := range ws {
			ws[w] = unpack(rec[w])
		}
	}
	return ws
}

// ValidCount returns the number of valid lines in the whole cache.
func (c *Cache) ValidCount() int {
	n := 0
	for set := 0; set < c.sets; set++ {
		if rec := c.slab.Get(set); rec != nil {
			for _, x := range rec[:c.ways] {
				if x&validBit != 0 {
					n++
				}
			}
		}
	}
	return n
}
