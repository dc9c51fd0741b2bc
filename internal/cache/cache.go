// Package cache provides a generic set-associative cache model with
// pluggable replacement policies. It is used for the CPU cache hierarchy
// (L1/L2/LLC) and for the MEE cache; callers own the address-to-set mapping,
// so the MEE's odd/even set split for versions and PD_Tag lines lives in the
// mee package, not here.
package cache

import (
	"fmt"
	"math/rand/v2"

	"meecc/internal/obs"
)

// Tag identifies a cache line. By convention it is the full line address
// (physical address >> log2(lineSize)), which keeps tags unique across sets
// and makes test assertions straightforward.
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
type Cache struct {
	// s holds everything that is copied on Clone and serialized: geometry,
	// the flat line and replacement slabs, and the counters.
	s     State
	kind  policyKind
	words int        // replacement words per set in s.Repl
	rng   *rand.Rand // victim source of randomized policies, else nil
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
	words := policy.kind.words(ways)
	c := &Cache{
		s: State{
			Name:       name,
			Sets:       sets,
			Ways:       ways,
			PolicyName: policy.Name(),
			Lines:      make([]Line, sets*ways),
			Repl:       make([]uint64, sets*words),
			EvBySet:    make([]uint64, sets),
		},
		kind:  policy.kind,
		words: words,
		rng:   policy.rng,
	}
	c.kind.initSlab(c.s.Repl)
	return c
}

// lines returns set's ways in the line slab.
func (c *Cache) lines(set int) []Line {
	i := set * c.s.Ways
	return c.s.Lines[i : i+c.s.Ways : i+c.s.Ways]
}

// repl returns set's words in the replacement slab.
func (c *Cache) repl(set int) []uint64 {
	i := set * c.words
	return c.s.Repl[i : i+c.words : i+c.words]
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.s.Name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.s.Sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.s.Ways }

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
	o.Sample(p+"hits", obs.Semantic, func() uint64 { return c.s.Stats.Hits })
	o.Sample(p+"misses", obs.Semantic, func() uint64 { return c.s.Stats.Misses })
	o.Sample(p+"fills", obs.Semantic, func() uint64 { return c.s.Stats.Fills })
	o.Sample(p+"evictions", obs.Semantic, func() uint64 { return c.s.Stats.Evictions })
	o.Sample(p+"writebacks_out", obs.Semantic, func() uint64 { return c.s.Stats.WritebacksOut })
	o.Sample(p+"invalidations", obs.Semantic, func() uint64 { return c.s.Stats.Invalidations })
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
func (c *Cache) Stats() Stats { return c.s.Stats }

// ResetStats zeroes the statistics counters, including per-set evictions.
func (c *Cache) ResetStats() {
	c.s.Stats = Stats{}
	for i := range c.s.EvBySet {
		c.s.EvBySet[i] = 0
	}
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
	if cap(dst) < len(c.s.EvBySet) {
		dst = make([]uint64, len(c.s.EvBySet))
	}
	dst = dst[:len(c.s.EvBySet)]
	copy(dst, c.s.EvBySet)
	return dst
}

// MaxSetEvictions returns the hottest set's eviction count and its index.
func (c *Cache) MaxSetEvictions() (set int, count uint64) {
	for s, n := range c.s.EvBySet {
		if n > count {
			set, count = s, n
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
func (c *Cache) LookupWay(set int, tag Tag) (way int, hit bool) {
	ws := c.lines(set)
	for w := range ws {
		if ws[w].Valid && ws[w].Tag == tag {
			c.touch(c.repl(set), w)
			c.s.Stats.Hits++
			return w, true
		}
	}
	c.s.Stats.Misses++
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
	ws := c.lines(set)
	for w := range ws {
		if ws[w].Valid && ws[w].Tag == tag {
			return w, true
		}
	}
	return -1, false
}

// MarkDirty sets the dirty bit of a resident line. It reports whether the
// line was present.
func (c *Cache) MarkDirty(set int, tag Tag) bool {
	ws := c.lines(set)
	for w := range ws {
		if ws[w].Valid && ws[w].Tag == tag {
			ws[w].Dirty = true
			return true
		}
	}
	return false
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
func (c *Cache) InsertWay(set int, tag Tag, dirty bool) (way int, evicted Line) {
	ws := c.lines(set)
	// Already present: refresh.
	for w := range ws {
		if ws[w].Valid && ws[w].Tag == tag {
			ws[w].Dirty = ws[w].Dirty || dirty
			c.touch(c.repl(set), w)
			return w, Line{}
		}
	}
	// Empty way available.
	for w := range ws {
		if !ws[w].Valid {
			ws[w] = Line{Tag: tag, Valid: true, Dirty: dirty}
			c.fill(c.repl(set), w)
			c.s.Stats.Fills++
			return w, Line{}
		}
	}
	// Evict a victim.
	r := c.repl(set)
	w := c.victim(r)
	evicted = ws[w]
	c.s.Stats.Evictions++
	c.s.EvBySet[set]++
	if evicted.Dirty {
		c.s.Stats.WritebacksOut++
	}
	ws[w] = Line{Tag: tag, Valid: true, Dirty: dirty}
	c.fill(r, w)
	c.s.Stats.Fills++
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
	ws := c.lines(set)
	for w := range ws {
		if ws[w].Valid && ws[w].Tag == tag {
			l := ws[w]
			ws[w] = Line{}
			c.invalidate(c.repl(set), w)
			c.s.Stats.Invalidations++
			if l.Dirty {
				c.s.Stats.WritebacksOut++
			}
			return w, l
		}
	}
	return -1, Line{}
}

// FlushAll invalidates every line, returning the dirty lines that would be
// written back.
func (c *Cache) FlushAll() []Line {
	var dirty []Line
	for set := 0; set < c.s.Sets; set++ {
		ws := c.lines(set)
		for w, l := range ws {
			if l.Valid {
				ws[w] = Line{}
				c.invalidate(c.repl(set), w)
				c.s.Stats.Invalidations++
				if l.Dirty {
					dirty = append(dirty, l)
					c.s.Stats.WritebacksOut++
				}
			}
		}
	}
	return dirty
}

// Clone returns an independent deep copy of the cache — lines, replacement
// state, statistics, and per-set eviction counters — for platform forking.
// Randomized policies (random, nru) draw the copy's victims from rng, which
// must be the fork's engine stream; nil makes a frozen copy that holds no
// random source and must be cloned again before it runs.
func (c *Cache) Clone(rng *rand.Rand) *Cache {
	n := &Cache{s: c.s.clone(), kind: c.kind, words: c.words}
	if c.kind.randomized() {
		n.rng = rng
	}
	return n
}

// SetContents returns a copy of the lines in a set, for tests and tools.
func (c *Cache) SetContents(set int) []Line {
	return append([]Line(nil), c.lines(set)...)
}

// ValidCount returns the number of valid lines in the whole cache.
func (c *Cache) ValidCount() int {
	n := 0
	for _, l := range c.s.Lines {
		if l.Valid {
			n++
		}
	}
	return n
}
