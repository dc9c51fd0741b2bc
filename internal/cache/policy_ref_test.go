package cache

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// This file preserves the per-set, object-per-set replacement model the flat
// slab replaced: one heap-allocated state per set behind an interface, each
// policy with its own Clone/SaveWords/LoadWords. It is the reference oracle
// for TestFlatPolicyMatchesReference; the state logic below is kept as it
// was, so any behavioral drift in the slab implementation shows up as a
// divergence there.

// refSetState is the replacement bookkeeping for one set.
type refSetState interface {
	Touch(way int)
	Fill(way int)
	Victim() int
	Invalidate(way int)
	Clone(rng *rand.Rand) refSetState
	SaveWords() []uint64
	LoadWords(ws []uint64) error
}

// refNewSetState builds a fresh reference state for policy name.
func refNewSetState(name string, ways int, rng *rand.Rand) refSetState {
	switch name {
	case "lru":
		return &lruState{stamp: make([]uint64, ways)}
	case "fifo":
		return &fifoState{stamp: make([]uint64, ways)}
	case "tree-plru":
		if ways&(ways-1) != 0 {
			panic(fmt.Sprintf("tree-plru requires power-of-two ways, got %d", ways))
		}
		return &treePLRUState{ways: ways, bits: make([]bool, ways-1)}
	case "bit-plru":
		return &bitPLRUState{mru: make([]bool, ways)}
	case "random":
		return &randomState{ways: ways, rng: rng}
	case "nru":
		return &nruState{ref: make([]bool, ways), rng: rng}
	case "srrip":
		st := &srripState{rrpv: make([]uint8, ways)}
		for i := range st.rrpv {
			st.rrpv[i] = srripMax
		}
		return st
	}
	panic("unknown reference policy " + name)
}

func wordLenError(policy string, got, want int) error {
	return fmt.Errorf("cache: %s state: %d words, want %d", policy, got, want)
}

func boolsToWords(bs []bool) []uint64 {
	ws := make([]uint64, len(bs))
	for i, b := range bs {
		if b {
			ws[i] = 1
		}
	}
	return ws
}

func wordsToBools(dst []bool, ws []uint64) {
	for i, w := range ws {
		dst[i] = w != 0
	}
}

// ---------------------------------------------------------------------------
// True LRU

type lruState struct {
	stamp []uint64
	tick  uint64
}

func (s *lruState) Touch(way int) { s.tick++; s.stamp[way] = s.tick }
func (s *lruState) Fill(way int)  { s.Touch(way) }
func (s *lruState) Victim() int {
	best, bestStamp := 0, s.stamp[0]
	for w := 1; w < len(s.stamp); w++ {
		if s.stamp[w] < bestStamp {
			best, bestStamp = w, s.stamp[w]
		}
	}
	return best
}
func (s *lruState) Invalidate(way int) { s.stamp[way] = 0 }
func (s *lruState) Clone(*rand.Rand) refSetState {
	c := &lruState{stamp: make([]uint64, len(s.stamp)), tick: s.tick}
	copy(c.stamp, s.stamp)
	return c
}
func (s *lruState) SaveWords() []uint64 {
	return append([]uint64{s.tick}, s.stamp...)
}
func (s *lruState) LoadWords(ws []uint64) error {
	if len(ws) != 1+len(s.stamp) {
		return wordLenError("lru", len(ws), 1+len(s.stamp))
	}
	s.tick = ws[0]
	copy(s.stamp, ws[1:])
	return nil
}

// ---------------------------------------------------------------------------
// FIFO

type fifoState struct {
	stamp []uint64
	tick  uint64
}

func (s *fifoState) Touch(int)    {}
func (s *fifoState) Fill(way int) { s.tick++; s.stamp[way] = s.tick }
func (s *fifoState) Victim() int {
	best, bestStamp := 0, s.stamp[0]
	for w := 1; w < len(s.stamp); w++ {
		if s.stamp[w] < bestStamp {
			best, bestStamp = w, s.stamp[w]
		}
	}
	return best
}
func (s *fifoState) Invalidate(way int) { s.stamp[way] = 0 }
func (s *fifoState) Clone(*rand.Rand) refSetState {
	c := &fifoState{stamp: make([]uint64, len(s.stamp)), tick: s.tick}
	copy(c.stamp, s.stamp)
	return c
}
func (s *fifoState) SaveWords() []uint64 {
	return append([]uint64{s.tick}, s.stamp...)
}
func (s *fifoState) LoadWords(ws []uint64) error {
	if len(ws) != 1+len(s.stamp) {
		return wordLenError("fifo", len(ws), 1+len(s.stamp))
	}
	s.tick = ws[0]
	copy(s.stamp, ws[1:])
	return nil
}

// ---------------------------------------------------------------------------
// Tree-PLRU

type treePLRUState struct {
	ways int
	bits []bool
}

func (s *treePLRUState) Touch(way int) {
	node := 0
	for span := s.ways / 2; span >= 1; span /= 2 {
		right := way&span != 0
		s.bits[node] = !right
		if right {
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
		if span == 1 {
			break
		}
	}
}

func (s *treePLRUState) Fill(way int) { s.Touch(way) }

func (s *treePLRUState) Victim() int {
	node, way := 0, 0
	for span := s.ways / 2; span >= 1; span /= 2 {
		if s.bits[node] {
			way |= span
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
		if span == 1 {
			break
		}
	}
	return way
}

func (s *treePLRUState) Invalidate(int) {}
func (s *treePLRUState) Clone(*rand.Rand) refSetState {
	c := &treePLRUState{ways: s.ways, bits: make([]bool, len(s.bits))}
	copy(c.bits, s.bits)
	return c
}
func (s *treePLRUState) SaveWords() []uint64 { return boolsToWords(s.bits) }
func (s *treePLRUState) LoadWords(ws []uint64) error {
	if len(ws) != len(s.bits) {
		return wordLenError("tree-plru", len(ws), len(s.bits))
	}
	wordsToBools(s.bits, ws)
	return nil
}

// ---------------------------------------------------------------------------
// Bit-PLRU (MRU bits)

type bitPLRUState struct{ mru []bool }

func (s *bitPLRUState) Touch(way int) {
	s.mru[way] = true
	for _, b := range s.mru {
		if !b {
			return
		}
	}
	for w := range s.mru {
		s.mru[w] = false
	}
	s.mru[way] = true
}
func (s *bitPLRUState) Fill(way int) { s.Touch(way) }
func (s *bitPLRUState) Victim() int {
	for w, b := range s.mru {
		if !b {
			return w
		}
	}
	return 0
}
func (s *bitPLRUState) Invalidate(way int) { s.mru[way] = false }
func (s *bitPLRUState) Clone(*rand.Rand) refSetState {
	c := &bitPLRUState{mru: make([]bool, len(s.mru))}
	copy(c.mru, s.mru)
	return c
}
func (s *bitPLRUState) SaveWords() []uint64 { return boolsToWords(s.mru) }
func (s *bitPLRUState) LoadWords(ws []uint64) error {
	if len(ws) != len(s.mru) {
		return wordLenError("bit-plru", len(ws), len(s.mru))
	}
	wordsToBools(s.mru, ws)
	return nil
}

// ---------------------------------------------------------------------------
// Random

type randomState struct {
	ways int
	rng  *rand.Rand
}

func (s *randomState) Touch(int)      {}
func (s *randomState) Fill(int)       {}
func (s *randomState) Victim() int    { return s.rng.IntN(s.ways) }
func (s *randomState) Invalidate(int) {}
func (s *randomState) Clone(rng *rand.Rand) refSetState {
	if rng == nil {
		rng = s.rng
	}
	return &randomState{ways: s.ways, rng: rng}
}
func (s *randomState) SaveWords() []uint64 { return nil }
func (s *randomState) LoadWords(ws []uint64) error {
	if len(ws) != 0 {
		return wordLenError("random", len(ws), 0)
	}
	return nil
}

// ---------------------------------------------------------------------------
// NRU

type nruState struct {
	ref []bool
	rng *rand.Rand
}

func (s *nruState) Touch(way int) {
	s.ref[way] = true
	for _, b := range s.ref {
		if !b {
			return
		}
	}
	for w := range s.ref {
		s.ref[w] = false
	}
	s.ref[way] = true
}
func (s *nruState) Fill(way int) { s.Touch(way) }
func (s *nruState) Victim() int {
	candidates := make([]int, 0, len(s.ref))
	for w, b := range s.ref {
		if !b {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return s.rng.IntN(len(s.ref))
	}
	return candidates[s.rng.IntN(len(candidates))]
}
func (s *nruState) Invalidate(way int) { s.ref[way] = false }
func (s *nruState) Clone(rng *rand.Rand) refSetState {
	if rng == nil {
		rng = s.rng
	}
	c := &nruState{ref: make([]bool, len(s.ref)), rng: rng}
	copy(c.ref, s.ref)
	return c
}
func (s *nruState) SaveWords() []uint64 { return boolsToWords(s.ref) }
func (s *nruState) LoadWords(ws []uint64) error {
	if len(ws) != len(s.ref) {
		return wordLenError("nru", len(ws), len(s.ref))
	}
	wordsToBools(s.ref, ws)
	return nil
}

// ---------------------------------------------------------------------------
// SRRIP

type srripState struct{ rrpv []uint8 }

func (s *srripState) Touch(way int) { s.rrpv[way] = 0 }
func (s *srripState) Fill(way int)  { s.rrpv[way] = srripMax - 1 }
func (s *srripState) Victim() int {
	for {
		for w, v := range s.rrpv {
			if v >= srripMax {
				return w
			}
		}
		for w := range s.rrpv {
			s.rrpv[w]++
		}
	}
}
func (s *srripState) Invalidate(way int) { s.rrpv[way] = srripMax }
func (s *srripState) Clone(*rand.Rand) refSetState {
	c := &srripState{rrpv: make([]uint8, len(s.rrpv))}
	copy(c.rrpv, s.rrpv)
	return c
}
func (s *srripState) SaveWords() []uint64 {
	ws := make([]uint64, len(s.rrpv))
	for i, v := range s.rrpv {
		ws[i] = uint64(v)
	}
	return ws
}
func (s *srripState) LoadWords(ws []uint64) error {
	if len(ws) != len(s.rrpv) {
		return wordLenError("srrip", len(ws), len(s.rrpv))
	}
	for i, w := range ws {
		if w > srripMax {
			return fmt.Errorf("cache: srrip state: rrpv %d out of range", w)
		}
		s.rrpv[i] = uint8(w)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Reference cache and the equivalence property.

// refCache is the object-per-set cache the slab replaced, reduced to the
// operations the property below replays.
type refCache struct {
	lines   [][]Line
	state   []refSetState
	stats   Stats
	evBySet []uint64
}

func newRefCache(policy string, sets, ways int, rng *rand.Rand) *refCache {
	c := &refCache{lines: make([][]Line, sets), state: make([]refSetState, sets), evBySet: make([]uint64, sets)}
	for s := range c.lines {
		c.lines[s] = make([]Line, ways)
		c.state[s] = refNewSetState(policy, ways, rng)
	}
	return c
}

func (c *refCache) lookup(set int, tag Tag) bool {
	ws := c.lines[set]
	for w := range ws {
		if ws[w].Valid && ws[w].Tag == tag {
			c.state[set].Touch(w)
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) insert(set int, tag Tag, dirty bool) Line {
	ws := c.lines[set]
	for w := range ws {
		if ws[w].Valid && ws[w].Tag == tag {
			ws[w].Dirty = ws[w].Dirty || dirty
			c.state[set].Touch(w)
			return Line{}
		}
	}
	for w := range ws {
		if !ws[w].Valid {
			ws[w] = Line{Tag: tag, Valid: true, Dirty: dirty}
			c.state[set].Fill(w)
			c.stats.Fills++
			return Line{}
		}
	}
	w := c.state[set].Victim()
	evicted := ws[w]
	c.stats.Evictions++
	c.evBySet[set]++
	if evicted.Dirty {
		c.stats.WritebacksOut++
	}
	ws[w] = Line{Tag: tag, Valid: true, Dirty: dirty}
	c.state[set].Fill(w)
	c.stats.Fills++
	return evicted
}

func (c *refCache) invalidate(set int, tag Tag) Line {
	ws := c.lines[set]
	for w := range ws {
		if ws[w].Valid && ws[w].Tag == tag {
			l := ws[w]
			ws[w] = Line{}
			c.state[set].Invalidate(w)
			c.stats.Invalidations++
			if l.Dirty {
				c.stats.WritebacksOut++
			}
			return l
		}
	}
	return Line{}
}

func (c *refCache) flushAll() []Line {
	var dirty []Line
	for s := range c.lines {
		for w := range c.lines[s] {
			l := c.lines[s][w]
			if l.Valid {
				c.lines[s][w] = Line{}
				c.state[s].Invalidate(w)
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

func (c *refCache) clone(rng *rand.Rand) *refCache {
	n := &refCache{lines: make([][]Line, len(c.lines)), state: make([]refSetState, len(c.state)), stats: c.stats}
	for s := range c.lines {
		n.lines[s] = append([]Line(nil), c.lines[s]...)
		n.state[s] = c.state[s].Clone(rng)
	}
	n.evBySet = append([]uint64(nil), c.evBySet...)
	return n
}

// reload is the reference's serialize/deserialize round trip: every set's
// SaveWords vector loaded into a fresh state bound to rng.
func (c *refCache) reload(t *testing.T, policy string, rng *rand.Rand) *refCache {
	n := c.clone(rng)
	for s := range n.state {
		n.state[s] = refNewSetState(policy, len(c.lines[s]), rng)
		if err := n.state[s].LoadWords(c.state[s].SaveWords()); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// countingSource counts the draws a random source serves.
type countingSource struct {
	src   rand.Source
	draws int
}

func (s *countingSource) Uint64() uint64 { s.draws++; return s.src.Uint64() }

// twinSources returns two identically seeded counting sources.
func twinSources(a, b uint64) (*countingSource, *countingSource) {
	return &countingSource{src: rand.NewPCG(a, b)}, &countingSource{src: rand.NewPCG(a, b)}
}

// TestFlatPolicyMatchesReference replays random Lookup/Insert/Invalidate/
// FlushAll/Clone/ExportState→FromState scripts through the slab cache and the
// object-per-set reference for every policy and several geometries, with
// twin random sources, asserting identical hits, victims, lines, statistics,
// per-set evictions, and random draws after every step.
func TestFlatPolicyMatchesReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{{1, 1}, {1, 2}, {2, 4}, {4, 8}, {3, 16}}
	for _, name := range policyNames {
		for _, g := range geoms {
			for seed := uint64(0); seed < 12; seed++ {
				script := rand.New(rand.NewPCG(seed, uint64(g.ways)))
				refSrc, newSrc := twinSources(seed, 1)
				ref := newRefCache(name, g.sets, g.ways, rand.New(refSrc))
				p, err := PolicyByName(name, rand.New(newSrc))
				if err != nil {
					t.Fatal(err)
				}
				c := New(name, g.sets, g.ways, p)
				for step := 0; step < 300; step++ {
					set, tag := script.IntN(g.sets), Tag(script.IntN(3*g.ways+1))
					what := ""
					switch op := script.IntN(100); {
					case op < 40:
						what = "lookup"
						if got, want := c.Lookup(set, tag), ref.lookup(set, tag); got != want {
							t.Fatalf("%s %dx%d seed %d step %d: lookup hit %t, reference %t", name, g.sets, g.ways, seed, step, got, want)
						}
					case op < 80:
						what = "insert"
						dirty := script.IntN(2) == 0
						if got, want := c.Insert(set, tag, dirty), ref.insert(set, tag, dirty); got != want {
							t.Fatalf("%s %dx%d seed %d step %d: evicted %+v, reference %+v", name, g.sets, g.ways, seed, step, got, want)
						}
					case op < 92:
						what = "invalidate"
						if got, want := c.Invalidate(set, tag), ref.invalidate(set, tag); got != want {
							t.Fatalf("%s %dx%d seed %d step %d: invalidated %+v, reference %+v", name, g.sets, g.ways, seed, step, got, want)
						}
					case op < 94:
						what = "flush"
						if got, want := c.FlushAll(), ref.flushAll(); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %dx%d seed %d step %d: flushed %+v, reference %+v", name, g.sets, g.ways, seed, step, got, want)
						}
					case op < 97:
						what = "clone"
						refSrc, newSrc = twinSources(seed, uint64(step))
						ref, c = ref.clone(rand.New(refSrc)), c.Clone(rand.New(newSrc))
					default:
						what = "reload"
						fresh, err := FromState(c.ExportState())
						if err != nil {
							t.Fatal(err)
						}
						refSrc, newSrc = twinSources(seed, uint64(step))
						ref, c = ref.reload(t, name, rand.New(refSrc)), fresh.Clone(rand.New(newSrc))
					}
					for s := 0; s < g.sets; s++ {
						if got := c.SetContents(s); !reflect.DeepEqual(got, ref.lines[s]) {
							t.Fatalf("%s %dx%d seed %d step %d (%s): set %d lines %+v, reference %+v", name, g.sets, g.ways, seed, step, what, s, got, ref.lines[s])
						}
					}
					if c.Stats() != ref.stats || !reflect.DeepEqual(c.EvictionsBySet(), ref.evBySet) {
						t.Fatalf("%s %dx%d seed %d step %d (%s): stats %+v %v, reference %+v %v", name, g.sets, g.ways, seed, step, what, c.Stats(), c.EvictionsBySet(), ref.stats, ref.evBySet)
					}
					if newSrc.draws != refSrc.draws {
						t.Fatalf("%s %dx%d seed %d step %d (%s): %d random draws, reference %d", name, g.sets, g.ways, seed, step, what, newSrc.draws, refSrc.draws)
					}
				}
			}
		}
	}
}
