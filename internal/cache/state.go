package cache

import "fmt"

// State is the serializable image of a Cache — geometry, policy name, the
// lines and replacement words flattened set by set, statistics, and per-set
// eviction counters. It contains no random sources: FromState builds a
// frozen cache that a Clone(rng) rebinds before any victim is drawn.
type State struct {
	Name       string
	Sets, Ways int
	PolicyName string
	Lines      []Line   // dense [set*Ways+way]
	Repl       []uint64 // replacement words, a fixed count per set by policy
	Stats      Stats
	EvBySet    []uint64
}

// ExportState captures the cache as a State. The image is a deep copy; the
// cache may keep running afterwards.
func (c *Cache) ExportState() *State {
	words := c.kind.words(c.ways)
	st := &State{
		Name:       c.name,
		Sets:       c.sets,
		Ways:       c.ways,
		PolicyName: c.policy,
		Lines:      make([]Line, c.sets*c.ways),
		Repl:       make([]uint64, c.sets*words),
		Stats:      c.stats,
		EvBySet:    c.evBySet.Flatten(nil),
	}
	for set := 0; set < c.sets; set++ {
		rec := c.slab.Get(set)
		if rec == nil {
			continue // zero lines and words
		}
		for w, x := range rec[:c.ways] {
			st.Lines[set*c.ways+w] = unpack(x)
		}
		copy(st.Repl[set*words:], rec[c.ways:])
	}
	c.kind.imageWords(st.Repl)
	return st
}

// FromState rebuilds a frozen cache from a State image: it holds no random
// source and never runs, so it must be rebound with Clone(rng) first.
// Geometry, slab lengths and replacement words are validated, so a
// corrupted image returns an error rather than panicking downstream. Pages
// whose image is all initial state stay unallocated.
func FromState(st *State) (*Cache, error) {
	if st.Sets <= 0 || st.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: invalid geometry %dx%d", st.Name, st.Sets, st.Ways)
	}
	if len(st.Lines) != st.Sets*st.Ways {
		return nil, fmt.Errorf("cache %s: %d lines, want %d", st.Name, len(st.Lines), st.Sets*st.Ways)
	}
	if len(st.EvBySet) != st.Sets {
		return nil, fmt.Errorf("cache %s: %d eviction counters, want %d", st.Name, len(st.EvBySet), st.Sets)
	}
	kind, err := kindByName(st.PolicyName)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", st.Name, err)
	}
	if err := kind.checkWays(st.Ways); err != nil {
		return nil, fmt.Errorf("cache %s: %w", st.Name, err)
	}
	words := kind.words(st.Ways)
	if len(st.Repl) != st.Sets*words {
		return nil, fmt.Errorf("cache %s: %d replacement words, want %d", st.Name, len(st.Repl), st.Sets*words)
	}
	limit := kind.wordLimit(st.Ways)
	for i, v := range st.Repl {
		if v > limit {
			return nil, fmt.Errorf("cache %s set %d: %s replacement word %#x exceeds %#x", st.Name, i/words, st.PolicyName, v, limit)
		}
	}
	width := st.Ways + words
	flat := make([]uint64, st.Sets*width)
	for set := 0; set < st.Sets; set++ {
		rec := flat[set*width : (set+1)*width]
		for w, l := range st.Lines[set*st.Ways : (set+1)*st.Ways] {
			if l.Tag > tagMask {
				return nil, fmt.Errorf("cache %s set %d: tag %#x exceeds 62 bits", st.Name, set, l.Tag)
			}
			rec[w] = pack(l)
		}
		copy(rec[st.Ways:], st.Repl[set*words:(set+1)*words])
		kind.imageWords(rec[st.Ways:])
	}
	c := New(st.Name, st.Sets, st.Ways, Policy{kind: kind})
	c.stats = st.Stats
	c.slab.Load(flat)
	c.evBySet.Load(st.EvBySet)
	return c.Snapshot(), nil
}
