package cache

import "fmt"

// State is a Cache's whole copyable image — geometry, policy name, the flat
// line and replacement slabs, statistics, and per-set eviction counters. A
// live cache keeps its contents in one; Clone, ExportState and FromState
// all copy it the same way. It contains no random sources: FromState builds
// a frozen cache that a Clone(rng) rebinds before any victim is drawn.
type State struct {
	Name       string
	Sets, Ways int
	PolicyName string
	Lines      []Line   // dense [set*Ways+way]
	Repl       []uint64 // replacement words, a fixed count per set by policy
	Stats      Stats
	EvBySet    []uint64
}

// clone deep-copies the image's slabs.
func (st *State) clone() State {
	n := *st
	n.Lines = append([]Line(nil), st.Lines...)
	n.Repl = append([]uint64(nil), st.Repl...)
	n.EvBySet = append([]uint64(nil), st.EvBySet...)
	return n
}

// ExportState captures the cache as a State. The image is a deep copy; the
// cache may keep running afterwards.
func (c *Cache) ExportState() *State {
	st := c.s.clone()
	return &st
}

// FromState rebuilds a frozen cache from a State image: it holds no random
// source, so randomized policies must be rebound with Clone(rng) before the
// cache runs. Geometry, slab lengths and replacement words are validated,
// so a corrupted image returns an error rather than panicking downstream.
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
	return &Cache{s: st.clone(), kind: kind, words: words}, nil
}
