package cache

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// policyKind enumerates the replacement policies. Each keeps a fixed number
// of replacement words per set (see words), after the lines in its record.
type policyKind uint8

const (
	kindLRU policyKind = iota
	kindFIFO
	kindTreePLRU
	kindBitPLRU
	kindRandom
	kindNRU
	kindSRRIP
)

var policyNames = [...]string{
	kindLRU:      "lru",
	kindFIFO:     "fifo",
	kindTreePLRU: "tree-plru",
	kindBitPLRU:  "bit-plru",
	kindRandom:   "random",
	kindNRU:      "nru",
	kindSRRIP:    "srrip",
}

// srripMax is SRRIP's distant re-reference prediction value (2-bit RRPV).
const srripMax = 3

// Policy selects a replacement policy. Randomized policies (random, nru)
// carry the random source they draw victims from; pass the engine's seeded
// source for reproducibility.
type Policy struct {
	kind policyKind
	rng  *rand.Rand
}

// Name returns the policy's registered name.
func (p Policy) Name() string { return policyNames[p.kind] }

// NewLRU returns a true least-recently-used policy.
func NewLRU() Policy { return Policy{kind: kindLRU} }

// NewFIFO returns a first-in-first-out policy (insertion order, references
// do not refresh).
func NewFIFO() Policy { return Policy{kind: kindFIFO} }

// NewTreePLRU returns a binary-tree pseudo-LRU policy, the classic
// "approximate LRU" found in real hardware caches. The paper's two-phase
// (forward+backward) eviction in Algorithm 2 exists precisely because a
// single in-order pass over an eviction set does not reliably displace all
// resident lines under this policy. Requires power-of-two associativity.
func NewTreePLRU() Policy { return Policy{kind: kindTreePLRU} }

// NewBitPLRU returns an MRU-bit pseudo-LRU policy: each reference sets the
// way's MRU bit; when all bits would be set, the others are cleared. The
// victim is the lowest way with a clear bit.
func NewBitPLRU() Policy { return Policy{kind: kindBitPLRU} }

// NewRandom returns a random-replacement policy drawing from rng. Random
// replacement is one of the mitigation candidates evaluated in the extension
// experiments.
func NewRandom(rng *rand.Rand) Policy { return Policy{kind: kindRandom, rng: rng} }

// NewNRU returns a not-recently-used policy: one reference bit per way, the
// victim drawn from rng among the clear-bit ways (avoiding positional bias);
// when every bit is set, all others are cleared. Many embedded and GPU caches
// use NRU.
func NewNRU(rng *rand.Rand) Policy { return Policy{kind: kindNRU, rng: rng} }

// NewSRRIP returns a static re-reference interval prediction policy (Jaleel
// et al., ISCA 2010), the scan-resistant replacement found in recent Intel
// LLCs: 2-bit RRPVs, hits promote to 0, fills insert at srripMax-1, victims
// are ways at srripMax (aging every way when none is).
func NewSRRIP() Policy { return Policy{kind: kindSRRIP} }

// PolicyByName constructs a policy from its name; random and nru need rng
// (may be nil for the others). Recognized: lru, fifo, tree-plru, bit-plru,
// random, nru, srrip.
func PolicyByName(name string, rng *rand.Rand) (Policy, error) {
	k, err := kindByName(name)
	if err != nil {
		return Policy{}, err
	}
	if k.randomized() && rng == nil {
		return Policy{}, fmt.Errorf("cache: %s policy requires a random source", name)
	}
	if !k.randomized() {
		rng = nil
	}
	return Policy{kind: k, rng: rng}, nil
}

func kindByName(name string) (policyKind, error) {
	for k, n := range policyNames {
		if n == name {
			return policyKind(k), nil
		}
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", name)
}

func (k policyKind) randomized() bool { return k == kindRandom || k == kindNRU }

// words is the number of replacement words one set keeps:
//
//	lru, fifo           [tick, stamp_0 .. stamp_{ways-1}]
//	tree-plru           [node bits]   (bit i = node i points right)
//	bit-plru, nru       [way bits]    (bit w = way w referenced)
//	srrip               [rrpv_0 .. rrpv_{ways-1}]
//	random              none
//
// Every policy's empty set is all zero words, the initial state of a set
// page, except SRRIP's (every RRPV distant). So the slab keeps SRRIP words
// as srripMax−RRPV, the distance from distant, and imageWords converts at
// the State boundary.
func (k policyKind) words(ways int) int {
	switch k {
	case kindLRU, kindFIFO:
		return 1 + ways
	case kindTreePLRU, kindBitPLRU, kindNRU:
		return 1
	case kindSRRIP:
		return ways
	}
	return 0
}

// checkWays rejects associativities the policy's word layout cannot hold.
func (k policyKind) checkWays(ways int) error {
	switch k {
	case kindTreePLRU, kindBitPLRU, kindNRU:
		if ways > 64 {
			return fmt.Errorf("%s supports at most 64 ways, got %d", policyNames[k], ways)
		}
		if k == kindTreePLRU && ways&(ways-1) != 0 {
			return fmt.Errorf("tree-plru requires power-of-two ways, got %d", ways)
		}
	}
	return nil
}

// imageWords converts replacement words between slab and State form, in
// place; the conversion is its own inverse (see words).
func (k policyKind) imageWords(r []uint64) {
	if k == kindSRRIP {
		for i := range r {
			r[i] = srripMax - r[i]
		}
	}
}

// wordLimit is the largest valid replacement word at this associativity —
// the node or way bitmask, or the distant RRPV — for validating images.
func (k policyKind) wordLimit(ways int) uint64 {
	switch k {
	case kindTreePLRU:
		return wayMask(ways - 1)
	case kindBitPLRU, kindNRU:
		return wayMask(ways)
	case kindSRRIP:
		return srripMax
	}
	return math.MaxUint64
}

// wayMask has the low n bits set (0 <= n <= 64).
func wayMask(n int) uint64 { return ^uint64(0) >> (64 - n) }

// touch records a reference (hit) to way in set words r.
func (c *Cache) touch(r []uint64, way int) {
	switch c.kind {
	case kindLRU:
		r[0]++
		r[1+way] = r[0]
	case kindTreePLRU:
		// Walk from the root, pointing each node on the way's path at the
		// other half (MSB of the way index first).
		m, node := r[0], 0
		for span := c.ways / 2; span >= 1; span /= 2 {
			if way&span != 0 {
				m &^= 1 << node
				node = 2*node + 2
			} else {
				m |= 1 << node
				node = 2*node + 1
			}
		}
		r[0] = m
	case kindBitPLRU, kindNRU:
		m := r[0] | 1<<way
		if m == wayMask(c.ways) {
			m = 1 << way // all referenced: keep only the newest
		}
		r[0] = m
	case kindSRRIP:
		r[way] = srripMax // RRPV 0
	}
}

// fill records that way was (re)filled with a new line. FIFO and SRRIP
// distinguish insertion from reference; the others treat it as a touch.
func (c *Cache) fill(r []uint64, way int) {
	switch c.kind {
	case kindLRU, kindFIFO:
		r[0]++
		r[1+way] = r[0]
	case kindSRRIP:
		r[way] = 1 // RRPV srripMax-1
	default:
		c.touch(r, way)
	}
}

// victim returns the way to evict from a full set.
func (c *Cache) victim(r []uint64) int {
	switch c.kind {
	case kindLRU, kindFIFO:
		stamps := r[1:]
		best, oldest := 0, stamps[0]
		for w, s := range stamps {
			if s < oldest {
				best, oldest = w, s
			}
		}
		return best
	case kindTreePLRU:
		m, node, way := r[0], 0, 0
		for span := c.ways / 2; span >= 1; span /= 2 {
			if m&(1<<node) != 0 {
				way |= span
				node = 2*node + 2
			} else {
				node = 2*node + 1
			}
		}
		return way
	case kindBitPLRU:
		if w := bits.TrailingZeros64(^r[0]); w < c.ways {
			return w
		}
		return 0
	case kindRandom:
		return c.rng.IntN(c.ways)
	case kindNRU:
		// The k-th clear way, k drawn uniformly: one draw, no scratch.
		free := ^r[0] & wayMask(c.ways)
		n := bits.OnesCount64(free)
		if n == 0 {
			return c.rng.IntN(c.ways)
		}
		for k := c.rng.IntN(n); k > 0; k-- {
			free &= free - 1
		}
		return bits.TrailingZeros64(free)
	case kindSRRIP:
		for {
			for w, d := range r {
				if d == 0 { // RRPV distant
					return w
				}
			}
			for w := range r {
				r[w]-- // age: RRPV+1
			}
		}
	}
	panic("cache: unknown policy")
}

// invalidate clears way's replacement state after its line is removed.
func (c *Cache) invalidate(r []uint64, way int) {
	switch c.kind {
	case kindLRU, kindFIFO:
		r[1+way] = 0
	case kindBitPLRU, kindNRU:
		r[0] &^= 1 << way
	case kindSRRIP:
		r[way] = 0 // RRPV distant
	}
}
