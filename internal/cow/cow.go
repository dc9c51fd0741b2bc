// Package cow provides copy-on-write set pages: the storage behind every
// per-set slab of the cache models (line directories, replacement words,
// eviction counters, plaintext line buffers). A slab is split into pages of
// PageSets sets; views of one machine share pages until one of them writes,
// so a fork copies a page directory instead of the whole slab.
//
// Ownership follows internal/dram's chunk directory: every view has a
// generation, every page carries the generation of the view that created
// it, and a view writes a page in place only when the generations match —
// any other page is shared and is cloned first. A nil page is a page no
// view has written yet and reads as zero values, so a fresh slab allocates
// nothing but its directory until a set is first written. Callers choose
// encodings whose initial state is the zero value.
package cow

import "sync/atomic"

// PageSets is the number of sets one page holds. It trades the directory a
// fork copies (fewer, larger pages) against the bytes a fork clones on its
// first write to each set (more, smaller pages); 16 measured best for the
// forked channel transmission on the default machine (DESIGN.md §11).
const PageSets = 16

// generations hands out view generations. Tags only gate cloning — they
// never influence simulated behaviour — so the process-global atomic does
// not perturb determinism. Generation 0 (a nil page's) and frozen are never
// handed out, so no view owns a nil page and a frozen view owns nothing.
var generations atomic.Uint64

const frozen = ^uint64(0)

func nextGeneration() uint64 { return generations.Add(1) }

type page[T comparable] struct {
	v   []T    // PageSets*width elements; nil until first written
	gen uint64 // generation of the view that created v
}

// Slab is sets×width elements of T stored as copy-on-write pages. The zero
// Slab is unusable; build one with New. A Slab value is one view: copying
// the struct does not copy ownership — use Fork or Freeze.
type Slab[T comparable] struct {
	dir   []page[T]
	sets  int
	width int
	gen   uint64 // this view's generation, or frozen: never written
}

// New returns a live slab of sets×width zero elements. Nothing but the page
// directory is allocated.
func New[T comparable](sets, width int) Slab[T] {
	return Slab[T]{
		dir:   make([]page[T], (sets+PageSets-1)/PageSets),
		sets:  sets,
		width: width,
		gen:   nextGeneration(),
	}
}

// Get returns set's elements for reading, or nil when the set's page was
// never written (every element then reads as zero). The slice may be
// shared with other views and must not be written.
func (s *Slab[T]) Get(set int) []T {
	v := s.dir[uint(set)/PageSets].v
	if v == nil {
		return nil
	}
	i := uint(set) % PageSets * uint(s.width)
	return v[i : i+uint(s.width) : i+uint(s.width)]
}

// Own returns set's elements for writing. A page this view does not own is
// cloned first (a nil page is materialized as zeros), so the write is
// invisible to every other view. Own runs on every simulated cache write,
// so the clone uses only builtins: that keeps Own small enough to inline.
func (s *Slab[T]) Own(set int) []T {
	pg := &s.dir[uint(set)/PageSets]
	if pg.gen != s.gen {
		if s.gen == frozen {
			panic("cow: write to a frozen slab")
		}
		v := make([]T, PageSets*s.width)
		copy(v, pg.v)
		pg.v, pg.gen = v, s.gen
	}
	i := uint(set) % PageSets * uint(s.width)
	return pg.v[i : i+uint(s.width) : i+uint(s.width)]
}

// Fork returns a live view sharing every page with s. A live s moves to a
// fresh generation, so from now on both sides clone before writing; a
// frozen s is only read, so one frozen slab may be forked from several
// goroutines at once.
func (s *Slab[T]) Fork() Slab[T] {
	if s.gen != frozen {
		s.gen = nextGeneration()
	}
	return s.view(nextGeneration())
}

// Freeze returns a frozen view sharing every page with s and moves s to a
// fresh generation. The frozen view must never be written; Fork it instead.
func (s *Slab[T]) Freeze() Slab[T] {
	n := s.view(frozen)
	s.gen = nextGeneration()
	return n
}

// view copies the page directory under generation gen.
func (s *Slab[T]) view(gen uint64) Slab[T] {
	n := *s
	n.dir = append([]page[T](nil), s.dir...)
	n.gen = gen
	return n
}

// Clear resets every element to zero by dropping all pages; other views
// keep theirs.
func (s *Slab[T]) Clear() {
	clear(s.dir)
}

// Flatten copies the whole slab, set by set, into dst (grown only if its
// capacity is short) and returns it.
func (s *Slab[T]) Flatten(dst []T) []T {
	n := s.sets * s.width
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	for p := range s.dir {
		lo := p * PageSets * s.width
		if v := s.dir[p].v; v != nil {
			copy(dst[lo:], v)
		} else {
			clear(dst[lo:min(lo+PageSets*s.width, n)])
		}
	}
	return dst
}

// Load writes a flattened image (as Flatten returns it, or a prefix of
// one) into s. Pages left all zero stay nil.
func (s *Slab[T]) Load(flat []T) {
	var zero T
	n := PageSets * s.width
	for p := 0; p < len(s.dir) && p*n < len(flat); p++ {
		src := flat[p*n : min((p+1)*n, len(flat))]
		for _, x := range src {
			if x != zero {
				s.Own(p * PageSets) // owns the whole page
				copy(s.dir[p].v, src)
				break
			}
		}
	}
}

// bitsRow is the words per slab set of a Bits, so one page holds
// PageSets*bitsRow*64 = 64Ki bits (8 KB).
const bitsRow = 64

// Bits is a copy-on-write bitset over a Slab: a fork shares every page of
// bits until it sets a bit in one.
type Bits struct {
	s     Slab[uint64]
	words int
}

// NewBits returns a live bitset of words 64-bit words, all clear.
func NewBits(words int) Bits {
	return Bits{New[uint64]((words+bitsRow-1)/bitsRow, bitsRow), words}
}

// Has reports whether bit i is set.
func (b *Bits) Has(i uint64) bool {
	w := i / 64
	row := b.s.Get(int(w / bitsRow))
	return row != nil && row[w%bitsRow]&(1<<(i%64)) != 0
}

// Set sets bit i.
func (b *Bits) Set(i uint64) {
	w := i / 64
	b.s.Own(int(w / bitsRow))[w%bitsRow] |= 1 << (i % 64)
}

// Fork returns a live view of the bitset, as Slab.Fork does.
func (b *Bits) Fork() Bits { return Bits{b.s.Fork(), b.words} }

// Freeze returns a frozen view of the bitset, as Slab.Freeze does.
func (b *Bits) Freeze() Bits { return Bits{b.s.Freeze(), b.words} }

// Words returns the bitset as 64-bit words.
func (b *Bits) Words() []uint64 { return b.s.Flatten(nil)[:b.words] }

// Load writes a Words image into the bitset.
func (b *Bits) Load(words []uint64) { b.s.Load(words) }
