package cow

import (
	"reflect"
	"testing"
)

// TestForkIsolation writes the same set from a parent, its fork and a
// second fork of a frozen view: every view reads only its own writes.
func TestForkIsolation(t *testing.T) {
	s := New[int64](40, 3)
	if s.Get(5) != nil {
		t.Fatal("fresh slab materialized a page")
	}
	s.Own(5)[1] = 10
	frozen := s.Freeze()
	a, b := frozen.Fork(), frozen.Fork()
	s.Own(5)[1] = 11
	a.Own(5)[1] = 12
	b.Own(5)[2] = 13
	for _, tc := range []struct {
		name string
		v    *Slab[int64]
		want []int64
	}{
		{"parent", &s, []int64{0, 11, 0}},
		{"fork a", &a, []int64{0, 12, 0}},
		{"fork b", &b, []int64{0, 10, 13}},
		{"frozen", &frozen, []int64{0, 10, 0}},
	} {
		if got := tc.v.Get(5); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: set 5 = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A live fork moves its source: later parent writes stay private too.
	c := a.Fork()
	a.Own(5)[0] = 14
	if got := c.Get(5)[0]; got != 0 {
		t.Errorf("fork of a live view saw its parent's later write: %d", got)
	}
}

// TestFrozenWritePanics pins the frozen contract.
func TestFrozenWritePanics(t *testing.T) {
	s := New[int](4, 1)
	frozen := s.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("write to a frozen slab did not panic")
		}
	}()
	frozen.Own(0)[0] = 1
}

// TestFlattenLoadRoundTrip checks the flat image, including a short last
// page and all-zero pages that Load leaves nil.
func TestFlattenLoadRoundTrip(t *testing.T) {
	s := New[uint8](PageSets*3+5, 2)
	s.Own(1)[0] = 1
	s.Own(PageSets*3 + 4)[1] = 2
	dst := make([]uint8, (PageSets*3+5)*2)
	for i := range dst {
		dst[i] = 9 // a reused buffer's stale bytes must be overwritten
	}
	flat := s.Flatten(dst)
	if len(flat) != (PageSets*3+5)*2 || flat[2] != 1 || flat[len(flat)-1] != 2 || flat[len(flat)-2] != 0 || flat[PageSets*2] != 0 {
		t.Fatalf("flatten: %v", flat)
	}
	n := New[uint8](PageSets*3+5, 2)
	n.Load(flat)
	if !reflect.DeepEqual(n.Flatten(nil), flat) {
		t.Fatal("load/flatten round trip differs")
	}
	if n.Get(PageSets) != nil {
		t.Error("Load materialized an all-zero page")
	}
	n.Clear()
	if n.Get(1) != nil || n.Flatten(nil)[2] != 0 {
		t.Error("Clear left a page behind")
	}
}

// TestBits covers the bitset view, across a page boundary.
func TestBits(t *testing.T) {
	const words = 3 * PageSets * bitsRow
	b := NewBits(words)
	far := uint64(words*64 - 1)
	b.Set(3)
	b.Set(far)
	f := b.Freeze()
	g := f.Fork()
	g.Set(64)
	if !g.Has(3) || !g.Has(far) || !g.Has(64) || b.Has(64) || f.Has(64) || g.Has(65) {
		t.Fatal("bitset views not isolated")
	}
	w := g.Words()
	if len(w) != words || w[0] != 1<<3 || w[1] != 1 || w[words-1] != 1<<63 {
		t.Fatalf("words image wrong: len %d, %#x %#x %#x", len(w), w[0], w[1], w[words-1])
	}
	h := NewBits(words)
	h.Load(w)
	if !reflect.DeepEqual(h.Words(), w) {
		t.Fatal("bitset load round trip differs")
	}
}
