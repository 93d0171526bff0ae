package bitset

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func seg(s, l uint32) uint64 { return uint64(s)<<32 | uint64(l) }

func TestSegmentedAddRemoveContains(t *testing.T) {
	s := NewSegmented()
	ids := []uint64{seg(0, 0), seg(0, 63), seg(0, 64), seg(1, 5), seg(7, 1000)}
	for _, id := range ids {
		s.Add(id)
	}
	for _, id := range ids {
		if !s.Contains(id) {
			t.Fatalf("missing %d:%d", id>>32, uint32(id))
		}
	}
	if s.Contains(seg(1, 6)) || s.Contains(seg(2, 5)) {
		t.Fatal("contains elements never added")
	}
	if s.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ids))
	}
	s.Remove(seg(1, 5))
	if s.Contains(seg(1, 5)) || s.Len() != len(ids)-1 {
		t.Fatal("Remove failed")
	}
	// Removing a segment's last element drops its bitmap entirely — the
	// no-empty-bitmaps invariant Any/Equal depend on.
	if s.SegContainer(1) != nil {
		t.Fatal("emptied segment container retained")
	}
	s.Remove(seg(9, 9)) // absent: no-op
}

func TestSegmentedRangeAscending(t *testing.T) {
	s := SegmentedOf(seg(3, 2), seg(0, 7), seg(3, 0), seg(1, 64), seg(0, 1))
	want := []uint64{seg(0, 1), seg(0, 7), seg(1, 64), seg(3, 0), seg(3, 2)}
	if got := s.Slice(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	// Early stop.
	var seen int
	s.Range(func(uint64) bool { seen++; return seen < 2 })
	if seen != 2 {
		t.Fatalf("Range visited %d after stop, want 2", seen)
	}
}

func TestSegmentedSetOps(t *testing.T) {
	a := SegmentedOf(seg(0, 1), seg(0, 2), seg(1, 1), seg(2, 9))
	b := SegmentedOf(seg(0, 2), seg(1, 1), seg(1, 2), seg(3, 4))

	and := a.Clone()
	and.And(b)
	if want := SegmentedOf(seg(0, 2), seg(1, 1)); !and.Equal(want) {
		t.Fatalf("And = %v", and)
	}
	or := a.Clone()
	or.Or(b)
	if or.Len() != 6 || !or.Contains(seg(3, 4)) || !or.Contains(seg(2, 9)) {
		t.Fatalf("Or = %v", or)
	}
	andNot := a.Clone()
	andNot.AndNot(b)
	if want := SegmentedOf(seg(0, 1), seg(2, 9)); !andNot.Equal(want) {
		t.Fatalf("AndNot = %v", andNot)
	}
	// Operands are untouched.
	if a.Len() != 4 || b.Len() != 4 {
		t.Fatal("set ops mutated their operands")
	}
	// Or clones the donor's bitmaps: mutating the result later must not
	// write through into b.
	or.Add(seg(3, 5))
	if b.Contains(seg(3, 5)) {
		t.Fatal("Or shares bitmap storage with its operand")
	}
}

func TestSegmentedEqual(t *testing.T) {
	a := SegmentedOf(seg(0, 1), seg(5, 2))
	b := SegmentedOf(seg(5, 2), seg(0, 1))
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equal sets not Equal")
	}
	b.Add(seg(5, 3))
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("unequal sets Equal")
	}
	if !NewSegmented().Equal(NewSegmented()) {
		t.Fatal("empty sets not Equal")
	}
}

func TestSegmentedPutSegContainer(t *testing.T) {
	s := NewSegmented()
	s.PutSegContainer(4, ContainerOf(1, 3, 5))
	if s.Len() != 3 || !s.Contains(seg(4, 3)) {
		t.Fatalf("PutSegContainer contents wrong: %v", s)
	}
	if got := s.SegContainer(4); got == nil || got.Len() != 3 {
		t.Fatal("SegContainer did not return the installed container")
	}
	// Installing an empty container clears the segment.
	s.PutSegContainer(4, NewContainer())
	if s.Any() || s.SegContainer(4) != nil {
		t.Fatal("PutSegContainer with an empty container did not clear the segment")
	}
	s.PutSegContainer(2, nil)
	if s.SegContainer(2) != nil {
		t.Fatal("PutSegContainer(nil) installed something")
	}
}

// TestPropertySegmentedMatchesMap cross-checks the structure against a
// plain map-of-IDs model under random mixed operations.
func TestPropertySegmentedMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSegmented()
	model := map[uint64]bool{}
	randID := func() uint64 { return seg(uint32(rng.Intn(4)), uint32(rng.Intn(200))) }
	for i := 0; i < 5000; i++ {
		id := randID()
		switch rng.Intn(3) {
		case 0, 1:
			s.Add(id)
			model[id] = true
		case 2:
			s.Remove(id)
			delete(model, id)
		}
		if probe := randID(); s.Contains(probe) != model[probe] {
			t.Fatalf("op %d: Contains(%d:%d) = %v, model says %v", i, probe>>32, uint32(probe), s.Contains(probe), model[probe])
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
	for id := range model {
		if !s.Contains(id) {
			t.Fatalf("model element %d:%d missing", id>>32, uint32(id))
		}
	}
}

// checkSeek compares every seek primitive against the Slice() oracle
// for one set, seek position and page size.
func checkSeek(t *testing.T, s *Segmented, after uint64, max int) {
	t.Helper()
	all := s.Slice()
	from := sort.Search(len(all), func(i int) bool { return all[i] >= after })
	want := all[from:]
	if got := s.CountFrom(after); got != len(want) {
		t.Fatalf("CountFrom(%#x) = %d, Slice says %d (kinds %s)", after, got, len(want), s.Kinds())
	}
	page := want
	if max > 0 && len(page) > max {
		page = page[:max]
	}
	if got := s.AppendFrom(nil, after, max); !slices.Equal(got, page) {
		t.Fatalf("AppendFrom(%#x, %d) = %v, want %v (kinds %s)", after, max, got, page, s.Kinds())
	}
	// One iterator handing out consecutive pages covers the tail once.
	it := s.IterFrom(after)
	var walked []uint64
	for {
		n := len(walked)
		walked = it.Append(walked, max)
		if len(walked) == n || max <= 0 {
			break
		}
	}
	if !slices.Equal(walked, want) {
		t.Fatalf("paged IterFrom(%#x) by %d = %v, want %v (kinds %s)", after, max, walked, want, s.Kinds())
	}
}

// TestSegmentedSeekMatchesSlice: IterFrom/AppendFrom/CountFrom agree
// with Slice() over array, bitmap and run containers and multi-segment
// sets, seeking to elements, gaps, segment boundaries and past the end.
func TestSegmentedSeekMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		s := NewSegmented()
		for k := 0; k < 1+rng.Intn(4); k++ {
			c, _ := randomContainer(rng, trial+k)
			s.PutSegContainer(uint32(rng.Intn(6)), c)
		}
		seeks := []uint64{0, 1, ^uint64(0), seg(2, 0), seg(3, ^uint32(0))}
		for _, id := range s.Slice() {
			if rng.Intn(8) == 0 {
				seeks = append(seeks, id, id+1)
			}
		}
		for i := 0; i < 8; i++ {
			seeks = append(seeks, seg(uint32(rng.Intn(7)), uint32(rng.Intn(11000))))
		}
		for _, after := range seeks {
			checkSeek(t, s, after, []int{0, 1, 7, 512}[rng.Intn(4)])
		}
	}
}

// FuzzSegmentedSeek drives the same comparison from fuzzed set images.
func FuzzSegmentedSeek(f *testing.F) {
	for _, s := range []*Segmented{
		NewSegmented(),
		SegmentedOf(seg(0, 1), seg(0, 5), seg(3, 2)),
		func() *Segmented { // a run, a bitmap and an array in three segments
			s := NewSegmented()
			for v := uint32(10); v < 400; v++ {
				s.Add(seg(1, v))
			}
			for v := uint32(0); v < 9000; v += 2 {
				s.Add(seg(2, v))
			}
			s.Add(seg(7, 70000))
			s.Pack()
			return s
		}(),
	} {
		img, _ := s.MarshalBinary()
		f.Add(img, uint64(0), 7)
		f.Add(img, seg(1, 399), 1)
		f.Add(img, seg(2, 8999), 512)
	}
	f.Fuzz(func(t *testing.T, img []byte, after uint64, max int) {
		s, err := UnmarshalSegmented(img)
		if err != nil || s.Len() > 1<<16 {
			return
		}
		checkSeek(t, s, after, max)
	})
}
