package bitset

import (
	"bytes"
	"math/rand"
	"testing"
)

// refSet is the oracle: a plain map.
type refSet map[uint32]bool

func (r refSet) slice() []uint32 {
	out := []uint32{}
	for v := range r {
		out = append(out, v)
	}
	sortU32(out)
	return out
}

func sortU32(a []uint32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomContainer builds a container + reference with one of several
// shapes (sparse, dense, runs) and optionally forces a representation.
func randomContainer(rng *rand.Rand, shape int) (*Container, refSet) {
	c, ref := NewContainer(), refSet{}
	add := func(v uint32) {
		c.Add(v)
		ref[v] = true
	}
	switch shape % 4 {
	case 0: // sparse
		for i := 0; i < rng.Intn(50); i++ {
			add(rng.Uint32() % 10000)
		}
	case 1: // dense block
		base := rng.Uint32() % 1000
		for i := 0; i < 300+rng.Intn(300); i++ {
			add(base + uint32(rng.Intn(600)))
		}
	case 2: // runs
		for r := 0; r < 1+rng.Intn(4); r++ {
			lo := rng.Uint32() % 5000
			for v := lo; v < lo+uint32(50+rng.Intn(200)); v++ {
				add(v)
			}
		}
	case 3: // empty or tiny
		for i := 0; i < rng.Intn(3); i++ {
			add(rng.Uint32() % 100)
		}
	}
	if rng.Intn(2) == 0 {
		c.Pack()
	}
	if rng.Intn(3) == 0 {
		c.toBitmap()
	}
	return c, ref
}

func TestContainerBasicOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c, ref := randomContainer(rng, trial)
		if c.Len() != len(ref) {
			t.Fatalf("trial %d: Len=%d want %d (kind %s)", trial, c.Len(), len(ref), c.Kind())
		}
		if !equalU32(c.Slice(), ref.slice()) {
			t.Fatalf("trial %d: Slice mismatch (kind %s)", trial, c.Kind())
		}
		for i := 0; i < 20; i++ {
			v := rng.Uint32() % 12000
			if c.Contains(v) != ref[v] {
				t.Fatalf("trial %d: Contains(%d)=%v want %v (kind %s)",
					trial, v, c.Contains(v), ref[v], c.Kind())
			}
		}
		// Remove a few and re-check.
		for _, v := range ref.slice() {
			if rng.Intn(4) == 0 {
				c.Remove(v)
				delete(ref, v)
			}
		}
		if !equalU32(c.Slice(), ref.slice()) {
			t.Fatalf("trial %d: Slice after Remove mismatch (kind %s)", trial, c.Kind())
		}
	}
}

func TestContainerSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		a, ra := randomContainer(rng, trial)
		b, rb := randomContainer(rng, trial+rng.Intn(4))

		and := a.Clone()
		and.And(b)
		want := []uint32{}
		for v := range ra {
			if rb[v] {
				want = append(want, v)
			}
		}
		sortU32(want)
		if !equalU32(and.Slice(), want) {
			t.Fatalf("trial %d: And mismatch %s×%s: got %v want %v",
				trial, a.Kind(), b.Kind(), and.Slice(), want)
		}
		if and.Len() != len(want) {
			t.Fatalf("trial %d: And Len=%d want %d", trial, and.Len(), len(want))
		}

		or := a.Clone()
		or.Or(b)
		want = want[:0]
		seen := map[uint32]bool{}
		for v := range ra {
			seen[v] = true
		}
		for v := range rb {
			seen[v] = true
		}
		for v := range seen {
			want = append(want, v)
		}
		sortU32(want)
		if !equalU32(or.Slice(), want) {
			t.Fatalf("trial %d: Or mismatch %s×%s", trial, a.Kind(), b.Kind())
		}

		andNot := a.Clone()
		andNot.AndNot(b)
		want = want[:0]
		for v := range ra {
			if !rb[v] {
				want = append(want, v)
			}
		}
		sortU32(want)
		if !equalU32(andNot.Slice(), want) {
			t.Fatalf("trial %d: AndNot mismatch %s×%s", trial, a.Kind(), b.Kind())
		}
	}
}

func TestFullContainer(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 63, 64, 65, 5000} {
		c := FullContainer(n)
		if c.Len() != max(n, 0) {
			t.Fatalf("FullContainer(%d).Len = %d", n, c.Len())
		}
		if n > 0 {
			if m, ok := c.Max(); !ok || int(m) != n-1 || !c.Contains(0) || c.Contains(uint32(n)) {
				t.Fatalf("FullContainer(%d) = %v (max %d,%v)", n, c.Slice(), m, ok)
			}
			if c.SizeBytes() != 8 {
				t.Fatalf("FullContainer(%d) costs %d bytes, want one run", n, c.SizeBytes())
			}
		} else if _, ok := c.Max(); ok {
			t.Fatalf("FullContainer(%d) reports a max", n)
		}
	}
}

// TestContainerMaxAndRunCount checks the two per-kind shortcuts Pack and
// the segment loader rely on against the element list.
func TestContainerMaxAndRunCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		c, ref := randomContainer(rng, trial)
		all := ref.slice()
		m, ok := c.Max()
		if ok != (len(all) > 0) || (ok && m != all[len(all)-1]) {
			t.Fatalf("trial %d: Max=(%d,%v) want last of %v (kind %s)", trial, m, ok, all, c.Kind())
		}
		runs := 0
		for i, v := range all {
			if i == 0 || v != all[i-1]+1 {
				runs++
			}
		}
		if got := c.runCount(); got != runs {
			t.Fatalf("trial %d: runCount=%d want %d (kind %s)", trial, got, runs, c.Kind())
		}
	}
}

// TestContainerPackSizesExactly: a packed array keeps no append slack,
// and packing never leaves a representation costlier than the others.
func TestContainerPackSizesExactly(t *testing.T) {
	c := NewContainer()
	for v := uint32(0); v < 300; v++ {
		c.Add(v * 97)
	}
	c.Pack()
	if c.Kind() != "array" || cap(c.arr) != len(c.arr) {
		t.Fatalf("packed %s with cap %d for %d elements", c.Kind(), cap(c.arr), len(c.arr))
	}
}

// TestContainerReadsDoNotMutate pins the rule the index's off-lock merge
// build depends on: being read, or being the argument of a set
// operation, leaves a container's representation untouched.
func TestContainerReadsDoNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		o, _ := randomContainer(rng, trial)
		kind, img := o.Kind(), o.AppendBinary(nil)
		for shape := 0; shape < 4; shape++ {
			c, _ := randomContainer(rng, shape)
			c.Clone().And(o)
			c.Clone().Or(o)
			c.Clone().AndNot(o)
			c.Equal(o)
		}
		o.Contains(rng.Uint32() % 10000)
		o.Slice()
		o.Iter().Advance(rng.Uint32() % 10000)
		o.Clone().Add(1 << 20)
		if o.Kind() != kind || !bytes.Equal(o.AppendBinary(nil), img) {
			t.Fatalf("trial %d: a read changed the container (%s → %s)", trial, kind, o.Kind())
		}
	}
}

func TestContainerPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		c, ref := randomContainer(rng, trial)
		before := c.Slice()
		c.Pack()
		if !equalU32(c.Slice(), before) {
			t.Fatalf("trial %d: Pack changed contents (kind %s)", trial, c.Kind())
		}
		if c.Len() != len(ref) {
			t.Fatalf("trial %d: Pack changed Len", trial)
		}
	}
}

func TestContainerPackChoosesRun(t *testing.T) {
	c := NewContainer()
	for v := uint32(100); v < 5000; v++ {
		c.Add(v)
	}
	c.Pack()
	if c.Kind() != "run" {
		t.Fatalf("contiguous block packed as %s, want run", c.Kind())
	}
	if c.SizeBytes() != 8 {
		t.Fatalf("single run costs %d bytes, want 8", c.SizeBytes())
	}
}

func TestContainerPackChoosesArray(t *testing.T) {
	c := ContainerOf(5, 90000, 500000)
	c.toBitmap()
	c.Pack()
	if c.Kind() != "array" {
		t.Fatalf("sparse set packed as %s, want array", c.Kind())
	}
}

func TestContainerTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		c, ref := randomContainer(rng, trial)
		limit := rng.Intn(6000)
		c.Trim(limit)
		want := []uint32{}
		for v := range ref {
			if int(v) < limit {
				want = append(want, v)
			}
		}
		sortU32(want)
		if !equalU32(c.Slice(), want) {
			t.Fatalf("trial %d: Trim(%d) mismatch (kind %s)", trial, limit, c.Kind())
		}
		if c.Len() != len(want) {
			t.Fatalf("trial %d: Trim Len mismatch", trial)
		}
	}
}

func TestContainerIterAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		c, ref := randomContainer(rng, trial)
		all := ref.slice()
		it := c.Iter()
		// Advance through ascending random targets.
		target := uint32(0)
		for {
			target += uint32(rng.Intn(500))
			got, ok := it.Advance(target)
			// Oracle: smallest v in all with v >= target.
			var want uint32
			wantOK := false
			for _, v := range all {
				if v >= target {
					want, wantOK = v, true
					break
				}
			}
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("trial %d: Advance(%d)=(%d,%v) want (%d,%v) kind %s",
					trial, target, got, ok, want, wantOK, c.Kind())
			}
			if !ok {
				break
			}
			// Consume everything == got from oracle so next Advance
			// starts past it.
			idx := 0
			for idx < len(all) && all[idx] <= got {
				idx++
			}
			all = all[idx:]
			target = got
			if target == ^uint32(0) {
				break
			}
			target++
		}
	}
}

func TestContainerCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		c, _ := randomContainer(rng, trial)
		if rng.Intn(2) == 0 {
			c.Pack()
		}
		data := c.AppendBinary(nil)
		got, n, err := DecodeContainer(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v (kind %s)", trial, err, c.Kind())
		}
		if n != len(data) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, n, len(data))
		}
		if !got.Equal(c) {
			t.Fatalf("trial %d: round-trip mismatch (kind %s→%s)", trial, c.Kind(), got.Kind())
		}
	}
}

func TestContainerCodecRejectsCorrupt(t *testing.T) {
	bad := [][]byte{
		nil,
		{codecArray},
		{codecArray, 2, 0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0},  // unsorted
		{codecArray, 2, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0},  // duplicate
		{codecRun, 1, 0, 0, 0, 9, 0, 0, 0, 3, 0, 0, 0},    // inverted run
		{codecBitmap, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // trailing zero word
		{'Z', 0, 0, 0, 0},                // unknown kind
		{codecArray, 255, 255, 255, 255}, // implausible count
		{codecRun, 2, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 9, 0, 0, 0}, // adjacent runs
	}
	for i, data := range bad {
		if _, _, err := DecodeContainer(data); err == nil {
			t.Fatalf("case %d: corrupt image %v decoded without error", i, data)
		}
	}
}

func TestSegmentedMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		s := NewSegmented()
		for seg := 0; seg < rng.Intn(5); seg++ {
			for i := 0; i < rng.Intn(100); i++ {
				s.Add(joinSegID(uint32(seg*3), rng.Uint32()%5000))
			}
		}
		if rng.Intn(2) == 0 {
			s.Pack()
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		got, err := UnmarshalSegmented(data)
		if err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !got.Equal(s) || !s.Equal(got) {
			t.Fatalf("trial %d: round-trip mismatch", trial)
		}
		// Canonical: re-marshal matches when packed state is identical.
		data2, _ := got.MarshalBinary()
		if !bytes.Equal(data, data2) {
			t.Fatalf("trial %d: re-marshal differs", trial)
		}
	}
}

func TestSegmentedKinds(t *testing.T) {
	s := NewSegmented()
	for _, i := range []uint64{0, 500, 900} {
		s.Add(i) // segment 0, sparse
	}
	for i := uint64(0); i < 1000; i++ {
		s.Add(1<<32 | i) // segment 1, one run
	}
	s.Pack()
	if got := s.Kinds(); got != "array:1 run:1" {
		t.Fatalf("Kinds() = %q, want %q", got, "array:1 run:1")
	}
}

// FuzzContainerCodec asserts the decoder never panics, never accepts an
// invariant-violating image, and that accepted images re-encode to an
// equal container.
func FuzzContainerCodec(f *testing.F) {
	seed := ContainerOf(1, 2, 3, 100, 5000)
	f.Add(seed.AppendBinary(nil))
	seed.Pack()
	f.Add(seed.AppendBinary(nil))
	run := NewContainer()
	for v := uint32(10); v < 200; v++ {
		run.Add(v)
	}
	run.Pack()
	f.Add(run.AppendBinary(nil))
	f.Add([]byte{codecBitmap, 1, 0, 0, 0, 0xff, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, n, err := DecodeContainer(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// Invariants: Len matches iteration, iteration strictly ascending.
		count := 0
		prev, first := uint32(0), true
		c.Range(func(v uint32) bool {
			if !first && v <= prev {
				t.Fatalf("iteration not strictly ascending: %d after %d", v, prev)
			}
			prev, first = v, false
			count++
			return true
		})
		if count != c.Len() {
			t.Fatalf("Len()=%d but iterated %d", c.Len(), count)
		}
		// Re-encode and re-decode: must be equal.
		data2 := c.AppendBinary(nil)
		c2, _, err := DecodeContainer(data2)
		if err != nil {
			t.Fatalf("re-decode of accepted image failed: %v", err)
		}
		if !c2.Equal(c) {
			t.Fatalf("re-encode round-trip mismatch")
		}
	})
}
