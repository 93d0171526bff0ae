package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapBasic(t *testing.T) {
	b := NewBitmap(100)
	if b.Len() != 0 {
		t.Fatalf("new bitmap Len = %d, want 0", b.Len())
	}
	b.Add(3)
	b.Add(64)
	b.Add(99)
	if !b.Contains(3) || !b.Contains(64) || !b.Contains(99) {
		t.Fatal("missing added elements")
	}
	if b.Contains(4) {
		t.Fatal("contains element never added")
	}
	if got := b.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	b.Remove(64)
	if b.Contains(64) {
		t.Fatal("contains removed element")
	}
	if got := b.Len(); got != 2 {
		t.Fatalf("Len after remove = %d, want 2", got)
	}
}

func TestBitmapGrow(t *testing.T) {
	b := NewBitmap(0)
	b.Add(1000)
	if !b.Contains(1000) {
		t.Fatal("bitmap did not grow on Add")
	}
	// Remove beyond current size must not panic.
	b.Remove(1 << 20)
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
}

// bitmapOf returns a bitmap of exactly the given ids.
func bitmapOf(ids ...uint32) *Bitmap {
	b := NewBitmap(0)
	for _, id := range ids {
		b.Add(id)
	}
	return b
}

func TestBitmapRangeOrder(t *testing.T) {
	b := bitmapOf(9, 1, 5, 63, 64, 65)
	var got []uint32
	b.Range(func(id uint32) bool {
		got = append(got, id)
		return true
	})
	want := []uint32{1, 5, 9, 63, 64, 65}
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
}

func TestBitmapRangeEarlyStop(t *testing.T) {
	b := bitmapOf(1, 2, 3, 4, 5)
	n := 0
	b.Range(func(uint32) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("Range visited %d elements after early stop, want 2", n)
	}
}

func TestBitmapAndShorterOperand(t *testing.T) {
	a := bitmapOf(1, 1000) // long
	b := bitmapOf(1)       // short
	a.And(b)
	if a.Contains(1000) {
		t.Fatal("And with shorter operand kept high bits")
	}
	if !a.Contains(1) {
		t.Fatal("And dropped shared element")
	}
}

func TestBitmapCloneIndependent(t *testing.T) {
	a := bitmapOf(1, 2)
	c := a.Clone()
	c.Add(3)
	if a.Contains(3) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSizeBytes(t *testing.T) {
	b := NewBitmap(17000)
	// Paper: N/8 bytes ≈ 2 KB for N=17000 (rounded up to word granularity).
	if got := b.SizeBytes(); got < 17000/8 || got > 17000/8+8 {
		t.Fatalf("bitmap SizeBytes = %d, want ≈ %d", got, 17000/8)
	}
	c := ContainerOf(1, 2, 3)
	if got := c.SizeBytes(); got != 12 {
		t.Fatalf("array container SizeBytes = %d, want 12", got)
	}
}

// Property: the dense reference and a container driven by the same
// operation sequence always agree, whatever representation the
// container is in.
func TestPropertyBitmapContainerAgree(t *testing.T) {
	f := func(ops []uint16, packEvery uint8) bool {
		b := NewBitmap(0)
		c := NewContainer()
		for i, op := range ops {
			id := uint32(op % 512)
			if op%3 == 0 {
				b.Remove(id)
				c.Remove(id)
			} else {
				b.Add(id)
				c.Add(id)
			}
			if packEvery > 0 && i%int(packEvery) == 0 {
				c.Pack()
			}
		}
		if b.Len() != c.Len() {
			return false
		}
		ok := true
		c.Range(func(id uint32) bool {
			ok = b.Contains(id)
			return ok
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan over a finite universe —
// universe − (a ∪ b) == (universe − a) ∩ (universe − b).
func TestPropertyDeMorgan(t *testing.T) {
	const universe = 256
	minus := func(a, b *Container) *Container {
		out := a.Clone()
		out.AndNot(b)
		return out
	}
	f := func(aIDs, bIDs []uint16) bool {
		full := FullContainer(universe)
		a, b := NewContainer(), NewContainer()
		for _, id := range aIDs {
			a.Add(uint32(id % universe))
		}
		for _, id := range bIDs {
			b.Add(uint32(id % universe))
		}
		union := a.Clone()
		union.Or(b)
		rhs := minus(full, a)
		rhs.And(minus(full, b))
		return minus(full, union).Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Add then Remove restores the original membership.
func TestPropertyAddRemoveInverse(t *testing.T) {
	f := func(base []uint16, id uint16) bool {
		b := NewBitmap(0)
		for _, x := range base {
			b.Add(uint32(x))
		}
		had := b.Contains(uint32(id))
		b.Add(uint32(id))
		if !b.Contains(uint32(id)) {
			return false
		}
		b.Remove(uint32(id))
		if b.Contains(uint32(id)) {
			return false
		}
		_ = had
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBitmap(0)
	ref := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		id := uint32(rng.Intn(4096))
		switch rng.Intn(3) {
		case 0:
			b.Remove(id)
			delete(ref, id)
		default:
			b.Add(id)
			ref[id] = true
		}
	}
	if b.Len() != len(ref) {
		t.Fatalf("Len = %d, reference = %d", b.Len(), len(ref))
	}
	for id := range ref {
		if !b.Contains(id) {
			t.Fatalf("missing %d", id)
		}
	}
}
