package bitset

import "testing"

func benchBitmaps(n, stride int) (*Bitmap, *Bitmap) {
	a, b := NewBitmap(n), NewBitmap(n)
	for i := 0; i < n; i += stride {
		a.Add(uint32(i))
		b.Add(uint32((i + stride/2) % n))
	}
	return a, b
}

func BenchmarkBitmapAnd17000(b *testing.B) {
	x, y := benchBitmaps(17000, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.And(y)
	}
}

func BenchmarkBitmapRange(b *testing.B) {
	x, _ := benchBitmaps(17000, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		x.Range(func(uint32) bool {
			n++
			return true
		})
	}
}

func BenchmarkContainerAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContainer()
		for j := uint32(0); j < 256; j++ {
			c.Add(j * 7 % 509)
		}
	}
}

// BenchmarkContainerAddLast re-adds the last element of a 1 000-element
// array container, as every repeated word of a document does.
func BenchmarkContainerAddLast(b *testing.B) {
	c := NewContainer()
	for i := uint32(0); i < 1000; i++ {
		c.Add(i * 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(999 * 100)
	}
}
