// Package bitset provides compact representations of sets of file
// identifiers, as used by HAC to store query results ("the list of files
// matching the query of a semantic directory").
//
// The paper (§4) stores one bitmap of N/8 bytes per semantic directory,
// where N is the number of indexed files, and names "better sparse-set
// representations" as future work. The system runs on that future work:
// Container (container.go) is the one set type — postings, tombstones,
// directory scopes and, per segment inside a Segmented (segmented.go),
// every query result. Bitmap below is kept only as the paper's literal
// N/8 slot: the reference the space experiments and the tests measure
// Container against.
//
// Local identifiers are uint32 slots within an index segment; a
// Segmented holds 64-bit segment<<32|slot document IDs.
package bitset

import "math/bits"

const wordBits = 64

// Bitmap is a dense bitmap set. Its footprint is ceil(universe/8) bytes
// regardless of how many elements are present — exactly the
// representation the paper uses for per-directory query results. It is
// a measuring stick, not a working type: nothing outside the space
// ablation, BenchmarkBitmapFootprint and this package's tests uses it.
type Bitmap struct {
	words []uint64
}

// NewBitmap returns an empty bitmap sized for ids in [0, universe).
// The bitmap grows automatically if larger ids are added.
func NewBitmap(universe int) *Bitmap {
	if universe < 0 {
		universe = 0
	}
	return &Bitmap{words: make([]uint64, (universe+wordBits-1)/wordBits)}
}

// Add inserts id.
func (b *Bitmap) Add(id uint32) {
	w := int(id / wordBits)
	if w >= len(b.words) {
		b.words = append(b.words, make([]uint64, w+1-len(b.words))...)
	}
	b.words[w] |= 1 << (id % wordBits)
}

// Remove deletes id if present.
func (b *Bitmap) Remove(id uint32) {
	w := int(id / wordBits)
	if w < len(b.words) {
		b.words[w] &^= 1 << (id % wordBits)
	}
}

// Contains reports whether id is present.
func (b *Bitmap) Contains(id uint32) bool {
	w := int(id / wordBits)
	return w < len(b.words) && b.words[w]&(1<<(id%wordBits)) != 0
}

// Len returns the population count.
func (b *Bitmap) Len() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Range visits elements in ascending order.
func (b *Bitmap) Range(fn func(id uint32) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(uint32(wi*wordBits + bit)) {
				return
			}
			w &= w - 1
		}
	}
}

// SizeBytes returns the payload footprint: one bit per id in the universe.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 8 }

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{words: append([]uint64(nil), b.words...)}
}

// And intersects b with other in place.
func (b *Bitmap) And(other *Bitmap) {
	n := min(len(b.words), len(other.words))
	for i := 0; i < n; i++ {
		b.words[i] &= other.words[i]
	}
	clear(b.words[n:])
}
