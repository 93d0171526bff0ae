package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// Container is a compressed set of uint32 local IDs — the per-segment
// payload of a Segmented set. Following the roaring design, each
// container picks the representation its cardinality profile favors:
//
//   - array: a sorted slice of IDs, 4 bytes per element — wins for
//     sparse results (the paper's "better sparse-set representations");
//   - bitmap: the dense N/8-byte form the paper stores per semantic
//     directory — wins above ~1/32 density;
//   - run: sorted [lo,hi] intervals, 8 bytes per run — wins for the
//     near-contiguous sets produced by compaction (aliveLocal of a
//     merged segment is typically one run).
//
// Mutating operations may change the representation; Pack re-selects
// the cheapest one. A Container is not safe for concurrent mutation, but
// no read (Contains, Range, Iter, being the argument of And/Or/AndNot)
// changes it, so any number of readers may share one that nobody
// mutates — the index's sealed postings rely on that.
type Container struct {
	kind  uint8
	n     int      // exact cardinality
	arr   []uint32 // kindArray: sorted, unique
	words []uint64 // kindBitmap
	runs  []irun   // kindRun: sorted, non-overlapping, gap >= 1 apart
}

// Container kinds.
const (
	kindArray uint8 = iota
	kindBitmap
	kindRun
)

// irun is one inclusive interval.
type irun struct{ lo, hi uint32 }

// arrayDenseLen is the array length from which Add and Or switch a
// container to a bitmap once the array is the dearer form: 4 bytes an
// element against one bit per id up to the largest — the choice Pack
// would make. (Roaring's fixed 4096-element rule assumes 16-bit ids in a
// 65536-id chunk; these ids are slots of one index segment.) Shorter
// arrays are left alone: they are cheap either way.
const arrayDenseLen = 64

// arrayOutgrown reports whether the array form should give way.
func (c *Container) arrayOutgrown() bool {
	n := len(c.arr)
	return n >= arrayDenseLen && 32*n > int(c.arr[n-1])
}

// NewContainer returns an empty container (array representation).
func NewContainer() *Container { return &Container{kind: kindArray} }

// ContainerOf returns a container holding exactly the given ids.
func ContainerOf(ids ...uint32) *Container {
	c := NewContainer()
	for _, id := range ids {
		c.Add(id)
	}
	return c
}

// ContainerOfSorted returns a container holding ids, which must be
// sorted and distinct. It keeps ids as its array, so the caller hands
// them over, unless a bitmap is the cheaper form.
func ContainerOfSorted(ids []uint32) *Container {
	c := &Container{kind: kindArray, n: len(ids), arr: ids}
	if c.arrayOutgrown() {
		c.toBitmap()
	}
	return c
}

// FullContainer returns the container holding every id in [0, n): one
// run, whatever n is.
func FullContainer(n int) *Container {
	if n <= 0 {
		return NewContainer()
	}
	return &Container{kind: kindRun, n: n, runs: []irun{{0, uint32(n - 1)}}}
}

// Kind names the current representation ("array", "bitmap" or "run"),
// for Explain output and tests.
func (c *Container) Kind() string {
	switch c.kind {
	case kindArray:
		return "array"
	case kindBitmap:
		return "bitmap"
	case kindRun:
		return "run"
	}
	return fmt.Sprintf("kind(%d)", c.kind)
}

// Len returns the number of elements.
func (c *Container) Len() int { return c.n }

// Any reports whether the container is non-empty.
func (c *Container) Any() bool { return c.n > 0 }

// SizeBytes returns the payload footprint of the current representation.
func (c *Container) SizeBytes() int {
	switch c.kind {
	case kindArray:
		return 4 * len(c.arr)
	case kindBitmap:
		return 8 * len(c.words)
	default:
		return 8 * len(c.runs)
	}
}

// Contains reports whether id is present.
func (c *Container) Contains(id uint32) bool {
	switch c.kind {
	case kindArray:
		i := searchU32(c.arr, id)
		return i < len(c.arr) && c.arr[i] == id
	case kindBitmap:
		w := int(id / wordBits)
		return w < len(c.words) && c.words[w]&(1<<(id%wordBits)) != 0
	default:
		i := sort.Search(len(c.runs), func(i int) bool { return c.runs[i].hi >= id })
		return i < len(c.runs) && c.runs[i].lo <= id
	}
}

func searchU32(a []uint32, v uint32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts id, converting representation when the array form
// outgrows its sweet spot.
func (c *Container) Add(id uint32) {
	switch c.kind {
	case kindArray:
		// Fast paths: the first element, ascending appends (index commit
		// order), and the last element again (a repeated term of the
		// document being indexed). The first element gets room for four:
		// a smaller array is a tiny allocation, which shares a 16-byte
		// block with the next small object (in an ingest, the new term's
		// key) and keeps the whole block alive with it. Pack trims the
		// slack.
		if cap(c.arr) == 0 {
			c.arr = append(make([]uint32, 0, 4), id)
			c.n++
		} else if len(c.arr) == 0 || id > c.arr[len(c.arr)-1] {
			c.arr = append(c.arr, id)
			c.n++
		} else if id == c.arr[len(c.arr)-1] {
			return
		} else {
			i := searchU32(c.arr, id)
			if c.arr[i] == id {
				return
			}
			c.arr = append(c.arr, 0)
			copy(c.arr[i+1:], c.arr[i:])
			c.arr[i] = id
			c.n++
		}
		if c.arrayOutgrown() {
			c.toBitmap()
		}
	case kindBitmap:
		w := int(id / wordBits)
		c.growWords(w + 1)
		mask := uint64(1) << (id % wordBits)
		if c.words[w]&mask == 0 {
			c.words[w] |= mask
			c.n++
		}
	default: // run: fall back to a mutable form
		c.toBitmap()
		c.Add(id)
	}
}

// Remove deletes id if present.
func (c *Container) Remove(id uint32) {
	switch c.kind {
	case kindArray:
		i := searchU32(c.arr, id)
		if i < len(c.arr) && c.arr[i] == id {
			c.arr = append(c.arr[:i], c.arr[i+1:]...)
			c.n--
		}
	case kindBitmap:
		w := int(id / wordBits)
		if w < len(c.words) {
			mask := uint64(1) << (id % wordBits)
			if c.words[w]&mask != 0 {
				c.words[w] &^= mask
				c.n--
			}
		}
	default:
		if c.Contains(id) {
			c.toBitmap()
			c.Remove(id)
		}
	}
}

// growWords extends the word slice to at least n words. Growth is
// amortized: ascending Adds (a merge or reindex build filling a posting)
// extend it one word at a time.
func (c *Container) growWords(n int) {
	if n > len(c.words) {
		c.words = append(c.words, make([]uint64, n-len(c.words))...)
	}
}

// Range visits elements in ascending order until fn returns false.
func (c *Container) Range(fn func(id uint32) bool) {
	switch c.kind {
	case kindArray:
		for _, id := range c.arr {
			if !fn(id) {
				return
			}
		}
	case kindBitmap:
		for wi, w := range c.words {
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				if !fn(uint32(wi*wordBits + bit)) {
					return
				}
				w &= w - 1
			}
		}
	default:
		for _, r := range c.runs {
			for v := uint64(r.lo); v <= uint64(r.hi); v++ {
				if !fn(uint32(v)) {
					return
				}
			}
		}
	}
}

// Slice returns the elements in ascending order.
func (c *Container) Slice() []uint32 {
	out := make([]uint32, 0, c.n)
	c.Range(func(id uint32) bool {
		out = append(out, id)
		return true
	})
	return out
}

// Words returns the set as a dense bitmap in dst's storage (reused when
// it is large enough): bit id%64 of word id/64 is set exactly for the
// members, and words past the last one are absent. It lets a caller test
// many ids for membership at one word load each.
func (c *Container) Words(dst []uint64) []uint64 {
	n := 0
	if c.n > 0 {
		n = int(c.max())/wordBits + 1
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	if c.kind == kindBitmap {
		copy(dst, c.words)
		return dst
	}
	c.Range(func(id uint32) bool {
		dst[id/wordBits] |= 1 << (id % wordBits)
		return true
	})
	return dst
}

// Clone returns a deep copy.
func (c *Container) Clone() *Container {
	out := &Container{kind: c.kind, n: c.n}
	switch c.kind {
	case kindArray:
		out.arr = append([]uint32(nil), c.arr...)
	case kindBitmap:
		out.words = append([]uint64(nil), c.words...)
	default:
		out.runs = append([]irun(nil), c.runs...)
	}
	return out
}

// Max returns the largest element; ok is false when the set is empty.
func (c *Container) Max() (id uint32, ok bool) { return c.max(), c.n > 0 }

// max returns the largest element, or 0 when empty.
func (c *Container) max() uint32 {
	if c.n == 0 {
		return 0
	}
	switch c.kind {
	case kindArray:
		return c.arr[len(c.arr)-1]
	case kindBitmap:
		for wi := len(c.words) - 1; wi >= 0; wi-- {
			if w := c.words[wi]; w != 0 {
				return uint32(wi*wordBits + 63 - bits.LeadingZeros64(w))
			}
		}
		return 0
	default:
		return c.runs[len(c.runs)-1].hi
	}
}

// toBitmap converts the representation to a dense bitmap in place.
func (c *Container) toBitmap() {
	if c.kind == kindBitmap {
		return
	}
	words := make([]uint64, int(c.max())/wordBits+1)
	if c.n == 0 {
		words = nil
	}
	switch c.kind {
	case kindArray:
		for _, id := range c.arr {
			words[id/wordBits] |= 1 << (id % wordBits)
		}
		c.arr = nil
	default:
		for _, r := range c.runs {
			for v := uint64(r.lo); v <= uint64(r.hi); v++ {
				words[v/wordBits] |= 1 << (v % wordBits)
			}
		}
		c.runs = nil
	}
	c.kind = kindBitmap
	c.words = words
}

// toArray converts the representation to a sorted array in place.
func (c *Container) toArray() {
	if c.kind == kindArray {
		return
	}
	c.arr = c.Slice()
	c.words, c.runs = nil, nil
	c.kind = kindArray
}

// runCount returns the number of maximal runs in the set.
func (c *Container) runCount() int {
	switch c.kind {
	case kindArray:
		runs := 0
		for i, v := range c.arr {
			if i == 0 || v != c.arr[i-1]+1 {
				runs++
			}
		}
		return runs
	case kindBitmap:
		// A run starts at every set bit whose predecessor is clear.
		runs, carry := 0, uint64(0)
		for _, w := range c.words {
			runs += bits.OnesCount64(w &^ (w<<1 | carry))
			carry = w >> 63
		}
		return runs
	default:
		return len(c.runs)
	}
}

// Pack re-selects the cheapest representation for the current contents
// — 4n bytes as an array, span/8 as a bitmap, 8r as runs — and sizes it
// exactly. The index packs a posting once, when its segment becomes
// immutable.
func (c *Container) Pack() {
	if c.n == 0 {
		*c = Container{kind: kindArray}
		return
	}
	r := c.runCount()
	switch packedKind(c.n, c.max(), r) {
	case kindRun:
		if c.kind == kindRun {
			return
		}
		runs := make([]irun, 0, r)
		first := true
		var cur irun
		c.Range(func(id uint32) bool {
			if first {
				cur = irun{id, id}
				first = false
			} else if id == cur.hi+1 {
				cur.hi = id
			} else {
				runs = append(runs, cur)
				cur = irun{id, id}
			}
			return true
		})
		runs = append(runs, cur)
		n := c.n
		*c = Container{kind: kindRun, runs: runs, n: n}
	case kindArray:
		c.toArray()
		if cap(c.arr) > len(c.arr) { // drop append slack: packed sets are kept
			c.arr = append(make([]uint32, 0, len(c.arr)), c.arr...)
		}
	default:
		c.toBitmap()
	}
}

// packedKind is Pack's cost rule for a non-empty set of n ids, the
// largest maxID, in r maximal runs: 8r bytes as runs, 4n as an array,
// one bit per id up to maxID as a bitmap — the cheapest wins, runs
// before array before bitmap on a tie.
func packedKind(n int, maxID uint32, r int) uint8 {
	arrCost := 4 * n
	bmpCost := (int(maxID)/wordBits + 1) * 8
	runCost := 8 * r
	switch {
	case runCost <= arrCost && runCost <= bmpCost:
		return kindRun
	case arrCost <= bmpCost:
		return kindArray
	default:
		return kindBitmap
	}
}

// Trim removes every element >= limit, keeping only ids in [0, limit).
func (c *Container) Trim(limit int) {
	if limit < 0 {
		limit = 0
	}
	switch c.kind {
	case kindArray:
		i := len(c.arr)
		for i > 0 && uint64(c.arr[i-1]) >= uint64(limit) {
			i--
		}
		c.arr = c.arr[:i]
		c.n = i
	case kindBitmap:
		w := limit / wordBits
		if w < len(c.words) {
			c.words[w] &= (1 << (limit % wordBits)) - 1
			for i := w + 1; i < len(c.words); i++ {
				c.words[i] = 0
			}
			c.recount()
		}
	default:
		out := c.runs[:0]
		for _, r := range c.runs {
			if uint64(r.lo) >= uint64(limit) {
				break
			}
			if uint64(r.hi) >= uint64(limit) {
				r.hi = uint32(limit - 1)
			}
			out = append(out, r)
		}
		c.runs = out
		c.recount()
	}
}

func (c *Container) recount() {
	switch c.kind {
	case kindArray:
		c.n = len(c.arr)
	case kindBitmap:
		n := 0
		for _, w := range c.words {
			n += bits.OnesCount64(w)
		}
		c.n = n
	default:
		n := 0
		for _, r := range c.runs {
			n += int(r.hi-r.lo) + 1
		}
		c.n = n
	}
}

// Equal reports whether c and o contain the same elements.
func (c *Container) Equal(o *Container) bool {
	if c.n != o.n {
		return false
	}
	ci, oi := c.Iter(), o.Iter()
	for {
		cv, cok := ci.Next()
		ov, ook := oi.Next()
		if cok != ook {
			return false
		}
		if !cok {
			return true
		}
		if cv != ov {
			return false
		}
	}
}

// And intersects c with o in place. Array-vs-array uses a galloping
// merge (exponential probe from the current position), the skip-list
// style intersection the planner's cheapest-first AND chains rely on.
func (c *Container) And(o *Container) {
	if c.n == 0 {
		return
	}
	if o.n == 0 {
		*c = Container{kind: kindArray}
		return
	}
	switch {
	case c.kind == kindArray && o.kind == kindArray:
		c.arr = intersectGalloping(c.arr, o.arr)
		c.n = len(c.arr)
	case c.kind == kindArray:
		out := c.arr[:0]
		for _, id := range c.arr {
			if o.Contains(id) {
				out = append(out, id)
			}
		}
		c.arr = out
		c.n = len(out)
	case c.kind == kindBitmap && o.kind == kindBitmap:
		n := min(len(c.words), len(o.words))
		for i := 0; i < n; i++ {
			c.words[i] &= o.words[i]
		}
		for i := n; i < len(c.words); i++ {
			c.words[i] = 0
		}
		c.recount()
	case c.kind == kindBitmap && o.kind == kindArray:
		// Probe the small side: the result is at most o.
		out := make([]uint32, 0, min(c.n, o.n))
		for _, id := range o.arr {
			if c.Contains(id) {
				out = append(out, id)
			}
		}
		*c = Container{kind: kindArray, arr: out, n: len(out)}
	case c.kind == kindBitmap: // o is runs: mask words outside o's runs
		c.maskToRuns(o.runs)
		c.recount()
	default: // c is runs
		if o.kind == kindRun {
			c.runs = intersectRuns(c.runs, o.runs)
			c.recount()
			return
		}
		c.toBitmap()
		c.And(o)
	}
}

// intersectGalloping intersects two sorted slices in place of a, using
// exponential search on the longer side.
func intersectGalloping(a, b []uint32) []uint32 {
	if len(a) > len(b) {
		// Keep the probe side the longer one; result fits in a's storage.
		out := a[:0]
		bi := 0
		for _, v := range b {
			bi = gallopTo(a, bi, v)
			if bi < len(a) && a[bi] == v {
				out = append(out, v)
			}
			if bi >= len(a) {
				break
			}
		}
		return out
	}
	out := a[:0]
	bi := 0
	for _, v := range a {
		bi = gallopTo(b, bi, v)
		if bi >= len(b) {
			break
		}
		if b[bi] == v {
			out = append(out, v)
		}
	}
	return out
}

// gallopTo returns the smallest index i >= from with a[i] >= v, probing
// exponentially before the final binary search.
func gallopTo(a []uint32, from int, v uint32) int {
	if from >= len(a) || a[from] >= v {
		return from
	}
	step := 1
	lo := from
	for lo+step < len(a) && a[lo+step] < v {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(a))
	return lo + searchU32(a[lo:hi], v)
}

// maskToRuns clears every bit of a bitmap container outside runs.
func (c *Container) maskToRuns(runs []irun) {
	masked := make([]uint64, len(c.words))
	for _, r := range runs {
		loW, hiW := int(r.lo/wordBits), int(r.hi/wordBits)
		if loW >= len(c.words) {
			break
		}
		hiW = min(hiW, len(c.words)-1)
		for w := loW; w <= hiW; w++ {
			mask := ^uint64(0)
			if w == loW {
				mask &= ^uint64(0) << (r.lo % wordBits)
			}
			if w == int(r.hi/wordBits) {
				keep := uint64(r.hi%wordBits) + 1
				if keep < 64 {
					mask &= (1 << keep) - 1
				}
			}
			masked[w] |= c.words[w] & mask
		}
	}
	c.words = masked
}

// intersectRuns intersects two sorted run lists.
func intersectRuns(a, b []irun) []irun {
	var out []irun
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max(a[i].lo, b[j].lo)
		hi := min(a[i].hi, b[j].hi)
		if lo <= hi {
			out = append(out, irun{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// Or unions o into c in place.
func (c *Container) Or(o *Container) {
	if o.n == 0 {
		return
	}
	if c.n == 0 {
		*c = *o.Clone()
		return
	}
	switch {
	case c.kind == kindArray && o.kind == kindArray:
		c.arr = unionArrays(c.arr, o.arr)
		c.n = len(c.arr)
		if c.arrayOutgrown() {
			c.toBitmap()
		}
	case c.kind == kindRun && o.kind == kindRun:
		c.runs = unionRuns(c.runs, o.runs)
		c.recount()
	case c.kind == kindBitmap && o.kind == kindBitmap:
		c.growWords(len(o.words))
		for i, w := range o.words {
			c.words[i] |= w
		}
		c.recount()
	default:
		c.toBitmap()
		c.growWords(int(o.max())/wordBits + 1)
		o.Range(func(id uint32) bool {
			if mask := uint64(1) << (id % wordBits); c.words[id/wordBits]&mask == 0 {
				c.words[id/wordBits] |= mask
				c.n++
			}
			return true
		})
	}
}

func unionArrays(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func unionRuns(a, b []irun) []irun {
	all := make([]irun, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next irun
		if j >= len(b) || (i < len(a) && a[i].lo <= b[j].lo) {
			next = a[i]
			i++
		} else {
			next = b[j]
			j++
		}
		if n := len(all); n > 0 && uint64(next.lo) <= uint64(all[n-1].hi)+1 {
			if next.hi > all[n-1].hi {
				all[n-1].hi = next.hi
			}
		} else {
			all = append(all, next)
		}
	}
	return all
}

// AndNot removes every element of o from c in place.
func (c *Container) AndNot(o *Container) {
	if c.n == 0 || o.n == 0 {
		return
	}
	switch {
	case c.kind == kindArray:
		out := c.arr[:0]
		for _, id := range c.arr {
			if !o.Contains(id) {
				out = append(out, id)
			}
		}
		c.arr = out
		c.n = len(out)
	case c.kind == kindBitmap && o.kind == kindBitmap:
		n := min(len(c.words), len(o.words))
		for i := 0; i < n; i++ {
			c.words[i] &^= o.words[i]
		}
		c.recount()
	case c.kind == kindBitmap && o.kind == kindArray:
		for _, id := range o.arr {
			c.Remove(id)
		}
	case c.kind == kindBitmap: // o is runs
		for _, r := range o.runs {
			for w := int(r.lo / wordBits); w <= int(r.hi/wordBits) && w < len(c.words); w++ {
				mask := ^uint64(0)
				if w == int(r.lo/wordBits) {
					mask &= ^uint64(0) << (r.lo % wordBits)
				}
				if w == int(r.hi/wordBits) {
					keep := uint64(r.hi%wordBits) + 1
					if keep < 64 {
						mask &= (1 << keep) - 1
					}
				}
				c.words[w] &^= mask
			}
		}
		c.recount()
	default: // c is runs
		c.toBitmap()
		c.AndNot(o)
	}
}

// Iter returns an iterator positioned before the first element.
type ContainerIter struct {
	c   *Container
	idx int    // array index / run index
	wi  int    // bitmap word index
	w   uint64 // remaining bits of current word
	cur uint64 // next value within current run (run kind)
}

// Iter returns a fresh iterator over c. Mutating c invalidates it.
func (c *Container) Iter() *ContainerIter {
	it := &ContainerIter{c: c}
	if c.kind == kindBitmap && len(c.words) > 0 {
		it.w = c.words[0]
	}
	if c.kind == kindRun && len(c.runs) > 0 {
		it.cur = uint64(c.runs[0].lo)
	}
	return it
}

// Next returns the next element in ascending order.
func (it *ContainerIter) Next() (uint32, bool) {
	c := it.c
	switch c.kind {
	case kindArray:
		if it.idx >= len(c.arr) {
			return 0, false
		}
		v := c.arr[it.idx]
		it.idx++
		return v, true
	case kindBitmap:
		for it.wi < len(c.words) {
			if it.w != 0 {
				bit := bits.TrailingZeros64(it.w)
				it.w &= it.w - 1
				return uint32(it.wi*wordBits + bit), true
			}
			it.wi++
			if it.wi < len(c.words) {
				it.w = c.words[it.wi]
			}
		}
		return 0, false
	default:
		for it.idx < len(c.runs) {
			r := c.runs[it.idx]
			if it.cur < uint64(r.lo) {
				it.cur = uint64(r.lo)
			}
			if it.cur <= uint64(r.hi) {
				v := uint32(it.cur)
				it.cur++
				return v, true
			}
			it.idx++
			if it.idx < len(c.runs) {
				it.cur = uint64(c.runs[it.idx].lo)
			}
		}
		return 0, false
	}
}

// Advance returns the smallest element >= v at or after the iterator's
// position (galloping on arrays, word-skipping on bitmaps, run-skipping
// on run lists), advancing past it. Calls must use non-decreasing v.
func (it *ContainerIter) Advance(v uint32) (uint32, bool) {
	c := it.c
	switch c.kind {
	case kindArray:
		it.idx = gallopTo(c.arr, it.idx, v)
		return it.Next()
	case kindBitmap:
		w := int(v / wordBits)
		if w > it.wi {
			it.wi = w
			if it.wi < len(c.words) {
				it.w = c.words[it.wi]
			} else {
				it.w = 0
			}
		}
		if it.wi == w && it.wi < len(c.words) {
			it.w &= ^uint64(0) << (v % wordBits)
		}
		return it.Next()
	default:
		for it.idx < len(c.runs) && c.runs[it.idx].hi < v {
			it.idx++
			if it.idx < len(c.runs) {
				it.cur = uint64(c.runs[it.idx].lo)
			}
		}
		if it.idx < len(c.runs) && it.cur < uint64(v) {
			it.cur = uint64(v)
		}
		return it.Next()
	}
}

// countFrom returns the number of elements >= v.
func (c *Container) countFrom(v uint32) int {
	switch c.kind {
	case kindArray:
		return len(c.arr) - searchU32(c.arr, v)
	case kindBitmap:
		w := int(v / wordBits)
		if w >= len(c.words) {
			return 0
		}
		n := bits.OnesCount64(c.words[w] & (^uint64(0) << (v % wordBits)))
		for _, word := range c.words[w+1:] {
			n += bits.OnesCount64(word)
		}
		return n
	default:
		n := 0
		for _, r := range c.runs {
			if r.hi >= v {
				n += int(r.hi-max(r.lo, v)) + 1
			}
		}
		return n
	}
}

// ---------------------------------------------------------------------
// Binary codec. One container serializes as
//
//	kind byte ('A' | 'B' | 'R') | u32 count | payload (LE fixed-width)
//
// where payload is count*4 bytes of sorted ids (A), count*8 bytes of
// words (B), or count*8 bytes of [lo,hi] pairs (R). Decoding validates
// every representation invariant, so a corrupted or adversarial image
// yields an error, never a malformed set (FuzzContainerCodec drives
// this).
// ---------------------------------------------------------------------

// Codec kind bytes.
const (
	codecArray  = 'A'
	codecBitmap = 'B'
	codecRun    = 'R'
)

// maxCodecCount bounds the element/word/run count a decoder accepts.
const maxCodecCount = 1 << 28

// AppendBinary appends the container's serialized form to dst.
func (c *Container) AppendBinary(dst []byte) []byte {
	switch c.kind {
	case kindArray:
		dst = append(dst, codecArray)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.arr)))
		for _, id := range c.arr {
			dst = binary.LittleEndian.AppendUint32(dst, id)
		}
	case kindBitmap:
		words := c.words
		for len(words) > 0 && words[len(words)-1] == 0 {
			words = words[:len(words)-1]
		}
		dst = append(dst, codecBitmap)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(words)))
		for _, w := range words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	default:
		dst = append(dst, codecRun)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.runs)))
		for _, r := range c.runs {
			dst = binary.LittleEndian.AppendUint32(dst, r.lo)
			dst = binary.LittleEndian.AppendUint32(dst, r.hi)
		}
	}
	return dst
}

// AppendCompacted appends to dst the serialized form of the set
// {remap[id] : id ∈ c, remap[id] ≠ drop} — byte for byte what adding
// those ids to a fresh container, packing it and calling AppendBinary
// gives — without building that container: the kept ids are collected
// into scratch, and Pack's cost rule picks the form they are written
// in. remap must cover every id of c and be strictly increasing over
// the ids it keeps (a renumbering that drops slots). It returns the
// extended dst and the kept ids, in scratch's storage for the caller to
// pass back in; when no id is kept, dst is returned unchanged.
func (c *Container) AppendCompacted(dst []byte, remap []uint32, drop uint32, scratch []uint32) ([]byte, []uint32) {
	kept := scratch[:0]
	switch c.kind {
	case kindArray:
		for _, id := range c.arr {
			if nl := remap[id]; nl != drop {
				kept = append(kept, nl)
			}
		}
	case kindBitmap:
		for wi, w := range c.words {
			for w != 0 {
				if nl := remap[wi*wordBits+bits.TrailingZeros64(w)]; nl != drop {
					kept = append(kept, nl)
				}
				w &= w - 1
			}
		}
	default:
		for _, r := range c.runs {
			for v := uint64(r.lo); v <= uint64(r.hi); v++ {
				if nl := remap[v]; nl != drop {
					kept = append(kept, nl)
				}
			}
		}
	}
	if len(kept) == 0 {
		return dst, kept
	}
	runs := 1
	for i := 1; i < len(kept); i++ {
		if kept[i] != kept[i-1]+1 {
			runs++
		}
	}
	maxID := kept[len(kept)-1]
	switch packedKind(len(kept), maxID, runs) {
	case kindRun:
		dst = append(dst, codecRun)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(runs))
		lo := kept[0]
		for i := 1; i < len(kept); i++ {
			if kept[i] != kept[i-1]+1 {
				dst = binary.LittleEndian.AppendUint32(dst, lo)
				dst = binary.LittleEndian.AppendUint32(dst, kept[i-1])
				lo = kept[i]
			}
		}
		dst = binary.LittleEndian.AppendUint32(dst, lo)
		dst = binary.LittleEndian.AppendUint32(dst, maxID)
	case kindArray:
		dst = append(dst, codecArray)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(kept)))
		for _, id := range kept {
			dst = binary.LittleEndian.AppendUint32(dst, id)
		}
	default:
		nw := int(maxID)/wordBits + 1
		dst = append(dst, codecBitmap)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(nw))
		var w uint64
		wi := 0
		for _, id := range kept {
			for ; int(id/wordBits) > wi; wi++ {
				dst = binary.LittleEndian.AppendUint64(dst, w)
				w = 0
			}
			w |= 1 << (id % wordBits)
		}
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst, kept
}

// DecodeContainer decodes one container from the front of data,
// returning it and the number of bytes consumed.
func DecodeContainer(data []byte) (*Container, int, error) {
	if len(data) < 5 {
		return nil, 0, fmt.Errorf("bitset: container truncated (%d bytes)", len(data))
	}
	kind := data[0]
	count := int(binary.LittleEndian.Uint32(data[1:5]))
	if count < 0 || count > maxCodecCount {
		return nil, 0, fmt.Errorf("bitset: implausible container count %d", count)
	}
	body := data[5:]
	switch kind {
	case codecArray:
		need := 4 * count
		if len(body) < need {
			return nil, 0, fmt.Errorf("bitset: array container truncated")
		}
		arr := make([]uint32, count)
		for i := range arr {
			arr[i] = binary.LittleEndian.Uint32(body[4*i:])
			if i > 0 && arr[i] <= arr[i-1] {
				return nil, 0, fmt.Errorf("bitset: array container not strictly sorted at %d", i)
			}
		}
		return &Container{kind: kindArray, arr: arr, n: count}, 5 + need, nil
	case codecBitmap:
		need := 8 * count
		if len(body) < need {
			return nil, 0, fmt.Errorf("bitset: bitmap container truncated")
		}
		words := make([]uint64, count)
		n := 0
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(body[8*i:])
			n += bits.OnesCount64(words[i])
		}
		if count > 0 && words[count-1] == 0 {
			return nil, 0, fmt.Errorf("bitset: bitmap container has trailing zero word")
		}
		return &Container{kind: kindBitmap, words: words, n: n}, 5 + need, nil
	case codecRun:
		need := 8 * count
		if len(body) < need {
			return nil, 0, fmt.Errorf("bitset: run container truncated")
		}
		runs := make([]irun, count)
		n := 0
		for i := range runs {
			lo := binary.LittleEndian.Uint32(body[8*i:])
			hi := binary.LittleEndian.Uint32(body[8*i+4:])
			if hi < lo {
				return nil, 0, fmt.Errorf("bitset: inverted run [%d,%d]", lo, hi)
			}
			if i > 0 && uint64(lo) <= uint64(runs[i-1].hi)+1 {
				return nil, 0, fmt.Errorf("bitset: overlapping or adjacent runs at %d", i)
			}
			runs[i] = irun{lo, hi}
			n += int(hi-lo) + 1
			if n > maxCodecCount {
				return nil, 0, fmt.Errorf("bitset: implausible run cardinality")
			}
		}
		return &Container{kind: kindRun, runs: runs, n: n}, 5 + need, nil
	default:
		return nil, 0, fmt.Errorf("bitset: unknown container kind %q", kind)
	}
}
