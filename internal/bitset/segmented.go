package bitset

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Segmented is a set of 64-bit segmented document IDs, as produced by
// the segmented index store: the high 32 bits of an ID name a segment,
// the low 32 bits a local slot within it. Each segment's local set is a
// Container — a roaring-style compressed set that picks an array,
// bitmap, or run representation by cardinality — so sparse query
// results cost bytes proportional to their size while dense ones keep
// the paper's flat-bitmap operation costs.
//
// A Segmented is not safe for concurrent mutation.
type Segmented struct {
	segs map[uint32]*Container // segment → local set, no empty containers
}

// NewSegmented returns an empty segmented set.
func NewSegmented() *Segmented {
	return &Segmented{segs: make(map[uint32]*Container)}
}

// SegmentedOf returns a segmented set containing exactly the given ids.
func SegmentedOf(ids ...uint64) *Segmented {
	s := NewSegmented()
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func splitSegID(id uint64) (seg, local uint32) {
	return uint32(id >> 32), uint32(id)
}

func joinSegID(seg, local uint32) uint64 {
	return uint64(seg)<<32 | uint64(local)
}

// Add inserts id.
func (s *Segmented) Add(id uint64) {
	seg, local := splitSegID(id)
	c, ok := s.segs[seg]
	if !ok {
		c = NewContainer()
		s.segs[seg] = c
	}
	c.Add(local)
}

// Remove deletes id if present.
func (s *Segmented) Remove(id uint64) {
	seg, local := splitSegID(id)
	if c, ok := s.segs[seg]; ok {
		c.Remove(local)
		if !c.Any() {
			delete(s.segs, seg)
		}
	}
}

// Contains reports whether id is present.
func (s *Segmented) Contains(id uint64) bool {
	seg, local := splitSegID(id)
	c, ok := s.segs[seg]
	return ok && c.Contains(local)
}

// Len returns the number of elements.
func (s *Segmented) Len() int {
	n := 0
	for _, c := range s.segs {
		n += c.Len()
	}
	return n
}

// Any reports whether the set is non-empty.
func (s *Segmented) Any() bool {
	for _, c := range s.segs {
		if c.Any() {
			return true
		}
	}
	return false
}

// segments returns the segment keys in ascending order.
func (s *Segmented) segments() []uint32 {
	keys := make([]uint32, 0, len(s.segs))
	for k := range s.segs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Range visits elements in ascending ID order until fn returns false.
func (s *Segmented) Range(fn func(id uint64) bool) {
	for _, seg := range s.segments() {
		stop := false
		s.segs[seg].Range(func(local uint32) bool {
			if !fn(joinSegID(seg, local)) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Segmented) Slice() []uint64 {
	out := make([]uint64, 0, s.Len())
	s.Range(func(id uint64) bool {
		out = append(out, id)
		return true
	})
	return out
}

// SegmentedIter walks a Segmented in ascending ID order from a seek
// position. Mutating the set invalidates it; any number of iterators
// may read one unmutated set concurrently.
type SegmentedIter struct {
	s    *Segmented
	segs []uint32       // segments still to visit, ascending
	cur  *ContainerIter // over segs[0]; nil until its first element is asked for
	seek uint32         // local seek position for segs[0], applied when cur opens
}

// IterFrom returns an iterator positioned at the smallest element >=
// after. The seek costs O(segments) plus one ContainerIter.Advance, not
// a walk over the elements below after.
func (s *Segmented) IterFrom(after uint64) *SegmentedIter {
	seg, local := splitSegID(after)
	segs := s.segments()
	segs = segs[sort.Search(len(segs), func(i int) bool { return segs[i] >= seg }):]
	it := &SegmentedIter{s: s, segs: segs}
	if len(segs) > 0 && segs[0] == seg {
		it.seek = local
	}
	return it
}

// Next returns the next element in ascending order.
func (it *SegmentedIter) Next() (uint64, bool) {
	for len(it.segs) > 0 {
		var v uint32
		var ok bool
		if it.cur == nil {
			it.cur = it.s.segs[it.segs[0]].Iter()
			v, ok = it.cur.Advance(it.seek)
			it.seek = 0
		} else {
			v, ok = it.cur.Next()
		}
		if ok {
			return joinSegID(it.segs[0], v), true
		}
		it.segs, it.cur = it.segs[1:], nil
	}
	return 0, false
}

// Append appends the next max elements (all remaining when max <= 0)
// to dst.
func (it *SegmentedIter) Append(dst []uint64, max int) []uint64 {
	for n := 0; max <= 0 || n < max; n++ {
		id, ok := it.Next()
		if !ok {
			break
		}
		dst = append(dst, id)
	}
	return dst
}

// AppendFrom appends the first max elements >= after (all of them when
// max <= 0) to dst in ascending order: one page of a cursor walk at the
// cost of the page, where Slice pays for the whole set.
func (s *Segmented) AppendFrom(dst []uint64, after uint64, max int) []uint64 {
	return s.IterFrom(after).Append(dst, max)
}

// CountFrom returns the number of elements >= after.
func (s *Segmented) CountFrom(after uint64) int {
	seg, local := splitSegID(after)
	n := 0
	for k, c := range s.segs {
		if k > seg {
			n += c.Len()
		} else if k == seg {
			n += c.countFrom(local)
		}
	}
	return n
}

// Clone returns a deep copy.
func (s *Segmented) Clone() *Segmented {
	out := NewSegmented()
	for seg, c := range s.segs {
		out.segs[seg] = c.Clone()
	}
	return out
}

// And intersects s with other in place.
func (s *Segmented) And(other *Segmented) {
	for seg, c := range s.segs {
		oc, ok := other.segs[seg]
		if !ok {
			delete(s.segs, seg)
			continue
		}
		c.And(oc)
		if !c.Any() {
			delete(s.segs, seg)
		}
	}
}

// Or unions other into s in place.
func (s *Segmented) Or(other *Segmented) {
	for seg, oc := range other.segs {
		if !oc.Any() {
			continue
		}
		c, ok := s.segs[seg]
		if !ok {
			s.segs[seg] = oc.Clone()
			continue
		}
		c.Or(oc)
	}
}

// AndNot removes every element of other from s in place.
func (s *Segmented) AndNot(other *Segmented) {
	for seg, c := range s.segs {
		if oc, ok := other.segs[seg]; ok {
			c.AndNot(oc)
			if !c.Any() {
				delete(s.segs, seg)
			}
		}
	}
}

// Equal reports whether s and other contain the same elements.
func (s *Segmented) Equal(other *Segmented) bool {
	for seg, c := range s.segs {
		oc, ok := other.segs[seg]
		if !ok {
			if c.Any() {
				return false
			}
			continue
		}
		if !c.Equal(oc) {
			return false
		}
	}
	for seg, oc := range other.segs {
		if _, ok := s.segs[seg]; !ok && oc.Any() {
			return false
		}
	}
	return true
}

// SizeBytes returns the approximate payload footprint across segments.
func (s *Segmented) SizeBytes() int {
	n := 0
	for _, c := range s.segs {
		n += 8 + c.SizeBytes()
	}
	return n
}

// SegContainer returns the container stored for one segment, or nil.
// The container is shared, not copied; treat it as read-only.
func (s *Segmented) SegContainer(seg uint32) *Container {
	return s.segs[seg]
}

// PutSegContainer installs c as the local set of one segment, taking
// ownership of c. An empty or nil c clears the segment.
func (s *Segmented) PutSegContainer(seg uint32, c *Container) {
	if c == nil || !c.Any() {
		delete(s.segs, seg)
		return
	}
	s.segs[seg] = c
}

// Pack re-selects the cheapest representation for every segment.
func (s *Segmented) Pack() {
	for _, c := range s.segs {
		c.Pack()
	}
}

// Kinds returns a "kind:count" histogram of segment representations,
// e.g. "array:3 run:1", for Explain output and tests.
func (s *Segmented) Kinds() string {
	counts := map[string]int{}
	for _, c := range s.segs {
		counts[c.Kind()]++
	}
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}

// MarshalBinary serializes the set as
//
//	u32 segCount | repeated (u32 segID | container)
//
// with segments in ascending order. Containers are packed first so the
// image is canonical for a given element set and representation choice.
func (s *Segmented) MarshalBinary() ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(s.segs)))
	for _, seg := range s.segments() {
		out = binary.LittleEndian.AppendUint32(out, seg)
		out = s.segs[seg].AppendBinary(out)
	}
	return out, nil
}

// UnmarshalSegmented decodes a set serialized by MarshalBinary,
// validating all container invariants.
func UnmarshalSegmented(data []byte) (*Segmented, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("bitset: segmented image truncated")
	}
	count := int(binary.LittleEndian.Uint32(data))
	if count > maxCodecCount {
		return nil, fmt.Errorf("bitset: implausible segment count %d", count)
	}
	data = data[4:]
	s := NewSegmented()
	prev, first := uint32(0), true
	for i := 0; i < count; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("bitset: segmented image truncated at segment %d", i)
		}
		seg := binary.LittleEndian.Uint32(data)
		if !first && seg <= prev {
			return nil, fmt.Errorf("bitset: segment ids out of order at %d", i)
		}
		prev, first = seg, false
		c, n, err := DecodeContainer(data[4:])
		if err != nil {
			return nil, err
		}
		if !c.Any() {
			return nil, fmt.Errorf("bitset: empty container for segment %d", seg)
		}
		data = data[4+n:]
		s.segs[seg] = c
	}
	return s, nil
}

// String renders the set for debugging, e.g. "{1:0 1:5 3:2}" as
// segment:local pairs.
func (s *Segmented) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.Range(func(id uint64) bool {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		seg, local := splitSegID(id)
		fmt.Fprintf(&sb, "%d:%d", seg, local)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
