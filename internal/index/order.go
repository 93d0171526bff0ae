package index

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"hacfs/internal/bitset"
)

// Path order (DESIGN.md §10). Every sealed segment keeps order: its
// local slots sorted by path, byte-wise (the order sort.Strings gives),
// ties — a dead and a live slot holding one path — broken by slot
// number. Snapshot.Paths turns each segment's share of a result into a
// sorted run by walking order, and merges the runs, so no string sort
// runs over a whole result whatever order the documents were added in.
//
// The order is built when a segment seals (seal, all four seal points)
// and is kept exact under renames, the only writes that move a sealed
// slot's path: RenamePath moves one entry, RenamePrefix re-sorts the
// segments it touched, and a merge that saw renames land between its
// plan and its commit re-sorts the merged order before install. It is
// derived state: it is not in the image and not counted in IndexBytes.
// The active segment has none; its share is sorted on read.
//
// The order is also a segment's scope index (paper §2.3: a syntactic
// directory provides a scope). The slots under a root are the run of
// paths in [root+"/", root+"0") — '0' is the byte after '/' — plus the
// run at exactly root, since a file path used as a scope selects that
// file (appendScope). The active segment scans its at most
// DefaultSealThreshold paths instead.

// cmpSlots orders two local slots of s by path, then by slot.
func (s *segment) cmpSlots(a, b uint32) int {
	if c := strings.Compare(s.docs[a].path, s.docs[b].path); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// buildOrder sets s.order to every slot in path order. A segment a
// reindex pass built from its walk is usually in path order already, so
// the check comes first.
// Caller owns s or holds ix.mu for writing.
func (s *segment) buildOrder() {
	s.order = make([]uint32, len(s.docs))
	for i := range s.order {
		s.order[i] = uint32(i)
	}
	s.resortOrder()
}

// resortOrder restores path order after paths moved.
func (s *segment) resortOrder() {
	if !slices.IsSortedFunc(s.order, s.cmpSlots) {
		slices.SortFunc(s.order, s.cmpSlots)
	}
}

// orderPos returns the position in s.order of the first slot that sorts
// at or after (path, local).
func (s *segment) orderPos(path string, local uint32) int {
	return sort.Search(len(s.order), func(i int) bool {
		o := s.order[i]
		if c := strings.Compare(s.docs[o].path, path); c != 0 {
			return c > 0
		}
		return o >= local
	})
}

// appendScope appends to dst the first n slots of s whose path is root
// or lies beneath it (root is clean and not "/"), dead ones included,
// in path order for a sealed segment and in slot order for the active
// one. A reclaimed active slot has the path "" and never matches.
// Caller owns s or holds ix.mu.
func (s *segment) appendScope(dst []uint32, root string, n int) []uint32 {
	if s.order == nil {
		for l, d := range s.docs[:n] {
			if strings.HasPrefix(d.path, root) && (len(d.path) == len(root) || d.path[len(root)] == '/') {
				dst = append(dst, uint32(l))
			}
		}
		return dst
	}
	at, below := s.scopeRuns(root)
	dst = slices.Grow(dst, len(at)+len(below))
	for _, run := range [2][]uint32{at, below} {
		for _, l := range run {
			if int(l) < n {
				dst = append(dst, l)
			}
		}
	}
	return dst
}

// scopeRuns returns the two runs of a sealed segment's path order that
// hold root's scope: the slots at exactly root, then those beneath it.
func (s *segment) scopeRuns(root string) (at, below []uint32) {
	i := s.orderPos(root, 0)
	j := i
	for j < len(s.order) && s.docs[s.order[j]].path == root {
		j++
	}
	return s.order[i:j], s.order[s.orderPos(root+"/", 0):s.orderPos(root+"0", 0)]
}

// scopeSet sorts appendScope's slots and hands them to a container.
func scopeSet(slots []uint32) *bitset.Container {
	slices.Sort(slots)
	return bitset.ContainerOfSorted(slots)
}

// orderRename moves local to newPath's place in s.order. It runs before
// s.docs[local].path changes, which is how it finds the slot's current
// entry. Caller holds ix.mu for writing.
func (s *segment) orderRename(local uint32, newPath string) {
	if s.order == nil {
		return
	}
	i := s.orderPos(s.docs[local].path, local)
	s.order = slices.Delete(s.order, i, i+1)
	s.order = slices.Insert(s.order, s.orderPos(newPath, local), local)
}

// mergeRuns appends the merge of sorted, non-empty runs to dst, using
// runs itself as the heap. The run with the smallest head copies out
// everything up to the next smallest head in one go, so runs that cover
// disjoint path ranges cost one comparison per path; interleaved runs
// cost a heap step per path.
func mergeRuns(dst []string, runs [][]string) []string {
	h := runs
	less := func(i, j int) bool { return h[i][0] < h[j][0] }
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(c+1, c) {
				c++
			}
			if !less(c, i) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 1 {
		next := h[1][0]
		if len(h) > 2 && h[2][0] < next {
			next = h[2][0]
		}
		r := h[0]
		n := 1
		for n < len(r) && r[n] <= next {
			n++
		}
		dst = append(dst, r[:n]...)
		if h[0] = r[n:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	if len(h) == 1 {
		dst = append(dst, h[0]...)
	}
	return dst
}
