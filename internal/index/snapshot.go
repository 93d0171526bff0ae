package index

import (
	gopath "path"

	"hacfs/internal/bitset"
)

// Snapshot is an epoch-pinned read view of the index: the set of
// segments resident when it was taken, with the active segment capped
// at its committed length. A multi-call query evaluation (one Lookup
// per term, then Paths) sees a single consistent ID space even while a
// merge commits concurrently — the snapshot keeps references to the
// pinned segments, which a merge retires but never mutates.
//
// Liveness is read at call time, not pin time: a document deleted after
// the pin stops matching, also when a merge since the pin moved it out of
// the pinned segment — a retired slot is as live as the slot the merge
// moved it to (liveLocked). What the snapshot freezes is the segment set
// — the ID space — not the tombstone state, which is exactly what a
// consistent set intersection needs. Paths are read at call time only in
// segments still resident: a retired segment keeps the paths it had at
// the merge, so a document renamed after a merge that moved it reads
// under its old path in a snapshot pinned before that merge.
type Snapshot struct {
	ix        *Index
	epoch     uint64
	version   uint64
	segs      []*segment // sealed (pin order) then active
	bySeg     map[uint32]*segment
	activeID  uint32
	activeLen int // committed docs in the active segment at pin time
}

// Snapshot pins the current segment set.
func (ix *Index) Snapshot() *Snapshot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sn := &Snapshot{
		ix:        ix,
		epoch:     ix.epoch,
		version:   ix.version.Load(),
		bySeg:     make(map[uint32]*segment, len(ix.sealed)+1),
		activeID:  ix.active.id,
		activeLen: len(ix.active.docs),
	}
	for _, s := range ix.sealed {
		sn.segs = append(sn.segs, s)
		sn.bySeg[s.id] = s
	}
	sn.segs = append(sn.segs, ix.active)
	sn.bySeg[ix.active.id] = ix.active
	return sn
}

// Epoch returns the merge epoch the snapshot pinned.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Version returns the index mutation counter at pin time. Two
// snapshots with equal versions answer every query identically, which
// is what the planner's result cache keys on.
func (sn *Snapshot) Version() uint64 { return sn.version }

func (sn *Snapshot) segLen(s *segment) int {
	if s.id == sn.activeID {
		return sn.activeLen
	}
	return len(s.docs)
}

// liveLocked reports whether local slot l of pinned segment s holds a
// live document now. A retired segment's tombstones stopped at its
// merge: its slot is as live as the one the merge moved it to, however
// many merges ago. Small enough to inline into the per-slot loops of a
// resident segment. Caller holds ix.mu.
func liveLocked(s *segment, l uint32) bool {
	if s.retired == nil {
		return s.docs[l].alive
	}
	return retiredLiveLocked(s, l)
}

// retiredLiveLocked is liveLocked for a retired segment s.
func retiredLiveLocked(s *segment, l uint32) bool {
	for s.retired != nil && s.docs[l].alive {
		r := s.retired
		if l = r.slots[l]; l == noLocal {
			return false
		}
		s = r.to
	}
	return s.docs[l].alive
}

// put installs c — a fresh container of s's local slots, owned by the
// caller — as s's part of out, after dropping the tombstoned slots
// (liveLocked's for a retired s) and (only the active segment can have
// grown since) those committed after the pin. Caller holds ix.mu.
func (sn *Snapshot) put(out *bitset.Segmented, s *segment, c *bitset.Container) {
	if c == nil {
		return
	}
	if s.deadCount > 0 {
		c.AndNot(s.dead)
	}
	if s.retired != nil {
		var gone []uint32
		c.Range(func(l uint32) bool {
			if !liveLocked(s, l) {
				gone = append(gone, l)
			}
			return true
		})
		for _, l := range gone {
			c.Remove(l)
		}
	}
	if s.id == sn.activeID {
		c.Trim(sn.activeLen)
	}
	out.PutSegContainer(s.id, c)
}

// Lookup returns the live documents containing term, within the pinned
// segment set. The result is owned by the caller.
func (sn *Snapshot) Lookup(term string) *bitset.Segmented {
	term = normalizeTerm(term)
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		if c := s.posting(term); c != nil {
			sn.put(out, s, c.Clone())
		}
	}
	return out
}

// lookupAny unions, per pinned segment, the postings of every term p
// selects.
func (sn *Snapshot) lookupAny(p termPattern) *bitset.Segmented {
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		var acc *bitset.Container
		s.eachPosting(p, func(_ string, c *bitset.Container) {
			if acc == nil {
				acc = c.Clone()
			} else {
				acc.Or(c)
			}
		})
		sn.put(out, s, acc)
	}
	return out
}

// LookupPrefix returns the live documents containing any term with the
// given prefix (the query language's "foo*").
func (sn *Snapshot) LookupPrefix(prefix string) *bitset.Segmented {
	return sn.lookupAny(termPattern{prefix: normalizeTerm(prefix)})
}

// LookupFuzzy returns the live documents containing any term within
// edit distance 1 of term.
func (sn *Snapshot) LookupFuzzy(term string) *bitset.Segmented {
	term = normalizeTerm(term)
	if term == "" {
		return bitset.NewSegmented()
	}
	return sn.lookupAny(fuzzyPattern(term))
}

// AllDocs returns all live documents in the pinned set.
func (sn *Snapshot) AllDocs() *bitset.Segmented {
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		sn.put(out, s, bitset.FullContainer(sn.segLen(s)))
	}
	return out
}

// DocsUnder returns the live documents whose path is root or lies in
// the subtree rooted at it, within the pinned set — how a syntactic
// directory "provides a scope" to the semantic directories beneath it.
// A non-"/" root is a range of each sealed segment's path order (three
// binary searches, order.go) and a scan of the active segment's paths.
func (sn *Snapshot) DocsUnder(root string) *bitset.Segmented {
	root = gopath.Clean(root)
	if root == "/" {
		return sn.AllDocs()
	}
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		if slots := s.appendScope(nil, root, sn.segLen(s)); len(slots) > 0 {
			sn.put(out, s, scopeSet(slots))
		}
	}
	return out
}

// LookupUnder returns the live documents containing term whose path
// is root or lies under it, touching only in-scope postings — the
// path-range × term lookup. The second result counts the posting
// entries the scope pruning avoided examining (whole segments with no
// slot in root's range count all their postings; intersected segments
// count the postings beyond the scope's cardinality).
func (sn *Snapshot) LookupUnder(term, root string) (*bitset.Segmented, int) {
	root = gopath.Clean(root)
	if root == "/" {
		return sn.Lookup(term), 0
	}
	term = normalizeTerm(term)
	out := bitset.NewSegmented()
	skipped := 0
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		c := s.posting(term)
		if c == nil {
			continue
		}
		slots := s.appendScope(nil, root, sn.segLen(s))
		if len(slots) == 0 {
			skipped += c.Len() // whole segment out of scope
			continue
		}
		scope := scopeSet(slots)
		if d := c.Len() - scope.Len(); d > 0 {
			skipped += d
		}
		scope.And(c)
		sn.put(out, s, scope)
	}
	return out, skipped
}

// TermCost returns the total posting cardinality of term across the
// pinned segments — the planner's per-term selectivity estimate. Dead
// slots are counted (they cost iteration work even though they are
// filtered), which keeps the estimate one probe of the vocabulary and
// one stored count per segment.
func (sn *Snapshot) TermCost(term string) int {
	term = normalizeTerm(term)
	n := 0
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		if c := s.posting(term); c != nil {
			n += c.Len()
		}
	}
	return n
}

// ScopeCost returns how many slots lie at or under root across the
// pinned segments (dead included) — the planner's scope selectivity
// estimate, read off the same ranges DocsUnder takes.
func (sn *Snapshot) ScopeCost(root string) int {
	root = gopath.Clean(root)
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	if root == "/" {
		n := 0
		for _, s := range sn.segs {
			n += sn.segLen(s)
		}
		return n
	}
	n := 0
	var slots []uint32
	for _, s := range sn.segs {
		if s.order != nil && sn.segLen(s) == len(s.docs) {
			at, below := s.scopeRuns(root) // counted without a copy
			n += len(at) + len(below)
			continue
		}
		slots = s.appendScope(slots[:0], root, sn.segLen(s))
		n += len(slots)
	}
	return n
}

// pathsDenseDiv sets when Paths walks a segment's path order: when the
// result holds at least 1/pathsDenseDiv of the segment's slots. A
// smaller share sorts its own few paths, which is cheaper than testing
// every slot.
const pathsDenseDiv = 64

// Paths maps a result set to its sorted document paths. Each segment's
// share of res becomes one sorted run: a pinned sealed segment holding a
// dense share walks its path order (order.go) and keeps the members; a
// sparse share, the active segment's share and the IDs of a segment
// outside the pinned set sort their own paths. The runs are then merged
// in one pass, so no sort runs over the whole result. IDs of a segment
// outside the pinned set resolve only while that segment is resident
// (Index.PathOf); the IDs of a segment a merge retired are skipped.
func (sn *Snapshot) Paths(res *bitset.Segmented) []string {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	buf := make([]string, 0, res.Len())
	var runs [][]string
	var words []uint64
	res.EachSeg(func(seg uint32, c *bitset.Container) {
		start := len(buf)
		s, pinned := sn.bySeg[seg]
		switch {
		case !pinned:
			c.Range(func(local uint32) bool {
				if s, l, ok := sn.ix.resolveLocked(makeID(seg, local)); ok && s.docs[l].alive {
					buf = append(buf, s.docs[l].path)
				}
				return true
			})
			sortStrings(buf[start:])
		case s.order != nil && c.Len()*pathsDenseDiv >= len(s.order):
			// The pinned active segment may have sealed since the pin: the
			// cap still holds.
			lim := uint32(sn.segLen(s))
			words = c.Words(words)
			for _, l := range s.order {
				if w := int(l / 64); l < lim && w < len(words) && words[w]&(1<<(l%64)) != 0 && liveLocked(s, l) {
					buf = append(buf, s.docs[l].path)
				}
			}
		default:
			lim := sn.segLen(s)
			c.Range(func(l uint32) bool {
				if int(l) < lim && liveLocked(s, l) {
					buf = append(buf, s.docs[l].path)
				}
				return true
			})
			sortStrings(buf[start:])
		}
		if len(buf) > start {
			runs = append(runs, buf[start:])
		}
	})
	if len(runs) <= 1 {
		return buf
	}
	return mergeRuns(make([]string, 0, len(buf)), runs)
}

// PathsOf maps a batch of pinned IDs to their paths, in input order,
// skipping IDs that no longer resolve to a live document (an ID outside
// the pinned set resolves as in Paths). Unlike Paths
// it does not sort — the paged SearchResult iterator materializes one
// page at a time in ID order, and sorting would force the whole result
// set eager again.
func (sn *Snapshot) PathsOf(ids []DocID) []string {
	return sn.AppendPathsOf(make([]string, 0, len(ids)), ids)
}

// AppendPathsOf is PathsOf appending to dst, for a caller that pages
// through a result and is done with one page before it asks for the next.
func (sn *Snapshot) AppendPathsOf(dst []string, ids []DocID) []string {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, id := range ids {
		seg, local := splitID(id)
		if s, ok := sn.bySeg[seg]; ok {
			if int(local) < sn.segLen(s) && liveLocked(s, local) {
				dst = append(dst, s.docs[local].path)
			}
			continue
		}
		if s, l, ok := sn.ix.resolveLocked(id); ok && s.docs[l].alive {
			dst = append(dst, s.docs[l].path)
		}
	}
	return dst
}

// PathOf resolves one pinned ID to its path (an ID outside the pinned
// set resolves as in Paths).
func (sn *Snapshot) PathOf(id DocID) (string, bool) {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	seg, local := splitID(id)
	if s, ok := sn.bySeg[seg]; ok {
		if int(local) < sn.segLen(s) && liveLocked(s, local) {
			return s.docs[local].path, true
		}
		return "", false
	}
	if s, l, ok := sn.ix.resolveLocked(id); ok && s.docs[l].alive {
		return s.docs[l].path, true
	}
	return "", false
}

// IDOf resolves a path to a document ID within the pinned segment set.
// If a merge committed since the pin moved the document out of the
// pinned set, the ID is that of the pinned slot it came from, so it
// stays comparable with the snapshot's other results.
func (sn *Snapshot) IDOf(path string) (DocID, bool) {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	return sn.idOfLocked(path)
}

// idOfLocked is IDOf with ix.mu already held. The live document at path
// is either in a pinned segment, or in one made since the pin: by a
// merge — which leaves the slot it took the document from in its
// retired victim, path and liveness as they were, and that victim is
// pinned or was itself folded from pinned ones — or by later writes,
// which tombstone a pinned predecessor. So the pinned slot, if there is
// one, is the pinned live slot at path, however many merges ran since.
func (sn *Snapshot) idOfLocked(path string) (DocID, bool) {
	id, ok := sn.ix.byPath[path]
	if !ok {
		return 0, false
	}
	seg, local := splitID(id)
	if s, ok := sn.bySeg[seg]; ok {
		if int(local) >= sn.segLen(s) {
			return 0, false // committed after the pin
		}
		return id, true
	}
	for _, s := range sn.segs {
		if local, ok := sn.liveSlotLocked(s, path); ok {
			return makeID(s.id, local), true
		}
	}
	return 0, false
}

// liveSlotLocked finds the live slot of pinned segment s at path by a
// binary search of its path order. A segment still active has no order
// and needs none: a merge seals the active segment before it folds it,
// so no document has moved out of one. Caller holds ix.mu.
func (sn *Snapshot) liveSlotLocked(s *segment, path string) (uint32, bool) {
	n := sn.segLen(s)
	for i := s.orderPos(path, 0); i < len(s.order) && s.docs[s.order[i]].path == path; i++ {
		if l := s.order[i]; int(l) < n && liveLocked(s, l) {
			return l, true
		}
	}
	return 0, false
}

// IDsOf maps paths to their pinned document IDs (see IDOf).
func (sn *Snapshot) IDsOf(paths []string) *bitset.Segmented {
	out := bitset.NewSegmented()
	for _, p := range paths {
		if id, ok := sn.IDOf(p); ok {
			out.Add(id)
		}
	}
	return out
}
