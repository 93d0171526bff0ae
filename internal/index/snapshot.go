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
// the pin stops matching. What the snapshot freezes is the segment set
// — the ID space — not the tombstone state, which is exactly what a
// consistent set intersection needs.
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

// put installs c — a fresh container of s's local slots, owned by the
// caller — as s's part of out, after dropping the tombstoned slots and
// (only the active segment can have grown since) those committed after
// the pin. Caller holds ix.mu.
func (sn *Snapshot) put(out *bitset.Segmented, s *segment, c *bitset.Container) {
	if c == nil {
		return
	}
	if s.deadCount > 0 {
		c.AndNot(s.dead)
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
		if c, ok := s.postings[term]; ok {
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
		s.eachPosting(p, func(c *bitset.Container) {
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
	return sn.lookupAny(prefixPattern(normalizeTerm(prefix)))
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
		out.PutSegContainer(s.id, s.aliveLocal(sn.segLen(s)))
	}
	return out
}

// DocsUnder returns the live documents whose path lies in the subtree
// rooted at root, within the pinned set — how a syntactic directory
// "provides a scope" to the semantic directories beneath it. Non-"/"
// roots resolve through the per-segment composite dirs index (dirs.go):
// one map probe per segment instead of a scan over every doc entry.
func (sn *Snapshot) DocsUnder(root string) *bitset.Segmented {
	root = gopath.Clean(root)
	if root == "/" {
		return sn.AllDocs()
	}
	out := bitset.NewSegmented()
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	selfID, selfOK := sn.idOfLocked(root)
	for _, s := range sn.segs {
		sn.put(out, s, sn.scopeLocalLocked(s, root, selfID, selfOK))
	}
	return out
}

// scopeLocalLocked returns a fresh container of s's local slots under
// root (alive or dead; caller applies the dead mask), or nil when the
// segment holds none. selfID/selfOK name the pinned document at exactly
// root, if any — vfs.HasPrefix(p, root) matches p == root, so a file
// path used as a scope selects the file itself. Caller holds ix.mu.
func (sn *Snapshot) scopeLocalLocked(s *segment, root string, selfID DocID, selfOK bool) *bitset.Container {
	var scope *bitset.Container
	if c, ok := s.dirs[root]; ok {
		scope = c.Clone()
	}
	if selfOK {
		if seg, local := splitID(selfID); seg == s.id {
			if scope == nil {
				scope = bitset.NewContainer()
			}
			scope.Add(local)
		}
	}
	return scope
}

// LookupUnder returns the live documents containing term whose path
// lies under root, touching only in-scope postings — the composite
// path-prefix × term lookup. The second result counts the posting
// entries the scope pruning avoided examining (whole segments whose
// dirs map lacks root count all their postings; intersected segments
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
	selfID, selfOK := sn.idOfLocked(root)
	for _, s := range sn.segs {
		c, ok := s.postings[term]
		if !ok {
			continue
		}
		scope := sn.scopeLocalLocked(s, root, selfID, selfOK)
		if scope == nil {
			skipped += c.Len() // whole segment out of scope
			continue
		}
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
// filtered), which keeps the estimate one map probe and one stored
// count per segment.
func (sn *Snapshot) TermCost(term string) int {
	term = normalizeTerm(term)
	n := 0
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		if c, ok := s.postings[term]; ok {
			n += c.Len()
		}
	}
	return n
}

// ScopeCost returns how many slots lie under root across the pinned
// segments (dead included) — the planner's scope selectivity estimate.
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
	for _, s := range sn.segs {
		if c, ok := s.dirs[root]; ok {
			n += c.Len()
		}
	}
	return n
}

// Paths maps a result set to its sorted document paths. IDs outside the
// pinned set are resolved through the index's forward tables first, so
// mixing an older result into a newer snapshot degrades gracefully.
func (sn *Snapshot) Paths(res *bitset.Segmented) []string {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	out := make([]string, 0, res.Len())
	res.Range(func(id uint64) bool {
		seg, local := splitID(id)
		if s, ok := sn.bySeg[seg]; ok {
			if int(local) < sn.segLen(s) && s.docs[local].alive {
				out = append(out, s.docs[local].path)
			}
			return true
		}
		if s, local2, ok := sn.ix.resolveLocked(id); ok && s.docs[local2].alive {
			out = append(out, s.docs[local2].path)
		}
		return true
	})
	sortStrings(out)
	return out
}

// PathsOf maps a batch of pinned IDs to their paths, in input order,
// skipping IDs that no longer resolve to a live document. Unlike Paths
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
			if int(local) < sn.segLen(s) && s.docs[local].alive {
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

// PathOf resolves one pinned ID to its path.
func (sn *Snapshot) PathOf(id DocID) (string, bool) {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	seg, local := splitID(id)
	if s, ok := sn.bySeg[seg]; ok {
		if int(local) < sn.segLen(s) && s.docs[local].alive {
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
// If the document moved to a post-pin segment (a merge committed after
// the snapshot was taken), the ID is mapped back through the merged
// segments' provenance tables so it stays comparable with the
// snapshot's other results.
func (sn *Snapshot) IDOf(path string) (DocID, bool) {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	return sn.idOfLocked(path)
}

// idOfLocked is IDOf with ix.mu already held.
func (sn *Snapshot) idOfLocked(path string) (DocID, bool) {
	id, ok := sn.ix.byPath[path]
	if !ok {
		return 0, false
	}
	// The byPath entry may lag a merge commit (the repoint is batched);
	// canonicalize it forward to a resident slot before mapping it back
	// into the pinned set through the provenance chains.
	if s, local, ok := sn.ix.resolveLocked(id); ok {
		id = makeID(s.id, local)
	}
	for hops := 0; hops < 64; hops++ {
		seg, local := splitID(id)
		if s, ok := sn.bySeg[seg]; ok {
			if int(local) >= sn.segLen(s) {
				return 0, false // committed after the pin
			}
			return id, true
		}
		s, ok := sn.ix.bySeg[seg]
		if !ok || s.prev == nil || int(local) >= len(s.prev) {
			return 0, false
		}
		id = s.prev[local]
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
