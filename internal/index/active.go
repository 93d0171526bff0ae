package index

import (
	"encoding/binary"

	"hacfs/internal/bitset"
)

// Active-segment maintenance and single-document membership tests.
//
// While a segment is active it keeps, beside each slot, the packed list
// of the terms that slot was indexed under (slotTerms). The list is what
// lets a write undo a slot's footprint in place instead of leaving it to
// a merge that an unsealed segment never sees:
//
//   - a document re-added while its slot is still in the active segment
//     is replaced in that slot — same DocID, new terms — so overwriting
//     one path any number of times costs one slot, not one per version;
//   - a tombstone in the active segment clears the slot's bit from every
//     posting it touched, drops postings that become empty and takes the
//     slot out of the ancestor-directory containers. The slot itself
//     stays, dead, as a hole in the ID space until the segment merges.
//
// Readers cannot tell a reclaimed tombstone from a plain one: every
// lookup already masks with the dead set, and snapshots read postings
// and liveness at call time (snapshot.go), so a cleared bit and a masked
// bit answer alike. A replaced slot lies inside the cap of every
// snapshot that saw its old version, so those snapshots see the new
// version under the old ID — the ID space they pinned is unchanged. The
// lists are dropped when the segment seals; sealed postings stay
// immutable (the off-lock merge build depends on that) and sealed
// tombstones wait for the merge as before.
//
// Only documents written one at a time (Add, AddWithTime) keep a list.
// A reindex pass appends in bulk without one — an empty entry — so
// ingesting a tree costs the active segment nothing extra; such a slot
// tombstones the old way (its posting bits stay, masked, until the
// merge) and its first rewrite appends a listed slot, after which the
// path is maintained in place like any other.

// eachPackedTerm visits the uvarint-length-prefixed terms of a slotTerms
// entry until fn returns false. The visited strings alias packed.
func eachPackedTerm(packed string, fn func(term string) bool) {
	for len(packed) > 0 {
		n, w := binary.Uvarint([]byte(packed[:min(len(packed), binary.MaxVarintLen32)]))
		if w <= 0 || int(n) > len(packed)-w {
			return
		}
		if !fn(packed[w : w+int(n)]) {
			return
		}
		packed = packed[w+int(n):]
	}
}

// addSlotTerms adds local to the posting of every term and, when pack
// is set, returns the packed term list for slotTerms: one allocation, so
// the prepared document's per-token strings can be collected. Caller
// holds ix.mu for writing and s is the active segment, or s is a
// segment still being built.
func (s *segment) addSlotTerms(local uint32, terms map[string]struct{}, pack bool) string {
	var packed []byte
	for term := range terms {
		c, ok := s.postings[term]
		if !ok {
			c = bitset.NewContainer()
			s.postings[term] = c
		}
		c.Add(local)
		if pack {
			packed = binary.AppendUvarint(packed, uint64(len(term)))
			packed = append(packed, term...)
		}
	}
	return string(packed)
}

// clearSlotTerms removes local from the posting of every term in
// its packed list except those in keep, dropping postings that become
// empty. Caller holds ix.mu for writing; s is the active segment.
func (s *segment) clearSlotTerms(local uint32, keep map[string]struct{}) {
	eachPackedTerm(s.slotTerms[local], func(term string) bool {
		if _, ok := keep[term]; ok {
			return true
		}
		if c, ok := s.postings[term]; ok {
			c.Remove(local)
			if !c.Any() {
				delete(s.postings, term)
			}
		}
		return true
	})
}

// replaceLocked installs d over the live active-segment slot local,
// which holds the previous version of the same path. Caller holds ix.mu
// for writing.
func (ix *Index) replaceLocked(local uint32, d preparedDoc) DocID {
	s := ix.active
	s.clearSlotTerms(local, d.terms)
	s.slotTerms[local] = s.addSlotTerms(local, d.terms, true)
	e := &s.docs[local]
	e.modTime, e.size = d.modTime, d.size
	ix.version.Add(1)
	ix.met.docsIndexed.Add(1)
	ix.met.activeReclaimed.Add(1)
	return makeID(s.id, local)
}

// reclaimLocked takes the just-tombstoned active-segment slot local out
// of the dirs and — as far as its term list reaches — the postings.
// Caller holds ix.mu for writing.
func (ix *Index) reclaimLocked(local uint32) {
	s := ix.active
	s.clearSlotTerms(local, nil)
	s.slotTerms[local] = ""
	e := &s.docs[local]
	s.dirsRemove(e.path, local)
	e.path = "" // a hole in the ID space carries no payload
	ix.met.activeReclaimed.Add(1)
}

// docLocked resolves id to its resident slot if the document is live.
// Caller holds ix.mu.
func (ix *Index) docLocked(id DocID) (*segment, uint32, bool) {
	s, local, ok := ix.resolveLocked(id)
	if !ok || !s.docs[local].alive {
		return nil, 0, false
	}
	return s, local, true
}

// DocHasTerm reports whether the live document id contains term —
// Lookup(term).Contains(id) without materializing the posting set.
func (ix *Index) DocHasTerm(id DocID, term string) bool {
	term = normalizeTerm(term)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s, local, ok := ix.docLocked(id)
	if !ok {
		return false
	}
	c, ok := s.postings[term]
	return ok && c.Contains(local)
}

// DocHasPrefix reports whether the live document id contains any term
// with the given prefix (LookupPrefix restricted to one document).
func (ix *Index) DocHasPrefix(id DocID, prefix string) bool {
	return ix.docHasAny(id, prefixPattern(normalizeTerm(prefix)))
}

// DocHasFuzzy reports whether the live document id contains any term
// within edit distance 1 of term (LookupFuzzy restricted to one
// document).
func (ix *Index) DocHasFuzzy(id DocID, term string) bool {
	term = normalizeTerm(term)
	if term == "" {
		return false
	}
	return ix.docHasAny(id, fuzzyPattern(term))
}

// docHasAny reports whether document id carries a term p selects. An
// active-segment document answers from its own term list when it has
// one; any other (sealed, bulk-ingested, or with no terms at all) probes
// the posting of every selected term of its segment.
func (ix *Index) docHasAny(id DocID, p termPattern) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s, local, ok := ix.docLocked(id)
	if !ok {
		return false
	}
	found := false
	if !s.sealed && s.slotTerms[local] != "" {
		eachPackedTerm(s.slotTerms[local], func(term string) bool {
			found = p.match(term)
			return !found
		})
		return found
	}
	s.eachPosting(p, func(c *bitset.Container) { found = found || c.Contains(local) })
	return found
}
