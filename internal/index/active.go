package index

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"

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
// tombstones wait for the merge as before. A reindex pass never writes
// the active segment: it installs a sealed one of its own (SyncTree).

// A slotTerms entry is a packed term list: the slot's distinct terms in
// ascending order, each prefixed with its uvarint length, in one string.

// nextPackedTerm splits the first term off a packed term list; ok is
// false at its end. The term aliases packed.
func nextPackedTerm(packed string) (term, rest string, ok bool) {
	n, w := binary.Uvarint([]byte(packed[:min(len(packed), binary.MaxVarintLen32)]))
	if w <= 0 || int(n) > len(packed)-w {
		return "", "", false
	}
	return packed[w : w+int(n)], packed[w+int(n):], true
}

// eachPackedTerm visits the terms of a packed term list until fn returns
// false. The visited strings alias packed.
func eachPackedTerm(packed string, fn func(term string) bool) {
	for term, rest, ok := nextPackedTerm(packed); ok && fn(term); term, rest, ok = nextPackedTerm(rest) {
	}
}

// termList gathers one document's terms into one buffer and packs them
// (packTerms): sorted and deduplicated in place, so a repeated term costs
// neither an allocation nor a map probe, and the packed list is the one
// allocation a document's terms make. Repeats are dropped whenever the
// spans double past the distinct terms last counted, so the buffers grow
// with a document's distinct terms, not with its length.
type termList struct {
	buf   []byte     // the terms, back to back: distinct up to the last dedupe, any after
	spare []byte     // the next buf, for dedupe
	spans []termSpan // where each term lies in buf
	out   []byte
	limit int               // dedupe when spans reach it
	emit  func(term []byte) // addTerm on this list, bound once
}

type termSpan struct{ off, end uint32 }

// maxKeptTermBuf caps the buffers an Index keeps for the next document:
// one huge document must not pin their size for the index's lifetime.
const maxKeptTermBuf = 1 << 20

// minDedupe is the fewest spans a termList dedupes before the pack: a
// short document is sorted once. A new termList has room for that many
// spans of about 8 bytes, so a short document grows no buffer.
const minDedupe = 1024

func addTerm[T string | []byte](l *termList, term T) {
	off := len(l.buf)
	l.buf = append(l.buf, term...)
	l.spans = append(l.spans, termSpan{uint32(off), uint32(len(l.buf))})
	if len(l.spans) >= l.limit {
		l.dedupe()
		l.limit = max(2*len(l.spans), minDedupe)
	}
}

// dedupe sorts the spans and drops the repeats, copying the distinct
// terms, in order, into the spare buffer, which becomes buf.
func (l *termList) dedupe() {
	buf := l.buf
	slices.SortFunc(l.spans, func(a, b termSpan) int {
		return bytes.Compare(buf[a.off:a.end], buf[b.off:b.end])
	})
	next, spans := l.spare[:0], l.spans[:0]
	var prev []byte
	for i, sp := range l.spans {
		term := buf[sp.off:sp.end]
		if i > 0 && bytes.Equal(term, prev) {
			continue
		}
		next = append(next, term...)
		spans = append(spans, termSpan{uint32(len(next) - len(term)), uint32(len(next))})
		prev = term
	}
	l.buf, l.spare, l.spans = next, buf[:0], spans
}

// pack returns the distinct terms added since the last pack as a packed
// term list, and empties l.
func (l *termList) pack() string {
	l.dedupe()
	out := slices.Grow(l.out[:0], len(l.buf)+len(l.spans))
	for _, sp := range l.spans {
		term := l.buf[sp.off:sp.end]
		out = binary.AppendUvarint(out, uint64(len(term)))
		out = append(out, term...)
	}
	packed := string(out)
	l.buf, l.spans, l.out, l.limit = l.buf[:0], l.spans[:0], out[:0], minDedupe
	return packed
}

// packTerms tokenizes content, adds the transducers' terms and returns
// the document's packed term list. It reuses the index's kept termList,
// or makes one if a concurrent Add holds it; no lock is taken.
func (ix *Index) packTerms(path string, content []byte) string {
	l := ix.terms.Swap(nil)
	if l == nil {
		l = &termList{
			buf:   make([]byte, 0, 8*minDedupe),
			spare: make([]byte, 0, 8*minDedupe),
			spans: make([]termSpan, 0, minDedupe),
			limit: minDedupe,
		}
		l.emit = func(term []byte) { addTerm(l, term) }
	}
	ScanTerms(content, l.emit)
	for _, t := range ix.applyTransducers(path, content) {
		addTerm(l, t)
	}
	packed := l.pack()
	if cap(l.buf)+cap(l.spare)+cap(l.out)+8*cap(l.spans) <= maxKeptTermBuf {
		ix.terms.Store(l)
	}
	return packed
}

// addTerm adds local to term's posting, copying term into a key only
// when s has no posting for it yet. Caller owns s (it is being built).
func (s *segment) addTerm(term []byte, local uint32) {
	if c, ok := s.open[string(term)]; ok {
		c.Add(local)
		return
	}
	c := bitset.NewContainer()
	c.Add(local)
	s.open[string(term)] = c
}

// addSlotTerms adds local to the posting of every term of the packed
// list terms, which becomes the slot's slotTerms entry. A term new to the
// segment is copied into its key, which must not keep the whole list
// alive. Caller holds ix.mu for writing; s is the active segment.
func (s *segment) addSlotTerms(local uint32, terms string) string {
	eachPackedTerm(terms, func(term string) bool {
		c, ok := s.open[term]
		if !ok {
			c = bitset.NewContainer()
			s.open[strings.Clone(term)] = c
		}
		c.Add(local)
		return true
	})
	return terms
}

// clearSlotTerms removes local from the posting of every term in its
// packed list except those in the packed list keep, dropping postings
// that become empty: both lists are sorted, so one merge walk tells them
// apart. Caller holds ix.mu for writing; s is the active segment.
func (s *segment) clearSlotTerms(local uint32, keep string) {
	k, rest, more := nextPackedTerm(keep)
	eachPackedTerm(s.slotTerms[local], func(term string) bool {
		for more && k < term {
			k, rest, more = nextPackedTerm(rest)
		}
		if more && k == term {
			return true
		}
		if c, ok := s.open[term]; ok {
			c.Remove(local)
			if !c.Any() {
				delete(s.open, term)
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
	s.slotTerms[local] = s.addSlotTerms(local, d.terms)
	e := &s.docs[local]
	e.modTime, e.size = d.modTime, d.size
	ix.version.Add(1)
	ix.met.docsIndexed.Add(1)
	ix.met.activeReclaimed.Add(1)
	return makeID(s.id, local)
}

// reclaimLocked takes the just-tombstoned active-segment slot local out
// of the postings, as far as its term list reaches, and of every scope.
// Caller holds ix.mu for writing.
func (ix *Index) reclaimLocked(local uint32) {
	s := ix.active
	s.clearSlotTerms(local, "")
	s.slotTerms[local] = ""
	s.docs[local].path = "" // a hole in the ID space carries no payload and lies in no scope
	ix.met.activeReclaimed.Add(1)
}

// docLocked returns the slot of the live document at path. Caller
// holds ix.mu.
func (ix *Index) docLocked(path string) (*segment, uint32, bool) {
	id, ok := ix.byPath[path]
	if !ok {
		return nil, 0, false
	}
	return ix.resolveLocked(id)
}

// DocHasTerm reports whether the live document at path contains term —
// Lookup(term).Contains(IDOf(path)) without materializing the posting
// set.
func (ix *Index) DocHasTerm(path, term string) bool {
	term = normalizeTerm(term)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s, local, ok := ix.docLocked(path)
	if !ok {
		return false
	}
	c := s.posting(term)
	return c != nil && c.Contains(local)
}

// DocHasPrefix reports whether the live document at path contains any
// term with the given prefix (LookupPrefix restricted to one document).
func (ix *Index) DocHasPrefix(path, prefix string) bool {
	return ix.docHasAny(path, termPattern{prefix: normalizeTerm(prefix)})
}

// DocHasFuzzy reports whether the live document at path contains any
// term within edit distance 1 of term (LookupFuzzy restricted to one
// document).
func (ix *Index) DocHasFuzzy(path, term string) bool {
	term = normalizeTerm(term)
	if term == "" {
		return false
	}
	return ix.docHasAny(path, fuzzyPattern(term))
}

// docHasAny reports whether the live document at path carries a term p
// selects. An active-segment document answers from its own term list; a
// sealed one probes the posting of every selected term of its segment.
func (ix *Index) docHasAny(path string, p termPattern) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s, local, ok := ix.docLocked(path)
	if !ok {
		return false
	}
	found := false
	if !s.sealed {
		eachPackedTerm(s.slotTerms[local], func(term string) bool {
			found = p.selects(term)
			return !found
		})
		return found
	}
	s.eachPosting(p, func(_ string, c *bitset.Container) { found = found || c.Contains(local) })
	return found
}
