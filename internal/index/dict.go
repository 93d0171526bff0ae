package index

import (
	"sort"
	"strings"
	"sync"

	"hacfs/internal/bitset"
)

// termDict is a lazily built read-only view of a sealed segment's term
// vocabulary, backing the planner's prefix and fuzzy selectivity
// estimates (PrefixCost, FuzzyCost). Sealed segments never change
// their postings, so the dictionary is built at most once per segment,
// on first use, under a sync.Once — safe while holders of the index
// read lock race to trigger it. The active segment is mutable and gets
// no dictionary; cost queries scan its postings map directly, which is
// fine because the active segment is bounded by the seal threshold.
type termDict struct {
	once   sync.Once
	sorted []string         // all terms, lexicographic — prefix range scans
	byLen  map[int][]string // byte length → terms — edit-distance candidates
}

// dict returns the segment's term dictionary, building it on first
// use. Only call on sealed segments.
func (s *segment) dictionary() *termDict {
	d := &s.dict
	d.once.Do(func() {
		d.sorted = make([]string, 0, len(s.postings))
		d.byLen = make(map[int][]string)
		for term := range s.postings {
			d.sorted = append(d.sorted, term)
			d.byLen[len(term)] = append(d.byLen[len(term)], term)
		}
		sort.Strings(d.sorted)
	})
	return d
}

// prefixRange visits every term with the given prefix, in order.
func (d *termDict) prefixRange(prefix string, fn func(term string)) {
	i := sort.SearchStrings(d.sorted, prefix)
	for ; i < len(d.sorted); i++ {
		if !strings.HasPrefix(d.sorted[i], prefix) {
			return
		}
		fn(d.sorted[i])
	}
}

// fuzzyCandidates visits every term within edit distance 1 of term:
// only the three length buckets |term|-1 .. |term|+1 can hold one, so
// the scan skips the rest of the vocabulary entirely.
func (d *termDict) fuzzyCandidates(term string, fn func(candidate string)) {
	for l := len(term) - 1; l <= len(term)+1; l++ {
		for _, candidate := range d.byLen[l] {
			if withinOneEdit(term, candidate) {
				fn(candidate)
			}
		}
	}
}

// termPattern selects terms of a segment's vocabulary — a prefix, or
// everything within one edit of a word. match tests one term, which is
// how the active segment (no dictionary, bounded by the seal threshold)
// is scanned; candidates enumerates the matching terms of a sealed
// segment's dictionary without visiting the rest.
type termPattern struct {
	match      func(term string) bool
	candidates func(d *termDict, fn func(term string))
}

func prefixPattern(prefix string) termPattern {
	return termPattern{
		match:      func(term string) bool { return strings.HasPrefix(term, prefix) },
		candidates: func(d *termDict, fn func(string)) { d.prefixRange(prefix, fn) },
	}
}

func fuzzyPattern(word string) termPattern {
	return termPattern{
		match:      func(term string) bool { return withinOneEdit(word, term) },
		candidates: func(d *termDict, fn func(string)) { d.fuzzyCandidates(word, fn) },
	}
}

// eachPosting visits the posting of every term of s that p selects.
// Caller holds ix.mu.
func (s *segment) eachPosting(p termPattern, fn func(c *bitset.Container)) {
	if s.sealed {
		p.candidates(s.dictionary(), func(term string) { fn(s.postings[term]) })
		return
	}
	for term, c := range s.postings {
		if p.match(term) {
			fn(c)
		}
	}
}

// patternCost returns the total posting cardinality of the terms p
// selects across the pinned segments. Like TermCost, dead slots are
// counted.
func (sn *Snapshot) patternCost(p termPattern) int {
	n := 0
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	for _, s := range sn.segs {
		s.eachPosting(p, func(c *bitset.Container) { n += c.Len() })
	}
	return n
}

// PrefixCost returns the total posting cardinality of every term with
// the given prefix across the pinned segments — the planner's
// selectivity estimate for a prefix leaf: a binary search plus the
// matching range of each sealed segment's sorted dictionary, a bounded
// scan of the active one.
func (sn *Snapshot) PrefixCost(prefix string) int {
	return sn.patternCost(prefixPattern(normalizeTerm(prefix)))
}

// FuzzyCost returns the total posting cardinality of every term within
// edit distance 1 of term across the pinned segments — the planner's
// selectivity estimate for a fuzzy leaf. Sealed segments answer from
// their length-bucketed dictionary (candidates can only differ in
// length by one); the active segment scans.
func (sn *Snapshot) FuzzyCost(term string) int {
	term = normalizeTerm(term)
	if term == "" {
		return 0
	}
	return sn.patternCost(fuzzyPattern(term))
}
