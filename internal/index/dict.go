package index

import (
	"slices"
	"strings"

	"hacfs/internal/bitset"
)

// A segment's vocabulary: a map while the segment is active or being
// built, one sorted table — terms beside their postings, by value — once
// it seals, so a sealed segment allocates no container per term.

// posting returns term's posting in s, nil if s has none: a map probe on
// an open segment, a binary search on a sealed one. Caller holds ix.mu
// or owns s.
func (s *segment) posting(term string) *bitset.Container {
	if !s.sealed {
		return s.open[term]
	}
	if i, ok := slices.BinarySearch(s.terms, term); ok {
		return &s.posts[i]
	}
	return nil
}

// termPattern selects terms of a segment's vocabulary: those with the
// prefix that match also accepts (a nil match accepts them all). A
// prefix leaf sets only the prefix; a fuzzy leaf sets only match.
type termPattern struct {
	prefix string
	match  func(term string) bool
}

func (p termPattern) selects(term string) bool {
	return strings.HasPrefix(term, p.prefix) && (p.match == nil || p.match(term))
}

func fuzzyPattern(word string) termPattern {
	return termPattern{match: func(term string) bool { return withinOneEdit(word, term) }}
}

// eachPosting visits the term and posting of every term of s that p
// selects. A sealed segment visits the range of its table that starts
// where a binary search puts p's prefix, in term order; an open one
// scans its map. Caller holds ix.mu or owns s.
func (s *segment) eachPosting(p termPattern, fn func(term string, c *bitset.Container)) {
	if !s.sealed {
		for term, c := range s.open {
			if p.selects(term) {
				fn(term, c)
			}
		}
		return
	}
	i, _ := slices.BinarySearch(s.terms, p.prefix)
	for ; i < len(s.terms) && strings.HasPrefix(s.terms[i], p.prefix); i++ {
		if p.match == nil || p.match(s.terms[i]) {
			fn(s.terms[i], &s.posts[i])
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
		s.eachPosting(p, func(_ string, c *bitset.Container) { n += c.Len() })
	}
	return n
}

// PrefixCost returns the total posting cardinality of every term with
// the given prefix across the pinned segments — the planner's
// selectivity estimate for a prefix leaf: a binary search plus the
// matching range of each sealed segment's term table, a bounded scan of
// the active one.
func (sn *Snapshot) PrefixCost(prefix string) int {
	return sn.patternCost(termPattern{prefix: normalizeTerm(prefix)})
}

// FuzzyCost returns the total posting cardinality of every term within
// edit distance 1 of term across the pinned segments — the planner's
// selectivity estimate for a fuzzy leaf: a scan of every segment's
// vocabulary, since a term one edit away need not share a prefix with
// term.
func (sn *Snapshot) FuzzyCost(term string) int {
	term = normalizeTerm(term)
	if term == "" {
		return 0
	}
	return sn.patternCost(fuzzyPattern(term))
}
