package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestIndexBytesProportionalToPostings guards the property the
// container-backed index exists for: the index payload grows with the
// number of (term, document) postings, not with terms × documents. On a
// 20k-document corpus with a Zipf vocabulary, Stats().IndexBytes stays
// within 8 bytes per posting plus the term and doc-entry bytes — a
// dense-per-term structure (N/8 bytes per term per segment) overshoots
// that bound many times over.
func TestIndexBytesProportionalToPostings(t *testing.T) {
	const docs, vocab, wordsPerDoc = 20000, 8000, 30
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 4, vocab-1)
	ix := New()
	postings := 0
	for i := 0; i < docs; i++ {
		words := make(map[string]bool, wordsPerDoc)
		for len(words) < wordsPerDoc {
			words[fmt.Sprintf("w%d", zipf.Uint64())] = true
		}
		content := make([]string, 0, len(words))
		for w := range words {
			content = append(content, w)
		}
		postings += len(words)
		ix.Add(fmt.Sprintf("/c/d%d/f%d.txt", i%50, i), []byte(strings.Join(content, " ")))
	}

	check := func(tag string) {
		t.Helper()
		held, termBytes, docBytes := 0, 0, 0
		ix.eachSegmentLocked(func(s *segment) {
			for term, c := range s.postings {
				held += c.Len()
				termBytes += len(term)
			}
			for _, d := range s.docs {
				docBytes += len(d.path) + 32
			}
		})
		if held != postings {
			t.Fatalf("%s: index holds %d postings, corpus has %d", tag, held, postings)
		}
		st := ix.Stats()
		if bound := 8*postings + termBytes + docBytes; st.IndexBytes > bound {
			t.Fatalf("%s: IndexBytes = %d for %d postings, above 8 B/posting + %d term + %d doc-entry bytes = %d",
				tag, st.IndexBytes, postings, termBytes, docBytes, bound)
		}
		if st.DirsBytes <= 0 || st.DirsBytes > 8*docs*2 {
			t.Fatalf("%s: DirsBytes = %d for %d documents two directories deep", tag, st.DirsBytes, docs)
		}
		t.Logf("%s: %d segments, IndexBytes %d (%.2f B/posting), DirsBytes %d",
			tag, st.Segments, st.IndexBytes, float64(st.IndexBytes-termBytes-docBytes)/float64(postings), st.DirsBytes)
	}
	check("as indexed")
	ix.ForceMerge()
	check("merged")
}

// TestMergeReleasesVictims: a merge must not leave the segments it
// retired reachable from the spare capacity of the resident list.
func TestMergeReleasesVictims(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(4)
	for i := 0; i < 40; i++ {
		ix.Add(fmt.Sprintf("/m/f%d", i), []byte("word"))
	}
	ix.ForceMerge()
	if len(ix.sealed) != 1 {
		t.Fatalf("%d sealed segments after ForceMerge", len(ix.sealed))
	}
	for i, s := range ix.sealed[:cap(ix.sealed)][len(ix.sealed):] {
		if s != nil {
			t.Fatalf("spare slot %d of the resident list still holds retired segment %d", i, s.id)
		}
	}
}
