package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"hacfs/internal/bitset"
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
			s.eachPosting(termPattern{}, func(term string, c *bitset.Container) {
				held += c.Len()
				termBytes += len(term)
			})
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
		t.Logf("%s: %d segments, IndexBytes %d (%.2f B/posting)",
			tag, st.Segments, st.IndexBytes, float64(st.IndexBytes-termBytes-docBytes)/float64(postings))
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

// TestMergeHistoryHoldsNoMemory: an index that is rewritten and merged
// over and over holds as much memory after 40 merges as after 10. Each
// round rewrites 1 % of a 10 000-document index and forces a merge,
// which retires every segment and with them their DocIDs; nothing the
// index keeps may grow with the number of merges it has run. State that
// mapped each retired ID to its merged slot (8 B a slot, about 78 KB a
// merge here) would grow it by over 2 MB.
func TestMergeHistoryHoldsNoMemory(t *testing.T) {
	const docs, rounds = 10000, 40
	ix := New()
	path := func(i int) string { return fmt.Sprintf("/h/d%02d/f%05d.txt", i%100, i) }
	for i := 0; i < docs; i++ {
		ix.Add(path(i), []byte(fmt.Sprintf("common w%d", i%500)))
	}
	ix.ForceMerge()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	rng := rand.New(rand.NewSource(5))
	var at10 uint64
	for r := 1; r <= rounds; r++ {
		for i := 0; i < docs/100; i++ {
			n := rng.Intn(docs)
			ix.Add(path(n), []byte(fmt.Sprintf("common w%d round%d", n%500, r)))
		}
		ix.ForceMerge()
		if r == 10 {
			at10 = heap()
		}
	}
	at40 := heap()
	t.Logf("heap after merge 10: %d B, after merge 40: %d B", at10, at40)
	if at40 > at10+1<<20 {
		t.Fatalf("heap grew %d B from merge 10 to merge 40; want under 1 MB", at40-at10)
	}
	if got := ix.NumDocs(); got != docs {
		t.Fatalf("NumDocs = %d, want %d", got, docs)
	}
}
