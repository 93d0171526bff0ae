package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hacfs/internal/bitset"
)

// referenceEncodeSegment is the per-posting compaction encodeSegmentLocked
// replaced: every posting is rebuilt in a fresh container under the slot
// renumbering, packed, and serialized on its own. It is kept as the
// reference the one-pass encoder must match byte for byte.
func referenceEncodeSegment(s *segment) *segmentImage {
	img := &segmentImage{ID: s.id}
	remap := make([]uint32, len(s.docs))
	for l, d := range s.docs {
		if !d.alive {
			remap[l] = noLocal
			continue
		}
		remap[l] = uint32(len(img.Docs))
		img.Docs = append(img.Docs, docImage{Path: d.path, ModTime: d.modTime, Size: d.size})
	}
	if len(img.Docs) == 0 {
		return nil
	}
	s.eachPosting(termPattern{}, func(term string, posting *bitset.Container) {
		c := bitset.NewContainer()
		posting.Range(func(l uint32) bool {
			if nl := remap[l]; nl != noLocal {
				c.Add(nl)
			}
			return true
		})
		if c.Any() {
			c.Pack()
			img.Postings = append(img.Postings, postingImage{Term: term, Packed: c.AppendBinary(nil)})
		}
	})
	return img
}

// byTerm sorts an image's postings by term: the reference writes them in
// the order eachPosting visits them, map order on the active segment.
// encodeSegmentLocked writes them in term order, so its image is compared
// unsorted.
func byTerm(img *segmentImage) {
	sort.Slice(img.Postings, func(i, j int) bool { return img.Postings[i].Term < img.Postings[j].Term })
}

// randomEditedIndex builds an index whose segments carry every shape
// the encoder compacts: sealed segments with tombstones, an active
// segment with reclaimed holes, renamed documents, and merged segments.
func randomEditedIndex(rng *rand.Rand) *Index {
	ix := New()
	ix.SetSealThreshold(16 + rng.Intn(48))
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	content := func() []byte {
		words := []string{"common"}
		for i, w := range vocab {
			// Word i appears in about 1/(i+2) of documents: a few dense
			// postings, many sparse ones.
			if rng.Intn(i+2) == 0 {
				words = append(words, w)
			}
		}
		return []byte(strings.Join(words, " "))
	}
	path := func() string { return fmt.Sprintf("/d%d/f%03d", rng.Intn(4), rng.Intn(300)) }
	for step := 0; step < 400+rng.Intn(400); step++ {
		switch r := rng.Intn(100); {
		case r < 60:
			ix.Add(path(), content())
		case r < 75:
			ix.Remove(path())
		case r < 85:
			ix.RenamePath(path(), path())
		case r < 88:
			ix.RenamePrefix(fmt.Sprintf("/d%d", rng.Intn(4)), fmt.Sprintf("/d%d", rng.Intn(4)))
		case r < 90:
			ix.ForceMerge()
		default:
			ix.MaybeMerge()
		}
	}
	return ix
}

// TestEncodeSegmentMatchesReference: on random edited indexes, the
// one-pass encoder writes every segment exactly as the per-posting
// reference does — same document table, same terms, same packed bytes.
func TestEncodeSegmentMatchesReference(t *testing.T) {
	var sawDead, sawHole, sawMerged bool
	kinds := map[byte]bool{}
	var sc segmentScratch
	for seed := int64(1); seed <= 40; seed++ {
		ix := randomEditedIndex(rand.New(rand.NewSource(seed)))
		ix.mu.RLock()
		sawMerged = sawMerged || ix.epoch > 0
		ix.eachSegmentLocked(func(s *segment) {
			if s.sealed && s.deadCount > 0 {
				sawDead = true
			}
			for _, d := range s.docs {
				if !s.sealed && !d.alive {
					sawHole = true
				}
			}
			want := referenceEncodeSegment(s)
			got := encodeSegmentLocked(s, &sc)
			if (got == nil) != (want == nil) {
				t.Fatalf("seed %d segment %d: encoded %v, reference %v", seed, s.id, got != nil, want != nil)
			}
			if got == nil {
				return
			}
			byTerm(want)
			if got.ID != want.ID || !reflect.DeepEqual(got.Docs, want.Docs) {
				t.Fatalf("seed %d segment %d: document table differs from the reference", seed, s.id)
			}
			if len(got.Postings) != len(want.Postings) {
				t.Fatalf("seed %d segment %d: %d postings, reference %d", seed, s.id, len(got.Postings), len(want.Postings))
			}
			for i, w := range want.Postings {
				g := got.Postings[i]
				if g.Term != w.Term || !bytes.Equal(g.Packed, w.Packed) {
					t.Fatalf("seed %d segment %d: posting %q (%x…) differs from the reference %q (%x…)",
						seed, s.id, g.Term, g.Packed[:5], w.Term, w.Packed[:5])
				}
				kinds[w.Packed[0]] = true
			}
		})
		ix.mu.RUnlock()
	}
	if !sawDead || !sawHole || !sawMerged {
		t.Fatalf("corpus missed a shape: sealed tombstones %v, active holes %v, merged segment %v", sawDead, sawHole, sawMerged)
	}
	if !kinds['A'] || !kinds['B'] || !kinds['R'] {
		t.Fatalf("postings cover codec kinds %v, want array, bitmap and run", kinds)
	}
}
