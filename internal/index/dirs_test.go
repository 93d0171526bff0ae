package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hacfs/internal/bitset"
	"hacfs/internal/vfs"
)

// naiveDocsUnder is the pre-composite-index oracle: scan every doc
// entry and test its path.
func naiveDocsUnder(ix *Index, root string) *bitset.Segmented {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := bitset.NewSegmented()
	ix.eachSegmentLocked(func(s *segment) {
		for local, d := range s.docs {
			if d.alive && vfs.HasPrefix(d.path, root) {
				out.Add(makeID(s.id, uint32(local)))
			}
		}
	})
	return out
}

// randomCorpusIndex builds an index with a few directory levels and
// enough churn (updates, removes, renames, merges) to exercise the
// composite index maintenance paths.
func randomCorpusIndex(t *testing.T, rng *rand.Rand, n int) (*Index, []string) {
	t.Helper()
	ix := New()
	ix.SetSealThreshold(16) // force multi-segment layouts
	var paths []string
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/d%d/s%d/f%03d.txt", rng.Intn(4), rng.Intn(3), i)
		ix.Add(p, []byte(fmt.Sprintf("alpha beta w%d", i%7)))
		paths = append(paths, p)
	}
	// Churn: updates, removes, renames.
	for i := 0; i < n/4; i++ {
		switch rng.Intn(3) {
		case 0:
			ix.Add(paths[rng.Intn(len(paths))], []byte("alpha updated"))
		case 1:
			ix.Remove(paths[rng.Intn(len(paths))])
		case 2:
			j := rng.Intn(len(paths))
			np := fmt.Sprintf("/moved/s%d/f%03dr.txt", rng.Intn(3), j)
			if ix.RenamePath(paths[j], np) {
				paths[j] = np
			}
		}
	}
	if rng.Intn(2) == 0 {
		ix.ForceMerge()
	}
	return ix, paths
}

func TestDocsUnderMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	roots := []string{"/", "/d0", "/d1/s2", "/moved", "/moved/s1", "/nowhere", "/d2/s0"}
	for trial := 0; trial < 30; trial++ {
		ix, paths := randomCorpusIndex(t, rng, 60)
		checks := append([]string{}, roots...)
		// A file path as scope selects the file itself.
		checks = append(checks, paths[rng.Intn(len(paths))])
		for _, root := range checks {
			got := ix.Snapshot().DocsUnder(root)
			want := naiveDocsUnder(ix, root)
			if !got.Equal(want) {
				t.Fatalf("trial %d: DocsUnder(%q) = %v, want %v", trial, root, got, want)
			}
			if c := ix.DocsUnderCount(root); c != want.Len() {
				t.Fatalf("trial %d: DocsUnderCount(%q) = %d, want %d", trial, root, c, want.Len())
			}
		}
	}
}

func TestSnapshotDocsUnderMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		ix, paths := randomCorpusIndex(t, rng, 60)
		sn := ix.Snapshot()
		for _, root := range []string{"/", "/d0", "/d2/s1", "/moved", paths[rng.Intn(len(paths))]} {
			got := sn.DocsUnder(root)
			want := naiveDocsUnder(ix, root)
			if !got.Equal(want) {
				t.Fatalf("trial %d: snapshot DocsUnder(%q) = %v, want %v", trial, root, got, want)
			}
		}
	}
}

func TestLookupUnderMatchesLookupAndScope(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		ix, _ := randomCorpusIndex(t, rng, 80)
		sn := ix.Snapshot()
		for _, term := range []string{"alpha", "w3", "updated", "missing"} {
			for _, root := range []string{"/", "/d0", "/d1/s1", "/moved", "/nowhere"} {
				got, _ := sn.LookupUnder(term, root)
				want := sn.Lookup(term)
				want.And(sn.DocsUnder(root))
				if !got.Equal(want) {
					t.Fatalf("trial %d: LookupUnder(%q, %q) = %v, want %v",
						trial, term, root, got, want)
				}
			}
		}
	}
}

func TestLookupUnderSkipsOutOfScopeSegments(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(4)
	for i := 0; i < 8; i++ {
		ix.Add(fmt.Sprintf("/a/f%d.txt", i), []byte("common"))
	}
	for i := 0; i < 8; i++ {
		ix.Add(fmt.Sprintf("/b/f%d.txt", i), []byte("common"))
	}
	sn := ix.Snapshot()
	got, skipped := sn.LookupUnder("common", "/a")
	if got.Len() != 8 {
		t.Fatalf("LookupUnder found %d docs, want 8", got.Len())
	}
	if skipped < 8 {
		t.Fatalf("scope pruning skipped %d postings, want >= 8 (the /b segments)", skipped)
	}
}

func TestVersionAdvancesOnMutations(t *testing.T) {
	ix := New()
	v0 := ix.Version()
	ix.Add("/a/f.txt", []byte("x"))
	v1 := ix.Version()
	if v1 <= v0 {
		t.Fatalf("Add did not advance version: %d -> %d", v0, v1)
	}
	ix.RenamePath("/a/f.txt", "/b/f.txt")
	v2 := ix.Version()
	if v2 <= v1 {
		t.Fatalf("RenamePath did not advance version: %d -> %d", v1, v2)
	}
	ix.Remove("/b/f.txt")
	v3 := ix.Version()
	if v3 <= v2 {
		t.Fatalf("Remove did not advance version: %d -> %d", v2, v3)
	}
	if ix.Version() != v3 {
		t.Fatalf("Version moved without a mutation")
	}
}

func TestVersionAdvancesOnMerge(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(4)
	for i := 0; i < 12; i++ {
		ix.Add(fmt.Sprintf("/f%d.txt", i), []byte("x"))
	}
	v := ix.Version()
	ix.ForceMerge()
	if ix.Version() <= v {
		t.Fatalf("ForceMerge did not advance version")
	}
}

func TestDirsSurviveSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ix, paths := randomCorpusIndex(t, rng, 50)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, root := range []string{"/", "/d0", "/d1/s1", "/moved", paths[0]} {
		got := loaded.Snapshot().DocsUnder(root)
		want := naiveDocsUnder(loaded, root)
		if !got.Equal(want) {
			t.Fatalf("after load: DocsUnder(%q) = %v, want %v", root, got, want)
		}
	}
	// Postings round-trip through the packed codec.
	if got, want := loaded.Snapshot().Lookup("alpha").Len(), ix.Snapshot().Lookup("alpha").Len(); got != want {
		t.Fatalf("after load: Lookup(alpha) = %d docs, want %d", got, want)
	}
}
