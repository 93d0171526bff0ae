package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hacfs/internal/bitset"
	"hacfs/internal/index/indextest"
	"hacfs/internal/vfs"
)

// naiveDocsUnder is the scope oracle: scan every doc entry and test its
// path.
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
// enough churn (updates, removes, renames, merges) to move paths within
// and between segments.
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
			snap := ix.Snapshot()
			got := snap.DocsUnder(root)
			want := naiveDocsUnder(ix, root)
			if !got.Equal(want) {
				t.Fatalf("trial %d: DocsUnder(%q) = %v, want %v", trial, root, got, want)
			}
			if n := len(snap.Paths(got)); n != want.Len() {
				t.Fatalf("trial %d: DocsUnder(%q) names %d paths, want %d", trial, root, n, want.Len())
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

// scopeSlots is the scan oracle for a pinned snapshot: per pinned
// segment, the slots below the pin's length whose path is root or lies
// beneath it, dead ones included, and the live documents among them.
func scopeSlots(sn *Snapshot, root string) (slots map[uint32]int, live *bitset.Segmented) {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	slots = make(map[uint32]int)
	live = bitset.NewSegmented()
	for _, s := range sn.segs {
		for l, d := range s.docs[:sn.segLen(s)] {
			if d.path == "" || !vfs.HasPrefix(d.path, root) {
				continue
			}
			slots[s.id]++
			if liveLocked(s, uint32(l)) {
				live.Add(makeID(s.id, uint32(l)))
			}
		}
	}
	return slots, live
}

// TestScopeRangesMatchSlotScan checks the scope reads — DocsUnder,
// LookupUnder with its skipped count, ScopeCost — against a scan of every
// slot, and the documents they name against a model, on sibling names
// that a wrong byte range mixes up: '-', '.', '!' and ' ' sort before '/',
// '0' right after it, and "/d1" is at once a document and a directory.
// The index is cut into small segments and churned by rewrites, removes
// (an active slot is reclaimed, a sealed one tombstoned), renames of
// documents and of whole subtrees, merges and save/load round trips.
// A snapshot pinned before each step is checked after it too.
func TestScopeRangesMatchSlotScan(t *testing.T) {
	dirs := []string{"/d1", "/d1/g", "/d10", "/d1-x", "/d1!", "/d0", "/e/d1"}
	files := []string{"/d1", "/d1.txt", "/d1 y", "/d1-x/f", "/d10/f", "/d1/f", "/d1/g/h", "/d1!/f", "/e/d1/f"}
	roots := []string{"/d1", "/d1/g", "/d1/f", "/d1.txt", "/d1 y", "/d10", "/d1-x", "/d1!", "/d", "/e", "/e/d1", "/nowhere"}
	words := []string{"apple", "pear", "fig"}
	rng := rand.New(rand.NewSource(41))
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	path := func() string {
		if rng.Intn(3) == 0 {
			return pick(files)
		}
		return fmt.Sprintf("%s/n%d", pick(dirs), rng.Intn(12))
	}

	ix := New()
	ix.SetSealThreshold(6)
	m := indextest.Model{}
	add := func(p string) {
		var body []string
		for _, w := range words {
			if rng.Intn(2) == 0 {
				body = append(body, w)
			}
		}
		ix.Add(p, []byte(strings.Join(body, " ")))
		m.Add(p, strings.Join(body, " "))
	}
	for i := 0; i < 40; i++ {
		add(path())
	}

	check := func(tag string, sn *Snapshot, m indextest.Model, current bool) {
		t.Helper()
		for _, root := range roots {
			slots, live := scopeSlots(sn, root)
			got := sn.DocsUnder(root)
			if !got.Equal(live) {
				t.Fatalf("%s: DocsUnder(%q) = %v, slot scan %v", tag, root, got, live)
			}
			for _, w := range append(words, "missing") {
				got, skipped := sn.LookupUnder(w, root)
				want := sn.Lookup(w)
				wantSkipped := 0
				for _, s := range sn.segs {
					c := s.posting(w)
					if c == nil {
						continue
					}
					if k := slots[s.id]; k == 0 {
						wantSkipped += c.Len()
					} else if c.Len() > k {
						wantSkipped += c.Len() - k
					}
				}
				want.And(live)
				if !got.Equal(want) {
					t.Fatalf("%s: LookupUnder(%q, %q) = %v, slot scan %v", tag, w, root, got, want)
				}
				if skipped != wantSkipped {
					t.Fatalf("%s: LookupUnder(%q, %q) skipped %d postings, slot scan %d", tag, w, root, skipped, wantSkipped)
				}
				if m != nil {
					sortedPaths(t, tag+": LookupUnder "+w+" "+root, sn.Paths(got), indextest.Under(m.Term(w), root))
				}
			}
			if m != nil {
				sortedPaths(t, tag+": DocsUnder "+root, sn.Paths(got), m.Under(root))
			}
			if !current {
				continue
			}
			n := 0
			for _, k := range slots {
				n += k
			}
			if got := sn.ScopeCost(root); got != n {
				t.Fatalf("%s: ScopeCost(%q) = %d, slot scan %d", tag, root, got, n)
			}
		}
	}

	for step := 0; step < 400; step++ {
		pinned, pinModel := ix.Snapshot(), m.Clone()
		var tag string
		// keepsPin: the step leaves every document of the pinned set where
		// it was, so the pin still reads the model as it was at the pin.
		keepsPin := false
		switch k := rng.Intn(20); {
		case k < 7:
			p := path()
			_, had := m[p]
			keepsPin = !had
			tag = "add " + p
			add(p)
		case k < 10:
			p := path()
			tag = "remove " + p
			ix.Remove(p)
			delete(m, p)
		case k < 14:
			from, to := path(), path()
			tag = "rename " + from + " " + to
			if ix.RenamePath(from, to) {
				m.Rename(from, to)
			}
		case k < 17:
			from, to := pick(dirs), pick(dirs)
			if vfs.HasPrefix(to, from) || vfs.HasPrefix(from, to) {
				continue
			}
			tag = "rename prefix " + from + " " + to
			ix.RenamePrefix(from, to)
			m.RenamePrefix(from, to)
		case k < 19:
			tag = "merge"
			keepsPin = true
			ix.ForceMerge()
		default:
			tag = "save and load"
			keepsPin = true
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadIndex(&buf)
			if err != nil {
				t.Fatal(err)
			}
			loaded.SetSealThreshold(6)
			ix = loaded
		}
		tag = fmt.Sprintf("step %d (%s)", step, tag)
		check(tag, ix.Snapshot(), m, true)
		if !keepsPin {
			pinModel = nil
		}
		check(tag+", pinned before it", pinned, pinModel, false)
	}
}
