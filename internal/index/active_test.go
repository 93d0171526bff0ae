package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hacfs/internal/vfs"
)

// results is what a reader can observe of a term set: the matching
// paths for every term, through the given lookup.
func results(lookup func(term string) []string, terms []string) map[string][]string {
	out := make(map[string][]string, len(terms))
	for _, term := range terms {
		out[term] = lookup(term)
	}
	return out
}

// TestActiveReclaimInvisibleToPinnedSnapshot: a tombstone in the active
// segment clears the slot's postings in place, and a snapshot pinned
// before it answers exactly as it would have with the bits merely
// masked — the removed document gone, everything else unchanged.
func TestActiveReclaimInvisibleToPinnedSnapshot(t *testing.T) {
	ix := New()
	ix.Add("/d/keep.txt", []byte("shared keeper"))
	ix.Add("/d/gone.txt", []byte("shared goner onlyhere"))
	ix.Add("/d/other.txt", []byte("other keeper"))
	terms := []string{"shared", "keeper", "goner", "onlyhere", "other"}

	snap := ix.Snapshot()
	lookup := func(term string) []string { return snap.Paths(snap.Lookup(term)) }
	if got := lookup("onlyhere"); !reflect.DeepEqual(got, []string{"/d/gone.txt"}) {
		t.Fatalf("before removal onlyhere = %v", got)
	}
	if !ix.Remove("/d/gone.txt") {
		t.Fatal("Remove found nothing")
	}
	want := map[string][]string{
		"shared":   {"/d/keep.txt"},
		"keeper":   {"/d/keep.txt", "/d/other.txt"},
		"goner":    {},
		"onlyhere": {},
		"other":    {"/d/other.txt"},
	}
	if got := results(lookup, terms); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned snapshot after reclamation = %v, want %v", got, want)
	}
	if got := snap.Paths(snap.DocsUnder("/d")); !reflect.DeepEqual(got, []string{"/d/keep.txt", "/d/other.txt"}) {
		t.Fatalf("pinned DocsUnder after reclamation = %v", got)
	}
	// The reclamation really happened: the unique terms are gone from
	// the vocabulary, not just masked.
	if st := ix.Stats(); st.Terms != 3 || st.DeadDocs != 1 {
		t.Fatalf("after reclamation Terms = %d DeadDocs = %d, want 3 and 1", st.Terms, st.DeadDocs)
	}
	// A document added after the pin reuses no slot the snapshot can see.
	ix.Add("/d/late.txt", []byte("shared late"))
	if got := lookup("shared"); !reflect.DeepEqual(got, []string{"/d/keep.txt"}) {
		t.Fatalf("pinned snapshot sees a post-pin document: %v", got)
	}
}

// TestActiveReclaimSurvivesSaveLoadAndMerge: an index whose active
// segment holds reclaimed holes and replaced slots saves, loads and
// force-merges to the same observable contents.
func TestActiveReclaimSurvivesSaveLoadAndMerge(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(8) // the sequence crosses a seal with holes behind it
	rng := rand.New(rand.NewSource(5))
	words := []string{"ash", "birch", "cedar", "dogwood", "elm", "fir"}
	model := map[string]map[string]bool{} // path → term set
	for i := 0; i < 60; i++ {
		p := fmt.Sprintf("/t/d%d/f%02d.txt", i%3, rng.Intn(12))
		if _, ok := model[p]; ok && rng.Intn(3) == 0 {
			ix.Remove(p)
			delete(model, p)
			continue
		}
		ts := map[string]bool{}
		body := ""
		for j := 0; j <= rng.Intn(3); j++ {
			w := words[rng.Intn(len(words))]
			ts[w] = true
			body += w + " "
		}
		ix.Add(p, []byte(body))
		model[p] = ts
	}
	want := map[string][]string{}
	for _, w := range words {
		want[w] = []string{}
		for p, ts := range model {
			if ts[w] {
				want[w] = append(want[w], p)
			}
		}
		sortStrings(want[w])
	}
	check := func(stage string, ix *Index) {
		t.Helper()
		got := results(func(term string) []string { return ix.Snapshot().Paths(ix.Snapshot().Lookup(term)) }, words)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lookups = %v, want %v", stage, got, want)
		}
		if ix.NumDocs() != len(model) {
			t.Fatalf("%s: NumDocs = %d, want %d", stage, ix.NumDocs(), len(model))
		}
		under := 0
		for p := range model {
			if vfs.HasPrefix(p, "/t/d1") {
				under++
			}
		}
		if snap := ix.Snapshot(); len(snap.Paths(snap.DocsUnder("/t/d1"))) != under {
			t.Fatalf("%s: DocsUnder(/t/d1) disagrees with the %d model documents under it", stage, under)
		}
	}
	check("live", ix)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	check("loaded", loaded)
	if st := loaded.Stats(); st.DeadDocs != 0 {
		t.Fatalf("loaded image carries %d dead slots", st.DeadDocs)
	}

	ix.ForceMerge()
	check("merged", ix)
	if st := ix.Stats(); st.DeadDocs != 0 || ix.Universe() != len(model) {
		t.Fatalf("after ForceMerge DeadDocs = %d Universe = %d, want 0 and %d", st.DeadDocs, ix.Universe(), len(model))
	}
}

// TestOverwriteInActiveSegmentCostsNothing: overwriting one path N
// times while its slot is in the active segment leaves the footprint
// where it started — same slot, same DocID, no dead slots, and the
// throw-away terms of the intermediate versions gone.
func TestOverwriteInActiveSegmentCostsNothing(t *testing.T) {
	ix := New()
	ix.Add("/inbox/other.txt", []byte("steady neighbour"))
	first := ix.Add("/inbox/slot.txt", []byte("marker body"))
	start := ix.Stats()
	universe := ix.Universe()
	for i := 0; i < 200; i++ {
		id := ix.Add("/inbox/slot.txt", []byte(fmt.Sprintf("marker body unique%d extra%d", i, i)))
		if id != first {
			t.Fatalf("overwrite %d moved the document from %#x to %#x", i, first, id)
		}
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("unique199")); !reflect.DeepEqual(got, []string{"/inbox/slot.txt"}) {
		t.Fatalf("latest version not searchable: %v", got)
	}
	if got := ix.Snapshot().Lookup("unique198").Len(); got != 0 {
		t.Fatalf("a replaced version still matches (%d docs)", got)
	}
	ix.Add("/inbox/slot.txt", []byte("marker body"))
	if got := ix.Stats(); got != start {
		t.Fatalf("after 201 overwrites Stats = %+v, want the starting %+v", got, start)
	}
	if ix.Universe() != universe {
		t.Fatalf("Universe grew from %d to %d", universe, ix.Universe())
	}
}

// TestReindexedDocRewrittenOnce: a document a reindex pass installed
// lives in a sealed segment, so its first rewrite costs one dead slot;
// from then on the path is maintained in place in the active segment.
func TestReindexedDocRewrittenOnce(t *testing.T) {
	fsys := vfs.New()
	if err := fsys.WriteFile("/note.txt", []byte("first draft")); err != nil {
		t.Fatal(err)
	}
	ix := New()
	if _, _, _, err := ix.SyncTree(fsys, "/", nil); err != nil {
		t.Fatal(err)
	}
	synced, _ := ix.IDOf("/note.txt")
	second := ix.Add("/note.txt", []byte("second draft"))
	if second == synced || ix.Stats().DeadDocs != 1 {
		t.Fatalf("first rewrite of a reindexed document: id %#x → %#x, DeadDocs = %d", synced, second, ix.Stats().DeadDocs)
	}
	for i := 0; i < 10; i++ {
		if id := ix.Add("/note.txt", []byte(fmt.Sprintf("draft number%d", i))); id != second {
			t.Fatalf("rewrite %d moved the document again: %#x → %#x", i, second, id)
		}
	}
	if st := ix.Stats(); st.DeadDocs != 1 || st.Docs != 1 {
		t.Fatalf("after rewrites Docs = %d DeadDocs = %d, want 1 and 1", st.Docs, st.DeadDocs)
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("first")); len(got) != 0 {
		t.Fatalf("the reindexed version still matches: %v", got)
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("number9")); !reflect.DeepEqual(got, []string{"/note.txt"}) {
		t.Fatalf("latest version not searchable: %v", got)
	}
}

// TestDocHasMatchesLookups: the single-document membership tests agree
// with the set-valued lookups, for documents in the active segment, in
// sealed segments and in a merged one.
func TestDocHasMatchesLookups(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(5)
	rng := rand.New(rand.NewSource(11))
	words := []string{"alpha", "alpine", "alps", "bravo", "brave", "bravado", "kilo"}
	for i := 0; i < 23; i++ {
		body := ""
		for j := 0; j <= rng.Intn(3); j++ {
			body += words[rng.Intn(len(words))] + " "
		}
		ix.Add(fmt.Sprintf("/m/f%02d.txt", i), []byte(body))
		if i == 11 {
			ix.ForceMerge()
		}
	}
	// A reindex pass installs a sealed segment of its own.
	fsys := vfs.New()
	if err := fsys.MkdirAll("/bulk"); err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{"alpha kilo", "bravado", ""} {
		if err := fsys.WriteFile(fmt.Sprintf("/bulk/b%d.txt", i), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := ix.SyncTree(fsys, "/bulk", nil); err != nil {
		t.Fatal(err)
	}
	dead, _ := ix.IDOf("/m/f03.txt") // in the merged segment
	gone, _ := ix.IDOf("/m/f22.txt") // in the active segment: reclaimed
	ix.Remove("/m/f03.txt")
	ix.Remove("/m/f22.txt")
	probes := []string{"alpha", "ALPS", "al", "brav", "bravo", "brawo", "kilos", "ilo", "zulu", ""}
	sn := ix.Snapshot()
	ids := sn.AllDocs().Slice()
	if len(ids) != 24 {
		t.Fatalf("AllDocs = %d, want 24", len(ids))
	}
	docs := map[string]DocID{"/m/f03.txt": dead, "/m/f22.txt": gone}
	for _, id := range ids {
		p, _ := sn.PathOf(id)
		docs[p] = id
	}
	for p, id := range docs {
		for _, q := range probes {
			if got, want := ix.DocHasTerm(p, q), sn.Lookup(q).Contains(id); got != want {
				t.Errorf("DocHasTerm(%s, %q) = %v, Lookup says %v", p, q, got, want)
			}
			if got, want := ix.DocHasPrefix(p, q), sn.LookupPrefix(q).Contains(id); got != want {
				t.Errorf("DocHasPrefix(%s, %q) = %v, LookupPrefix says %v", p, q, got, want)
			}
			if got, want := ix.DocHasFuzzy(p, q), sn.LookupFuzzy(q).Contains(id); got != want {
				t.Errorf("DocHasFuzzy(%s, %q) = %v, LookupFuzzy says %v", p, q, got, want)
			}
		}
	}
}

func TestRemovePrefix(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(2)
	for _, p := range []string{"/a/x.txt", "/a/b/y.txt", "/a/b/z.txt", "/ab/w.txt", "/c.txt"} {
		ix.Add(p, []byte("word"))
	}
	if got := ix.RemovePrefix("/a"); !reflect.DeepEqual(got, []string{"/a/b/y.txt", "/a/b/z.txt", "/a/x.txt"}) {
		t.Fatalf("RemovePrefix(/a) = %v", got)
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("word")); !reflect.DeepEqual(got, []string{"/ab/w.txt", "/c.txt"}) {
		t.Fatalf("left after RemovePrefix = %v", got)
	}
	// A root that is itself a document removes just that document.
	if got := ix.RemovePrefix("/c.txt"); !reflect.DeepEqual(got, []string{"/c.txt"}) {
		t.Fatalf("RemovePrefix(/c.txt) = %v", got)
	}
	if got := ix.RemovePrefix("/nowhere"); len(got) != 0 {
		t.Fatalf("RemovePrefix(/nowhere) = %v", got)
	}
	if ix.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d, want 1", ix.NumDocs())
	}
}
