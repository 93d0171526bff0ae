package index

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/corpus"
	"hacfs/internal/vfs"
)

func TestTokenize(t *testing.T) {
	got := Tokenize([]byte("Hello, World! x it's CamelCase42 a"))
	want := []string{"hello", "world", "it", "camelcase42"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if got := Tokenize(nil); len(got) != 0 {
		t.Fatalf("Tokenize(nil) = %v", got)
	}
	// Over-long runs are dropped.
	long := make([]byte, 100)
	for i := range long {
		long[i] = 'a'
	}
	if got := Tokenize(long); len(got) != 0 {
		t.Fatalf("Tokenize(long run) = %v", got)
	}
}

func TestAddAndLookup(t *testing.T) {
	ix := New()
	a := ix.Add("/a", []byte("apple banana"))
	b := ix.Add("/b", []byte("banana cherry"))

	if got := ix.Snapshot().Lookup("apple").Slice(); len(got) != 1 || got[0] != a {
		t.Fatalf("apple = %v, want [%d]", got, a)
	}
	if got := ix.Snapshot().Lookup("banana").Len(); got != 2 {
		t.Fatalf("banana matches %d docs, want 2", got)
	}
	if got := ix.Snapshot().Lookup("cherry").Slice(); len(got) != 1 || got[0] != b {
		t.Fatalf("cherry = %v, want [%d]", got, b)
	}
	if got := ix.Snapshot().Lookup("durian").Len(); got != 0 {
		t.Fatalf("missing term matched %d docs", got)
	}
	// Lookup normalizes case.
	if got := ix.Snapshot().Lookup("APPLE").Len(); got != 1 {
		t.Fatalf("case-insensitive lookup failed: %d", got)
	}
	if ix.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d, want 2", ix.NumDocs())
	}
}

func TestUpdateReplacesDocument(t *testing.T) {
	ix := New()
	ix.Add("/f", []byte("old content here"))
	ix.Add("/f", []byte("new stuff"))

	if ix.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d, want 1", ix.NumDocs())
	}
	if ix.Snapshot().Lookup("old").Any() {
		t.Fatal("stale term still matches after update")
	}
	if !ix.Snapshot().Lookup("new").Any() {
		t.Fatal("new term does not match after update")
	}
	id, ok := ix.IDOf("/f")
	if !ok {
		t.Fatal("IDOf lost the path")
	}
	if p, ok := ix.PathOf(id); !ok || p != "/f" {
		t.Fatalf("PathOf(%d) = %q, %v", id, p, ok)
	}
}

func TestRemove(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("apple"))
	ix.Add("/b", []byte("apple"))
	if !ix.Remove("/a") {
		t.Fatal("Remove reported no document")
	}
	if ix.Remove("/a") {
		t.Fatal("second Remove reported a document")
	}
	if got := ix.Snapshot().Lookup("apple").Len(); got != 1 {
		t.Fatalf("after remove, apple matches %d, want 1", got)
	}
	if _, ok := ix.IDOf("/a"); ok {
		t.Fatal("removed path still resolves")
	}
	if ix.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d, want 1", ix.NumDocs())
	}
}

func TestRenamePath(t *testing.T) {
	ix := New()
	ix.Add("/old", []byte("apple"))
	if !ix.RenamePath("/old", "/new") {
		t.Fatal("RenamePath failed")
	}
	if ix.RenamePath("/old", "/other") {
		t.Fatal("RenamePath on missing path succeeded")
	}
	paths := ix.Snapshot().Paths(ix.Snapshot().Lookup("apple"))
	if len(paths) != 1 || paths[0] != "/new" {
		t.Fatalf("after rename, paths = %v", paths)
	}
}

func TestLookupPrefix(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("fingerprint"))
	ix.Add("/b", []byte("finger"))
	ix.Add("/c", []byte("toe"))
	if got := ix.Snapshot().LookupPrefix("finger").Len(); got != 2 {
		t.Fatalf("prefix finger matches %d, want 2", got)
	}
	if got := ix.Snapshot().LookupPrefix("fingerp").Len(); got != 1 {
		t.Fatalf("prefix fingerp matches %d, want 1", got)
	}
}

func TestPathsSortedAndLive(t *testing.T) {
	ix := New()
	ix.Add("/z", []byte("apple"))
	ix.Add("/a", []byte("apple"))
	ix.Add("/m", []byte("apple"))
	bm := ix.Snapshot().Lookup("apple")
	ix.Remove("/m")
	got := ix.Snapshot().Paths(bm) // bm still holds the dead ID
	want := []string{"/a", "/z"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Paths = %v, want %v", got, want)
	}
}

func TestIDsOf(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("x"))
	ix.Add("/b", []byte("x"))
	bm := ix.Snapshot().IDsOf([]string{"/a", "/missing", "/b"})
	if bm.Len() != 2 {
		t.Fatalf("IDsOf len = %d, want 2", bm.Len())
	}
}

func TestForceMerge(t *testing.T) {
	ix := New()
	a := ix.Add("/a", []byte("apple"))
	b := ix.Add("/b", []byte("apple banana"))
	ix.Add("/c", []byte("cherry"))
	ix.Remove("/b")

	ix.ForceMerge()
	if ix.Universe() != 2 {
		t.Fatalf("Universe after merge = %d, want 2", ix.Universe())
	}
	// Pre-merge IDs retire with their segment, live or dead.
	if p, ok := ix.PathOf(a); ok {
		t.Fatalf("PathOf(pre-merge id) = %q after the merge retired it", p)
	}
	if _, ok := ix.PathOf(b); ok {
		t.Fatal("dead pre-merge ID still resolves")
	}
	if id, ok := ix.IDOf("/a"); !ok || id == a {
		t.Fatalf("IDOf(/a) = %#x, %v; want a merged ID", id, ok)
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("apple")); len(got) != 1 || got[0] != "/a" {
		t.Fatalf("apple after merge = %v", got)
	}
	if ix.Snapshot().Lookup("banana").Any() {
		t.Fatal("dead doc's unique term survived merge")
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("cherry")); len(got) != 1 || got[0] != "/c" {
		t.Fatalf("cherry after merge = %v", got)
	}
	st := ix.Stats()
	if st.DeadDocs != 0 || st.Docs != 2 {
		t.Fatalf("Stats after merge = %+v", st)
	}
}

func TestStats(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("one two three"))
	st := ix.Stats()
	if st.Docs != 1 || st.Terms != 3 || st.IndexBytes <= 0 || st.ContentBytes != 13 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestSyncTree(t *testing.T) {
	fs := vfs.New()
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fs.SetClock(func() time.Time { return clock })
	if err := fs.MkdirAll("/data/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/data/a.txt", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/data/sub/b.txt", []byte("beta")); err != nil {
		t.Fatal(err)
	}

	ix := New()
	added, updated, removed, err := ix.SyncTree(fs, "/data", nil)
	if err != nil || added != 2 || updated != 0 || removed != 0 {
		t.Fatalf("first sync = %d/%d/%d, %v", added, updated, removed, err)
	}
	if !ix.Snapshot().Lookup("alpha").Any() || !ix.Snapshot().Lookup("beta").Any() {
		t.Fatal("terms missing after sync")
	}

	// No changes → no work.
	added, updated, removed, _ = ix.SyncTree(fs, "/data", nil)
	if added != 0 || updated != 0 || removed != 0 {
		t.Fatalf("idle sync = %d/%d/%d", added, updated, removed)
	}

	// Modify, add, remove.
	clock = clock.Add(time.Minute)
	if err := fs.WriteFile("/data/a.txt", []byte("gamma")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/data/c.txt", []byte("delta")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/data/sub/b.txt"); err != nil {
		t.Fatal(err)
	}
	added, updated, removed, _ = ix.SyncTree(fs, "/data", nil)
	if added != 1 || updated != 1 || removed != 1 {
		t.Fatalf("second sync = %d/%d/%d, want 1/1/1", added, updated, removed)
	}
	if ix.Snapshot().Lookup("alpha").Any() || ix.Snapshot().Lookup("beta").Any() {
		t.Fatal("stale terms survive sync")
	}
	if !ix.Snapshot().Lookup("gamma").Any() || !ix.Snapshot().Lookup("delta").Any() {
		t.Fatal("new terms missing after sync")
	}
}

func TestSyncTreeScoped(t *testing.T) {
	fs := vfs.New()
	for _, p := range []string{"/x", "/y"} {
		if err := fs.MkdirAll(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("/x/a", []byte("xterm")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/y/b", []byte("yterm")); err != nil {
		t.Fatal(err)
	}
	ix := New()
	if _, _, _, err := ix.SyncTree(fs, "/x", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ix.SyncTree(fs, "/y", nil); err != nil {
		t.Fatal(err)
	}
	// Removing /y/b and syncing only /x must not drop /y/b.
	if err := fs.Remove("/y/b"); err != nil {
		t.Fatal(err)
	}
	if _, _, removed, _ := ix.SyncTree(fs, "/x", nil); removed != 0 {
		t.Fatalf("scoped sync removed %d docs outside scope", removed)
	}
	if !ix.Snapshot().Lookup("yterm").Any() {
		t.Fatal("document outside sync scope was dropped")
	}
	if _, _, removed, _ := ix.SyncTree(fs, "/y", nil); removed != 1 {
		t.Fatal("in-scope removal not detected")
	}
}

// TestSyncTreeBuildsOneSegment: a pass adds one sealed segment, whatever
// the seal threshold, numbered in walk order; the active segment stays
// empty. A pass over an unchanged tree adds nothing, and a pass after k
// edits adds one k-document segment and k dead slots.
func TestSyncTreeBuildsOneSegment(t *testing.T) {
	fs := vfs.New()
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fs.SetClock(func() time.Time { return clock })
	var paths []string
	for d := 0; d < 3; d++ {
		for f := 0; f < 4; f++ {
			p := fmt.Sprintf("/c/d%d/f%d.txt", d, f)
			if err := fs.MkdirAll(vfs.Dir(p)); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(p, []byte("every")); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
	}
	ix := New()
	ix.SetSealThreshold(5)
	if added, _, _, err := ix.SyncTree(fs, "/c", nil); err != nil || added != len(paths) {
		t.Fatalf("first pass added %d, %v; want %d", added, err, len(paths))
	}
	if st := ix.Stats(); st.Segments != 2 || len(ix.active.docs) != 0 {
		t.Fatalf("first pass: %d segments, %d active slots; want one sealed segment and an empty active one",
			st.Segments, len(ix.active.docs))
	}
	seg, _ := splitID(ix.byPath[paths[0]])
	for i, p := range paths {
		if id, _ := ix.IDOf(p); id != makeID(seg, uint32(i)) {
			t.Fatalf("%s has ID %#x, want slot %d of segment %d (walk order)", p, id, i, seg)
		}
	}

	if a, u, r, _ := ix.SyncTree(fs, "/c", nil); a+u+r != 0 || ix.Stats().Segments != 2 {
		t.Fatalf("pass over an unchanged tree = %d/%d/%d, %d segments", a, u, r, ix.Stats().Segments)
	}

	clock = clock.Add(time.Minute)
	edited := []string{paths[1], paths[6], paths[11]}
	for _, p := range edited {
		if err := fs.WriteFile(p, []byte("edited")); err != nil {
			t.Fatal(err)
		}
	}
	if _, u, _, _ := ix.SyncTree(fs, "/c", nil); u != len(edited) {
		t.Fatalf("pass after %d edits updated %d", len(edited), u)
	}
	st := ix.Stats()
	if st.Segments != 3 || st.DeadDocs != len(edited) || len(ix.active.docs) != 0 {
		t.Fatalf("after edits: %d segments, %d dead, %d active slots; want 3, %d, 0",
			st.Segments, st.DeadDocs, len(ix.active.docs), len(edited))
	}
	if s := ix.sealed[len(ix.sealed)-1]; len(s.docs) != len(edited) {
		t.Fatalf("the edit pass's segment holds %d documents, want %d", len(s.docs), len(edited))
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("edited")); !reflect.DeepEqual(got, edited) {
		t.Fatalf("edited = %v, want %v", got, edited)
	}
}

func TestIndexCorpus(t *testing.T) {
	fs := vfs.New()
	if err := fs.MkdirAll("/c"); err != nil {
		t.Fatal(err)
	}
	man, err := corpus.Generate(fs, "/c", corpus.Spec{Files: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ix := New()
	added, _, _, err := ix.SyncTree(fs, "/c", nil)
	if err != nil || added != 150 {
		t.Fatalf("sync = %d, %v", added, err)
	}
	// Planted marker counts match the manifest exactly.
	for term, paths := range man.MarkerFiles {
		got := ix.Snapshot().Paths(ix.Snapshot().Lookup(term))
		if !reflect.DeepEqual(got, paths) {
			t.Fatalf("%s: index found %d files, manifest says %d", term, len(got), len(paths))
		}
	}
	// Topic terms too.
	for ti, term := range man.TopicTerm {
		got := ix.Snapshot().Paths(ix.Snapshot().Lookup(term))
		if !reflect.DeepEqual(got, man.TopicFiles[ti]) {
			t.Fatalf("topic %d: got %d files, want %d", ti, len(got), len(man.TopicFiles[ti]))
		}
	}
}

// Property: for any documents, every document that contains a term is in
// Lookup(term), and none that lack it are.
func TestPropertyLookupExact(t *testing.T) {
	words := []string{"ant", "bee", "cat", "dog", "elk"}
	f := func(docWords [][]byte) bool {
		ix := New()
		contains := map[string]map[string]bool{}
		for i, raw := range docWords {
			if i >= 20 {
				break
			}
			path := fmt.Sprintf("/d%d", i)
			var content []byte
			has := map[string]bool{}
			for _, b := range raw {
				w := words[int(b)%len(words)]
				content = append(content, []byte(w+" ")...)
				has[w] = true
			}
			ix.Add(path, content)
			contains[path] = has
		}
		for _, w := range words {
			got := map[string]bool{}
			for _, p := range ix.Snapshot().Paths(ix.Snapshot().Lookup(w)) {
				got[p] = true
			}
			for p, has := range contains {
				if got[p] != has[w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a merge preserves query results (paths, and pre-merge result
// bitmaps read through the snapshot that issued them; not internal
// layout). The seal threshold is forced low so random op sequences
// exercise real multi-segment layouts.
func TestPropertyMergePreservesResults(t *testing.T) {
	f := func(ops []uint8) bool {
		ix := New()
		ix.SetSealThreshold(4)
		terms := []string{"red", "green", "blue"}
		for i, op := range ops {
			p := fmt.Sprintf("/f%d", int(op)%10)
			switch {
			case op%5 == 0:
				ix.Remove(p)
			default:
				ix.Add(p, []byte(terms[int(op)%3]+" filler"))
			}
			_ = i
		}
		before := map[string][]string{}
		held := map[string]*bitset.Segmented{}
		pinned := ix.Snapshot()
		for _, term := range terms {
			held[term] = pinned.Lookup(term)
			before[term] = pinned.Paths(held[term])
		}
		ix.ForceMerge()
		for _, term := range terms {
			// Fresh lookups see the same documents...
			if !reflect.DeepEqual(before[term], ix.Snapshot().Paths(ix.Snapshot().Lookup(term))) {
				return false
			}
			// ...and result bitmaps captured before the merge still
			// resolve to the same paths in their own snapshot.
			if !reflect.DeepEqual(before[term], pinned.Paths(held[term])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllDocs(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("x"))
	ix.Add("/b", []byte("y"))
	ix.Remove("/a")
	all := ix.Snapshot().AllDocs()
	if all.Len() != 1 {
		t.Fatalf("AllDocs len = %d, want 1", all.Len())
	}
	// Returned bitmap is a copy.
	all.Add(99)
	if ix.Snapshot().AllDocs().Contains(99) {
		t.Fatal("AllDocs returned aliased bitmap")
	}
}

// Changing how content maps to terms is only allowed on an empty store:
// RegisterTransducer fails with a typed *vfs.PathError wrapping
// ErrNotEmpty once a document has been indexed — even a tombstoned one,
// since its slots still hold the old terms.
func TestTransducerLockedAfterAdd(t *testing.T) {
	ix := New()
	if err := ix.RegisterTransducer("", PathTransducer); err != nil {
		t.Fatalf("RegisterTransducer on empty index: %v", err)
	}
	ix.Add("/a", []byte("word"))
	err := ix.RegisterTransducer(".eml", EmailTransducer)
	var pe *vfs.PathError
	if !errors.Is(err, ErrNotEmpty) || !errors.As(err, &pe) {
		t.Fatalf("RegisterTransducer err = %v, want *vfs.PathError wrapping ErrNotEmpty", err)
	}
	// A removed document does not unlock the store: its slot survives
	// until a merge, still carrying old terms.
	ix.Remove("/a")
	if err := ix.RegisterTransducer(".eml", EmailTransducer); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("RegisterTransducer after Remove err = %v, want ErrNotEmpty", err)
	}
}

func BenchmarkAdd(b *testing.B) {
	content := []byte("the quick brown fox jumps over the lazy dog repeatedly and often")
	b.ReportAllocs()
	ix := New()
	for i := 0; i < b.N; i++ {
		ix.Add(fmt.Sprintf("/f%d", i), content)
	}
}

// sealedCorpus returns an index of one sealed segment: a 20 000-file
// corpus (internal/corpus: a Zipf-skewed background vocabulary, topic
// words, planted markers and a numbered header per file, so ~22 500
// terms, most of them in one document) read by one SyncTree pass. The
// index is built once per process and only read.
var sealedCorpus = sync.OnceValues(func() (*Index, error) {
	fs := vfs.New()
	if err := fs.MkdirAll("/c"); err != nil {
		return nil, err
	}
	if _, err := corpus.Generate(fs, "/c", corpus.Spec{Files: 20000, MeanWords: 40, Seed: 5}); err != nil {
		return nil, err
	}
	ix := New()
	if _, _, _, err := ix.SyncTree(fs, "/c", nil); err != nil {
		return nil, err
	}
	return ix, nil
})

func sealedCorpusSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	ix, err := sealedCorpus()
	if err != nil {
		b.Fatal(err)
	}
	return ix.Snapshot()
}

// BenchmarkLookup times one exact-term lookup: of a term in every
// document over two sealed segments and an active one, and of a
// 40-document term in the sealed corpus segment, where finding the
// posting is the larger share of the work.
func BenchmarkLookup(b *testing.B) {
	b.Run("mixed-10000", func(b *testing.B) {
		ix := New()
		for i := 0; i < 10000; i++ {
			ix.Add(fmt.Sprintf("/f%d", i), []byte(fmt.Sprintf("common term%d", i%100)))
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Snapshot().Lookup("common")
		}
	})
	b.Run("sealed-20000", func(b *testing.B) {
		sn := sealedCorpusSnapshot(b)
		if n := sn.Lookup("markerfew").Len(); n != 40 {
			b.Fatalf("markerfew in %d documents, want 40", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sn.Lookup("markerfew")
		}
	})
}

// BenchmarkLookupPrefix times a prefix leaf over the sealed corpus
// segment — its planner cost and its lookup — for a prefix of 40
// background words.
func BenchmarkLookupPrefix(b *testing.B) {
	sn := sealedCorpusSnapshot(b)
	b.Run("cost", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sn.PrefixCost("wba")
		}
	})
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sn.LookupPrefix("wba")
		}
	})
}

// BenchmarkLookupFuzzy times a fuzzy leaf over the sealed corpus
// segment — its planner cost and its lookup — for a word one edit from
// one 40-document term.
func BenchmarkLookupFuzzy(b *testing.B) {
	sn := sealedCorpusSnapshot(b)
	if n := sn.LookupFuzzy("markerfex").Len(); n != 40 {
		b.Fatalf("~markerfex in %d documents, want 40", n)
	}
	b.Run("cost", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sn.FuzzyCost("markerfex")
		}
	})
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sn.LookupFuzzy("markerfex")
		}
	})
}

// BenchmarkLoadIndex times loading the image of the sealed corpus
// segment.
func BenchmarkLoadIndex(b *testing.B) {
	ix, err := sealedCorpus()
	if err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	if err := ix.Save(&img); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadIndex(bytes.NewReader(img.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupUnder times a term lookup scoped to one 25-file
// directory at depth 6, the shape of a directory-scoped search: in a
// sealed 20 000-document segment (a range of its path order) and in a
// full active segment of 4 095 documents (a scan of its paths). Every
// document holds the term, so the scope decides the work.
func BenchmarkLookupUnder(b *testing.B) {
	for _, bc := range []struct {
		name string
		docs int
	}{{"sealed-20000", 20000}, {"active-4095", DefaultSealThreshold - 1}} {
		b.Run(bc.name, func(b *testing.B) {
			ix := New()
			ix.SetSealThreshold(20000)
			for i := 0; i < bc.docs; i++ {
				ix.Add(fmt.Sprintf("/home/u/proj/docs/dir%03d/f%02d", i/25, i%25), []byte("markermany"))
			}
			root := fmt.Sprintf("/home/u/proj/docs/dir%03d", bc.docs/50)
			sn := ix.Snapshot()
			if got, _ := sn.LookupUnder("markermany", root); got.Len() != 25 {
				b.Fatalf("LookupUnder found %d documents, want 25", got.Len())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn.LookupUnder("markermany", root)
			}
		})
	}
}
