package index

import (
	"errors"
	"fmt"
	"reflect"
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
	// Pre-merge IDs stay valid: the live one resolves through the
	// forward table, the dead one resolves to nothing.
	if p, ok := ix.PathOf(a); !ok || p != "/a" {
		t.Fatalf("PathOf(pre-merge id) = %q, %v", p, ok)
	}
	if _, ok := ix.PathOf(b); ok {
		t.Fatal("dead pre-merge ID still resolves")
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
	added, updated, removed, err := ix.SyncTree(fs, "/data")
	if err != nil || added != 2 || updated != 0 || removed != 0 {
		t.Fatalf("first sync = %d/%d/%d, %v", added, updated, removed, err)
	}
	if !ix.Snapshot().Lookup("alpha").Any() || !ix.Snapshot().Lookup("beta").Any() {
		t.Fatal("terms missing after sync")
	}

	// No changes → no work.
	added, updated, removed, _ = ix.SyncTree(fs, "/data")
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
	added, updated, removed, _ = ix.SyncTree(fs, "/data")
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
	if _, _, _, err := ix.SyncTree(fs, "/x"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ix.SyncTree(fs, "/y"); err != nil {
		t.Fatal(err)
	}
	// Removing /y/b and syncing only /x must not drop /y/b.
	if err := fs.Remove("/y/b"); err != nil {
		t.Fatal(err)
	}
	if _, _, removed, _ := ix.SyncTree(fs, "/x"); removed != 0 {
		t.Fatalf("scoped sync removed %d docs outside scope", removed)
	}
	if !ix.Snapshot().Lookup("yterm").Any() {
		t.Fatal("document outside sync scope was dropped")
	}
	if _, _, removed, _ := ix.SyncTree(fs, "/y"); removed != 1 {
		t.Fatal("in-scope removal not detected")
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
	added, _, _, err := ix.SyncTree(fs, "/c")
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

// Property: a merge preserves query results (paths and pre-merge result
// bitmaps, not internal layout). The seal threshold is forced low so
// random op sequences exercise real multi-segment layouts.
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
		for _, term := range terms {
			held[term] = ix.Snapshot().Lookup(term)
			before[term] = ix.Snapshot().Paths(held[term])
		}
		ix.ForceMerge()
		for _, term := range terms {
			// Fresh lookups see the same documents...
			if !reflect.DeepEqual(before[term], ix.Snapshot().Paths(ix.Snapshot().Lookup(term))) {
				return false
			}
			// ...and result bitmaps captured before the merge still
			// resolve to the same paths through the forward tables.
			if !reflect.DeepEqual(before[term], ix.Snapshot().Paths(held[term])) {
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

func TestCustomTokenizer(t *testing.T) {
	ix := New()
	if err := ix.SetTokenizer(func(content []byte) []string { return []string{"constant"} }); err != nil {
		t.Fatal(err)
	}
	ix.Add("/a", []byte("whatever"))
	if !ix.Snapshot().Lookup("constant").Any() {
		t.Fatal("custom tokenizer not used")
	}
	if ix.Snapshot().Lookup("whatever").Any() {
		t.Fatal("default tokenizer still in effect")
	}
}

// Changing how content maps to terms is only allowed on an empty store:
// both calls fail with a typed *vfs.PathError wrapping ErrNotEmpty once
// a document has been indexed — even a tombstoned one, since its slots
// still hold old-tokenizer terms.
func TestTokenizerAndTransducerLockedAfterAdd(t *testing.T) {
	ix := New()
	if err := ix.RegisterTransducer("", PathTransducer); err != nil {
		t.Fatalf("RegisterTransducer on empty index: %v", err)
	}
	ix.Add("/a", []byte("word"))
	err := ix.SetTokenizer(func([]byte) []string { return nil })
	if !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("SetTokenizer err = %v, want ErrNotEmpty", err)
	}
	var pe *vfs.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("SetTokenizer err %T, want *vfs.PathError", err)
	}
	err = ix.RegisterTransducer(".eml", EmailTransducer)
	if !errors.Is(err, ErrNotEmpty) || !errors.As(err, &pe) {
		t.Fatalf("RegisterTransducer err = %v, want *vfs.PathError wrapping ErrNotEmpty", err)
	}
	// A removed document does not unlock the store: its slot survives
	// until a merge, still carrying old terms.
	ix.Remove("/a")
	if err := ix.SetTokenizer(func([]byte) []string { return nil }); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("SetTokenizer after Remove err = %v, want ErrNotEmpty", err)
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

func BenchmarkLookup(b *testing.B) {
	ix := New()
	for i := 0; i < 10000; i++ {
		ix.Add(fmt.Sprintf("/f%d", i), []byte(fmt.Sprintf("common term%d", i%100)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Snapshot().Lookup("common")
	}
}
