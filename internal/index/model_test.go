package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/index/indextest"
	"hacfs/internal/vfs"
)

// The differential walk: a seeded random sequence of index mutations —
// single Adds, re-Adds, Removes, renames, bulk SyncTree passes (serial
// and chunked), merges, Save+Load — mirrored into the naive
// indextest.Model, with every read the index offers compared against
// the model after every step. Term densities are chosen so postings
// take all three container representations: "every" is in each document
// (one run once packed), "half" in every second (a bitmap as soon as the
// array form is the dearer one, in place, under Add), the rare ones and
// the per-document words stay arrays.

// walkVocab is the corpus vocabulary: word → probability a document
// holds it. The alp*/gam* groups are one edit, or one prefix, apart.
var walkVocab = []struct {
	word string
	p    float64
}{
	{"every", 1}, {"half", 0.5}, {"tenth", 0.1},
	{"alpha", 0.05}, {"alpka", 0.02}, {"alpah", 0.02}, {"alph", 0.02},
	{"gamma", 0.03}, {"gambit", 0.03}, {"gamut", 0.03}, {"rare", 0.002},
}

type walker struct {
	t    *testing.T
	rng  *rand.Rand
	ix   *Index
	m    indextest.Model
	fs   *vfs.MemFS // holds /bulk, the part of the corpus SyncTree owns
	next int        // document counter: unique names and unique terms
	live []string   // /live directory names currently in use
}

func (w *walker) content() string {
	words := []string{fmt.Sprintf("doc%d", w.next)}
	for _, v := range walkVocab {
		if w.rng.Float64() < v.p {
			words = append(words, v.word)
		}
	}
	return strings.Join(words, " ")
}

// livePath returns a fresh path in one of the /live directories, some
// of them one level deeper.
func (w *walker) livePath() string {
	w.next++
	dir := w.live[w.rng.Intn(len(w.live))]
	if w.rng.Intn(4) == 0 {
		dir += "/sub"
	}
	return fmt.Sprintf("/live/%s/f%d.txt", dir, w.next)
}

// pick returns a random indexed path beneath root, "" if there is none.
func (w *walker) pick(root string) string {
	paths := w.m.Under(root)
	if len(paths) == 0 {
		return ""
	}
	sort.Strings(paths) // the model's order is a map's: fix it, for a reproducible walk
	return paths[w.rng.Intn(len(paths))]
}

func (w *walker) add(path string) {
	c := w.content()
	w.ix.Add(path, []byte(c))
	w.m.Add(path, c)
}

// sync changes /bulk in the file system — n new files, a few rewritten,
// a few deleted — and reindexes it, serially or in parallel chunks.
func (w *walker) sync(n, workers int) {
	write := func(p string) {
		c := w.content()
		if err := w.fs.WriteFile(p, []byte(c)); err != nil {
			w.t.Fatal(err)
		}
		w.m.Add(p, c)
	}
	for i := 0; i < n; i++ {
		w.next++
		write(fmt.Sprintf("/bulk/b%d/f%d.txt", w.rng.Intn(4), w.next))
	}
	for i := 0; i < 5; i++ {
		if p := w.pick("/bulk"); p != "" && w.rng.Intn(2) == 0 {
			write(p)
		} else if p != "" {
			if err := w.fs.Remove(p); err != nil {
				w.t.Fatal(err)
			}
			delete(w.m, p)
		}
	}
	var err error
	if workers > 1 {
		_, _, _, err = w.ix.SyncTreeParallel(w.fs, "/bulk", workers)
	} else {
		_, _, _, err = w.ix.SyncTree(w.fs, "/bulk")
	}
	if err != nil {
		w.t.Fatal(err)
	}
}

// step applies one random small mutation and names it.
func (w *walker) step() string {
	switch op := w.rng.Intn(10); op {
	case 0, 1, 2:
		w.add(w.livePath())
		return "add"
	case 3, 4: // re-add: same path, new content, wherever the old version lives
		if p := w.pick("/"); p != "" && !strings.HasPrefix(p, "/bulk") {
			w.add(p)
		}
		return "re-add"
	case 5, 6:
		if p := w.pick("/live"); p != "" {
			if !w.ix.Remove(p) {
				w.t.Fatalf("Remove(%s) found nothing", p)
			}
			delete(w.m, p)
		}
		return "remove"
	case 7: // rename, sometimes onto an indexed path (which it replaces)
		old, to := w.pick("/live"), w.livePath()
		if w.rng.Intn(3) == 0 {
			to = w.pick("/live")
		}
		if old != "" {
			w.ix.RenamePath(old, to)
			w.m.Rename(old, to)
		}
		return "rename"
	case 8:
		i := w.rng.Intn(len(w.live))
		w.next++
		fresh := fmt.Sprintf("r%d", w.next)
		n := w.ix.RenamePrefix("/live/"+w.live[i], "/live/"+fresh)
		if want := len(w.m.Under("/live/" + w.live[i])); n != want {
			w.t.Fatalf("RenamePrefix moved %d documents, model has %d", n, want)
		}
		w.m.RenamePrefix("/live/"+w.live[i], "/live/"+fresh)
		w.live[i] = fresh
		return "rename-prefix"
	default:
		w.sync(20, 1+w.rng.Intn(3))
		return "sync"
	}
}

// reload replaces the index with its own saved image.
func (w *walker) reload() {
	var buf bytes.Buffer
	if err := w.ix.Save(&buf); err != nil {
		w.t.Fatal(err)
	}
	ix, err := LoadIndex(&buf)
	if err != nil {
		w.t.Fatal(err)
	}
	ix.SetSealThreshold(w.ix.sealThreshold)
	w.ix = ix
}

// pathSet resolves a result to its set of paths (PathsOf does not sort,
// which keeps a check linear in the result).
func pathSet(t *testing.T, sn *Snapshot, res *bitset.Segmented) map[string]bool {
	t.Helper()
	paths := sn.PathsOf(res.Slice())
	if len(paths) != res.Len() {
		t.Fatalf("result of %d ids resolves to %d paths: it holds dead or foreign slots", res.Len(), len(paths))
	}
	out := make(map[string]bool, len(paths))
	for _, p := range paths {
		out[p] = true
	}
	if len(out) != len(paths) {
		t.Fatalf("result names a path twice")
	}
	return out
}

// checkSnapshot compares every read of sn against model m.
func checkSnapshot(t *testing.T, tag string, sn *Snapshot, m indextest.Model, scopes []string) {
	t.Helper()
	same := func(what string, got *bitset.Segmented, want []string) {
		t.Helper()
		set := pathSet(t, sn, got)
		if len(set) != len(want) {
			t.Fatalf("%s: %s = %d documents, model has %d", tag, what, len(set), len(want))
		}
		for _, p := range want {
			if !set[p] {
				t.Fatalf("%s: %s misses %s", tag, what, p)
			}
		}
	}
	for _, v := range walkVocab {
		same("Lookup "+v.word, sn.Lookup(v.word), m.Term(v.word))
	}
	same("Lookup missing", sn.Lookup("missing"), nil)
	for _, p := range []string{"alp", "gam", "doc1", "e", "zz"} {
		same("LookupPrefix "+p, sn.LookupPrefix(p), m.Prefix(p))
	}
	for _, f := range []string{"alpha", "gamma", "hal", "zzzz"} {
		same("LookupFuzzy "+f, sn.LookupFuzzy(f), m.Fuzzy(f))
	}
	same("AllDocs", sn.AllDocs(), m.All())
	for _, root := range scopes {
		same("DocsUnder "+root, sn.DocsUnder(root), m.Under(root))
		for _, term := range []string{"every", "half", "alpha"} {
			got, _ := sn.LookupUnder(term, root)
			same("LookupUnder "+term+" "+root, got, indextest.Under(m.Term(term), root))
		}
	}
}

// check compares a fresh snapshot, and the index's own counters, with
// the model.
func (w *walker) check(tag string) {
	w.t.Helper()
	scopes := []string{"/", "/bulk", "/bulk/b1", "/live", "/live/" + w.live[0], "/live/" + w.live[1] + "/sub", "/nowhere"}
	if p := w.pick("/"); p != "" {
		scopes = append(scopes, p) // a file path is a scope of one
	}
	checkSnapshot(w.t, tag, w.ix.Snapshot(), w.m, scopes)
	for _, root := range scopes {
		if got, want := w.ix.DocsUnderCount(root), len(w.m.Under(root)); got != want {
			w.t.Fatalf("%s: DocsUnderCount(%s) = %d, model has %d", tag, root, got, want)
		}
	}
	if got := w.ix.NumDocs(); got != len(w.m) {
		w.t.Fatalf("%s: NumDocs = %d, model has %d", tag, got, len(w.m))
	}
}

// postingKinds returns which container representations the postings of
// sealed (or, with sealed false, active) segments currently use.
func (w *walker) postingKinds(sealed bool) map[string]bool {
	kinds := map[string]bool{}
	w.ix.eachSegmentLocked(func(s *segment) {
		if s.sealed == sealed {
			for _, c := range s.postings {
				kinds[c.Kind()] = true
			}
		}
	})
	return kinds
}

func TestDifferentialWalk(t *testing.T) {
	w := &walker{
		t: t, rng: rand.New(rand.NewSource(16)), ix: New(), m: indextest.Model{},
		fs: vfs.New(), live: []string{"d0", "d1", "d2", "d3"},
	}
	clock := time.Unix(1_000_000, 0)
	w.fs.SetClock(func() time.Time { clock = clock.Add(time.Second); return clock })
	if err := w.fs.MkdirAll("/bulk"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.fs.Mkdir(fmt.Sprintf("/bulk/b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	steps := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			steps++
			w.check(fmt.Sprintf("step %d (%s)", steps, w.step()))
		}
	}

	// One large active segment: the dense postings switch from array to
	// bitmap in place, under Add.
	w.ix.SetSealThreshold(3000)
	for i := 0; i < 2000; i++ {
		w.add(w.livePath())
	}
	w.check("bulk add")
	if kinds := w.postingKinds(false); !kinds["bitmap"] || !kinds["array"] {
		t.Fatalf("active postings use %v, want arrays and bitmaps", kinds)
	}
	run(12)

	// A chunked reindex of a large tree: many small sealed segments, then
	// the merge the policy asks for.
	w.sync(1500, 3)
	w.check("bulk sync")
	run(12)

	// Pin a snapshot, merge everything underneath it, add on top: the
	// pinned view still answers as the model did at pin time.
	pinned, atPin := w.ix.Snapshot(), w.m.Clone()
	w.ix.ForceMerge()
	w.check("force merge")
	if kinds := w.postingKinds(true); !kinds["array"] || !kinds["bitmap"] || !kinds["run"] {
		t.Fatalf("sealed postings use %v, want all three representations", kinds)
	}
	for i := 0; i < 10; i++ {
		w.add(w.livePath())
	}
	checkSnapshot(t, "pinned before merge", pinned, atPin, []string{"/", "/bulk/b2", "/live/" + w.live[2]})
	run(12)

	w.reload()
	w.check("save+load")
	run(12)
	w.ix.SetSealThreshold(64) // from here on, a segment every few steps
	run(24)
	w.ix.ForceMerge()
	w.check("final merge")
	w.reload()
	w.check("final save+load")

	// The paths the index knows are exactly the model's.
	got := w.ix.Snapshot().Paths(w.ix.Snapshot().AllDocs())
	want := w.m.All()
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final corpus differs: %d paths vs %d", len(got), len(want))
	}
}
