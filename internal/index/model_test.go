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
// single Adds, re-Adds, Removes, renames, SyncTree passes, merges,
// Save+Load — mirrored into the naive
// indextest.Model, with every read the index offers compared against
// the model after every step. Term densities are chosen so postings
// take all three container representations: "every" is in each document
// (one run once packed), "half" in every second (a bitmap as soon as the
// array form is the dearer one, in place, under Add), the rare ones and
// the per-document words stay arrays.

// walkVocab is the corpus vocabulary: word → probability a document
// holds it. The alp*/gam*/x1* groups are one edit, or one prefix, apart;
// the x* words hold digits. The tokenizer keeps ASCII letters and digits
// only, so the words with non-ASCII bytes reach the index through a
// transducer (nonASCIIWords), and each of their ASCII runs is too short
// to be a term of its own.
var walkVocab = []struct {
	word string
	p    float64
}{
	{"every", 1}, {"half", 0.5}, {"tenth", 0.1},
	{"alpha", 0.05}, {"alpka", 0.02}, {"alpah", 0.02}, {"alph", 0.02},
	{"gamma", 0.03}, {"gambit", 0.03}, {"gamut", 0.03}, {"rare", 0.002},
	{"x1", 0.03}, {"x10", 0.03}, {"x2", 0.02},
	{"é", 0.03}, {"éa", 0.02}, {"zé", 0.02}, {"zéz", 0.02},
}

// The prefix and fuzzy queries of every check. Besides the groups above
// they hold byte-order traps for a sorted term table: a prefix that is a
// whole term ("alph", "x1", "é"), one a byte short of a term ("gambi",
// "x1" of "x10"), one that sorts between the last ASCII term and the
// non-ASCII ones ("zz"), and one that sorts after every term ("ÿ").
var (
	walkPrefixes = []string{"alp", "alph", "gam", "gambi", "doc1", "e", "x", "x1", "x10", "z", "zz", "é", "ÿ"}
	walkFuzzy    = []string{"alpha", "gamma", "hal", "zzzz", "x11", "x", "zé", "éb", "ÿ"}
)

// nonASCIIWords is the walk's transducer: it indexes the words of a
// document that hold a byte outside ASCII, which the tokenizer drops.
func nonASCIIWords(_ string, content []byte) []string {
	var out []string
	for _, w := range strings.Fields(string(content)) {
		if strings.IndexFunc(w, func(r rune) bool { return r >= 0x80 }) >= 0 {
			out = append(out, w)
		}
	}
	return out
}

type walker struct {
	t    *testing.T
	rng  *rand.Rand
	ix   *Index
	m    indextest.Model
	fs   *vfs.MemFS // holds /bulk, the part of the corpus SyncTree owns
	next int        // document counter: unique names and unique terms
	live []string   // /live directory names currently in use
	// held is a result of the previous check's snapshot, read through
	// the next one: the half of Snapshot.Paths that resolves IDs outside
	// the pinned set (those of a segment merged away since are skipped).
	held *bitset.Segmented
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
// a few deleted — and reindexes it.
func (w *walker) sync(n int) {
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
	if _, _, _, err := w.ix.SyncTree(w.fs, "/bulk", nil); err != nil {
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
	case 8: // rename a directory, sometimes onto paths indexed already (which it replaces)
		i := w.rng.Intn(len(w.live))
		w.next++
		fresh := fmt.Sprintf("r%d", w.next)
		if w.rng.Intn(2) == 0 {
			for _, p := range w.m.Under("/live/" + w.live[i]) {
				if w.rng.Intn(3) == 0 {
					w.add("/live/" + fresh + p[len("/live/"+w.live[i]):])
				}
			}
		}
		n := w.ix.RenamePrefix("/live/"+w.live[i], "/live/"+fresh)
		if want := len(w.m.Under("/live/" + w.live[i])); n != want {
			w.t.Fatalf("RenamePrefix moved %d documents, model has %d", n, want)
		}
		w.m.RenamePrefix("/live/"+w.live[i], "/live/"+fresh)
		w.live[i] = fresh
		return "rename-prefix"
	default:
		w.sync(20)
		return "sync"
	}
}

// reload replaces the index with its own saved image.
func (w *walker) reload() {
	var buf bytes.Buffer
	if err := w.ix.Save(&buf); err != nil {
		w.t.Fatal(err)
	}
	ix, err := LoadIndex(&buf, WithLoadTransducer("", nonASCIIWords))
	if err != nil {
		w.t.Fatal(err)
	}
	ix.SetSealThreshold(w.ix.sealThreshold)
	w.ix = ix
	w.held = nil // IDs do not survive a save and load
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

// sortedPaths fails unless got is exactly want, sorted: strictly
// ascending, as long, and naming only paths of want. (Checked this way
// it costs no sort of the model.)
func sortedPaths(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	in := make(map[string]bool, len(want))
	for _, p := range want {
		in[p] = true
	}
	for i, p := range got {
		if i > 0 && got[i-1] >= p {
			t.Fatalf("%s: %q before %q: not sorted, or a path twice", what, got[i-1], p)
		}
		if !in[p] {
			t.Fatalf("%s: names %s, which it should not", what, p)
		}
	}
}

// checkSnapshot compares every read of sn against model m: the result
// as a set of paths, and Paths of it as the model's paths sorted.
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
		sortedPaths(t, tag+": Paths of "+what, sn.Paths(got), want)
	}
	for _, v := range walkVocab {
		same("Lookup "+v.word, sn.Lookup(v.word), m.Term(v.word))
	}
	same("Lookup missing", sn.Lookup("missing"), nil)
	for _, p := range walkPrefixes {
		same("LookupPrefix "+p, sn.LookupPrefix(p), m.Prefix(p))
		if got, want := sn.PrefixCost(p), vocabCost(sn, func(term string) bool { return strings.HasPrefix(term, p) }); got != want {
			t.Fatalf("%s: PrefixCost(%q) = %d, the segments' terms sum to %d", tag, p, got, want)
		}
	}
	for _, f := range walkFuzzy {
		same("LookupFuzzy "+f, sn.LookupFuzzy(f), m.Fuzzy(f))
		if got, want := sn.FuzzyCost(f), vocabCost(sn, func(term string) bool { return indextest.WithinOneEdit(f, term) }); got != want {
			t.Fatalf("%s: FuzzyCost(%q) = %d, the segments' terms sum to %d", tag, f, got, want)
		}
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

// vocabCost is the brute-force cost of a term selection: the posting
// cardinality, dead slots included, of every term sel accepts, summed
// over each pinned segment's whole vocabulary — its table when sealed,
// its map when not.
func vocabCost(sn *Snapshot, sel func(term string) bool) int {
	sn.ix.mu.RLock()
	defer sn.ix.mu.RUnlock()
	n := 0
	for _, s := range sn.segs {
		for i, term := range s.terms {
			if sel(term) {
				n += s.posts[i].Len()
			}
		}
		for term, c := range s.open {
			if sel(term) {
				n += c.Len()
			}
		}
	}
	return n
}

// check compares a fresh snapshot, and the index's own counters, with
// the model.
func (w *walker) check(tag string) {
	w.t.Helper()
	scopes := []string{"/", "/bulk", "/bulk/b1", "/live", "/live/" + w.live[0], "/live/" + w.live[1] + "/sub", "/nowhere"}
	if p := w.pick("/"); p != "" {
		scopes = append(scopes, p) // a file path is a scope of one
	}
	sn := w.ix.Snapshot()
	checkSnapshot(w.t, tag, sn, w.m, scopes)
	if w.held != nil {
		// An older result names some documents that have since gone or been
		// rewritten under a new ID; PathsOf resolves it the same way.
		want := sn.PathsOf(w.held.Slice())
		for _, p := range want {
			if _, ok := w.m[p]; !ok {
				w.t.Fatalf("%s: an older result resolves to %s, which is not indexed", tag, p)
			}
		}
		sortedPaths(w.t, tag+": Paths of an older result", sn.Paths(w.held), want)
	}
	w.held = sn.Lookup("half")
	w.checkOrder(tag)
	for _, root := range scopes {
		if got, want := len(sn.Paths(sn.DocsUnder(root))), len(w.m.Under(root)); got != want {
			w.t.Fatalf("%s: DocsUnder(%s) holds %d paths, model has %d", tag, root, got, want)
		}
	}
	if got := w.ix.NumDocs(); got != len(w.m) {
		w.t.Fatalf("%s: NumDocs = %d, model has %d", tag, got, len(w.m))
	}
}

// checkOrder fails unless every resident sealed segment's order holds
// each of its slots once, sorted by path and then slot, and its term
// table is sorted and unique, a posting beside each term, with no map.
func (w *walker) checkOrder(tag string) {
	w.t.Helper()
	for _, s := range w.ix.sealed {
		if len(s.terms) != len(s.posts) || s.open != nil {
			w.t.Fatalf("%s: segment %d holds %d terms beside %d postings", tag, s.id, len(s.terms), len(s.posts))
		}
		for i := 1; i < len(s.terms); i++ {
			if s.terms[i-1] >= s.terms[i] {
				w.t.Fatalf("%s: segment %d has term %q before %q", tag, s.id, s.terms[i-1], s.terms[i])
			}
		}
		if len(s.order) != len(s.docs) {
			w.t.Fatalf("%s: segment %d orders %d of %d slots", tag, s.id, len(s.order), len(s.docs))
		}
		seen := make([]bool, len(s.docs))
		for i, l := range s.order {
			if seen[l] {
				w.t.Fatalf("%s: segment %d orders slot %d twice", tag, s.id, l)
			}
			seen[l] = true
			if i > 0 && s.cmpSlots(s.order[i-1], l) >= 0 {
				w.t.Fatalf("%s: segment %d order has %q (slot %d) before %q (slot %d)", tag, s.id,
					s.docs[s.order[i-1]].path, s.order[i-1], s.docs[l].path, l)
			}
		}
	}
}

// postingKinds returns which container representations the postings of
// sealed (or, with sealed false, active) segments currently use.
func (w *walker) postingKinds(sealed bool) map[string]bool {
	kinds := map[string]bool{}
	w.ix.eachSegmentLocked(func(s *segment) {
		if s.sealed == sealed {
			s.eachPosting(termPattern{}, func(_ string, c *bitset.Container) {
				kinds[c.Kind()] = true
			})
		}
	})
	return kinds
}

func TestDifferentialWalk(t *testing.T) {
	w := &walker{
		t: t, rng: rand.New(rand.NewSource(16)), ix: New(), m: indextest.Model{},
		fs: vfs.New(), live: []string{"d0", "d1", "d2", "d3"},
	}
	if err := w.ix.RegisterTransducer("", nonASCIIWords); err != nil {
		t.Fatal(err)
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

	// A reindex of a large tree: one large sealed segment beside the
	// active one.
	w.sync(1500)
	w.check("bulk sync")
	run(12)

	// Pin a snapshot, merge everything underneath it, add on top: the
	// pinned view still answers as the model did at pin time.
	pinned, atPin := w.ix.Snapshot(), w.m.Clone()
	heldEvery := pinned.Lookup("every")
	w.ix.ForceMerge()
	// A result of the pinned set, read through that snapshot after the
	// merge retired its segments, is still the pin-time corpus.
	sortedPaths(t, "pre-merge result after the merge", pinned.Paths(heldEvery), atPin.All())
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
