package hac

// Differential check of the auto-sync delta pass (DESIGN.md §6, §7):
// the delta pass must leave a volume exactly where the whole-directory
// evaluation would. Seeded random mutations are applied under an
// auto-sync prefix, over a generated set of semantic directories, and
// after every step a full SyncAll has to find nothing to do: it adds no
// link, drops none, and CheckConsistency reports nothing. Because the
// SyncAll also settles whatever a wrong delta would have left, each
// step starts from a consistent volume and a failure names the step
// that caused it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Words share stems so prefix and fuzzy leaves have something to find.
var deltaWords = []string{"alpha", "alpine", "alps", "bravo", "brave", "charlie", "delta", "echo"}

type deltaHarness struct {
	t     *testing.T
	rng   *rand.Rand
	fs    *FS
	files []string // regular files under /spool, as the harness knows them
	dirs  []string // syntactic directories files may live in
	seq   int
	trail []string // operations so far, for failure reports
}

func (h *deltaHarness) logf(format string, args ...any) {
	h.trail = append(h.trail, fmt.Sprintf(format, args...))
}

func (h *deltaHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s\noperations:\n  %s", fmt.Sprintf(format, args...), strings.Join(h.trail, "\n  "))
}

func (h *deltaHarness) must(err error) {
	h.t.Helper()
	if err != nil {
		h.fatalf("unexpected error: %v", err)
	}
}

func (h *deltaHarness) words() string {
	n := 1 + h.rng.Intn(4)
	ws := make([]string, n)
	for i := range ws {
		ws[i] = deltaWords[h.rng.Intn(len(deltaWords))]
	}
	return strings.Join(ws, " ")
}

func (h *deltaHarness) word() string { return deltaWords[h.rng.Intn(len(deltaWords))] }

func (h *deltaHarness) fresh(dir string) string {
	h.seq++
	return vfs.Join(dir, fmt.Sprintf("f%03d.txt", h.seq))
}

func (h *deltaHarness) pickDir() string { return h.dirs[h.rng.Intn(len(h.dirs))] }

func (h *deltaHarness) dropFile(i int) {
	h.files = append(h.files[:i], h.files[i+1:]...)
}

// allLinks is every semantic directory's classified link list.
func (h *deltaHarness) allLinks() map[string][]Link {
	out := map[string][]Link{}
	for _, d := range h.fs.SemanticDirs() {
		links, err := h.fs.Links(d)
		h.must(err)
		out[d] = links
	}
	return out
}

// settled asserts the tested invariant: after an auto-synced mutation a
// SyncAll is a no-op.
func (h *deltaHarness) settled() {
	h.t.Helper()
	before := h.allLinks()
	added, dropped := h.fs.met.linksAdded.Value(), h.fs.met.linksDropped.Value()
	h.must(h.fs.SyncAll())
	if a, d := h.fs.met.linksAdded.Value()-added, h.fs.met.linksDropped.Value()-dropped; a != 0 || d != 0 {
		after := h.allLinks()
		for dir := range after {
			if !reflect.DeepEqual(before[dir], after[dir]) {
				h.logf("%s (%s):\n    delta left %v\n    SyncAll made %v", dir, mustQuery(h.fs, dir), before[dir], after[dir])
			}
		}
		h.fatalf("SyncAll after an auto-synced mutation added %d and dropped %d links", a, d)
	}
	if problems := h.fs.CheckConsistency(); len(problems) > 0 {
		h.fatalf("CheckConsistency: %v", problems)
	}
}

func mustQuery(fs *FS, dir string) string {
	q, _ := fs.QueryDisplay(dir)
	return q
}

// buildDirs creates the generated directory set: plain terms, boolean
// combinations, a prefix and a fuzzy leaf, semantic directories nested
// under semantic and under syntactic parents (one inside the auto-sync
// prefix itself), dir: references to semantic and to syntactic
// directories, and a sprinkling of prohibited and permanent links — one
// of the permanent links reaches its document through a symlink chain,
// which is the case the delta pass must hand to the full evaluation.
func (h *deltaHarness) buildDirs() {
	a, b := h.word(), h.word()
	specs := [][2]string{
		{"/q-term", a},
		{"/q-and", a + " AND " + b},
		{"/q-or", h.word() + " OR " + h.word()},
		{"/q-not", h.word() + " AND NOT " + h.word()},
		{"/q-neg", "NOT " + h.word()},
		{"/q-prefix", "al*"},
		{"/q-fuzzy", "~brav"},
		{"/q-term/inner", h.word()},
		{"/q-term/inner/deeper", h.word() + " OR " + h.word()},
		{"/q-ref", "dir:/q-term AND " + h.word()},
		{"/q-refsyn", "dir:/spool/a AND " + h.word()},
		{"/q-refnot", h.word() + " AND NOT dir:/spool/b"},
		{"/q-ref2", "dir:/q-ref OR dir:/q-and"},
		{"/spool/a/sel", h.word()},
		{"/spool/a/sel/deep", h.word()},
		{"/lib/sel", h.word()},
	}
	for _, s := range specs {
		h.logf("semdir %s %q", s[0], s[1])
		h.must(h.fs.SemDir(s[0], s[1]))
	}
	// Files physically inside a semantic directory are part of the
	// scope it provides.
	h.dirs = append(h.dirs, "/spool/a/sel")

	sem := h.fs.SemanticDirs()
	for i := 0; i < 6; i++ {
		dir := sem[h.rng.Intn(len(sem))]
		target := h.files[h.rng.Intn(len(h.files))]
		if h.rng.Intn(2) == 0 {
			h.logf("prohibit %s %s", dir, target)
			h.must(h.fs.MarkProhibited(dir, target))
		} else {
			h.logf("permanent %s %s", dir, target)
			h.must(h.fs.MarkPermanent(dir, target))
		}
	}
	// /lib/chain → /lib/hop → a spool file: a permanent link to it
	// makes /q-term provide that file to the directories nested in it.
	h.must(h.fs.Symlink(h.files[0], "/lib/hop"))
	h.must(h.fs.Symlink("/lib/hop", "/lib/chain"))
	h.logf("permanent /q-term /lib/chain → /lib/hop → %s", h.files[0])
	h.must(h.fs.MarkPermanent("/q-term", "/lib/chain"))
}

func newDeltaHarness(t *testing.T, seed int64, under vfs.FileSystem) *deltaHarness {
	h := &deltaHarness{
		t:    t,
		rng:  rand.New(rand.NewSource(seed)),
		fs:   New(under, Options{Observer: obs.NewObserver(), Parallelism: 1}),
		dirs: []string{"/spool", "/spool/a", "/spool/b", "/spool/tmp", "/spool/tmp/sub"},
	}
	// A small seal threshold makes documents cross from the active
	// segment into sealed ones (and merges run) within one sequence.
	h.fs.Index().SetSealThreshold(16)
	for _, d := range []string{"/spool/a", "/spool/b", "/spool/tmp/sub", "/lib"} {
		h.must(h.fs.MkdirAll(d))
	}
	for i := 0; i < 12; i++ {
		p := h.fresh(h.pickDir())
		h.must(h.fs.WriteFile(p, []byte(h.words())))
		h.files = append(h.files, p)
	}
	for i := 0; i < 4; i++ {
		h.must(h.fs.WriteFile(fmt.Sprintf("/lib/l%d.txt", i), []byte(h.words())))
	}
	_, err := h.fs.Reindex("/")
	h.must(err)
	h.buildDirs()
	h.must(h.fs.EnableAutoSync("/spool"))
	h.settled()
	return h
}

// step applies one random auto-synced mutation.
func (h *deltaHarness) step() {
	switch op := h.rng.Intn(100); {
	case op < 25: // new file through WriteFile
		p := h.fresh(h.pickDir())
		body := h.words()
		h.logf("write %s %q", p, body)
		h.must(h.fs.WriteFile(p, []byte(body)))
		h.files = append(h.files, p)
	case op < 45 && len(h.files) > 0: // overwrite
		p := h.files[h.rng.Intn(len(h.files))]
		body := h.words()
		h.logf("overwrite %s %q", p, body)
		h.must(h.fs.WriteFile(p, []byte(body)))
	case op < 55: // new or rewritten file through a handle
		p := h.fresh(h.pickDir())
		if len(h.files) > 0 && h.rng.Intn(2) == 0 {
			p = h.files[h.rng.Intn(len(h.files))]
		} else {
			h.files = append(h.files, p)
		}
		body := h.words()
		h.logf("create+write+close %s %q", p, body)
		f, err := h.fs.Create(p)
		h.must(err)
		_, err = f.Write([]byte(body))
		h.must(err)
		h.must(f.Close())
	case op < 70 && len(h.files) > 0: // remove
		i := h.rng.Intn(len(h.files))
		h.logf("remove %s", h.files[i])
		h.must(h.fs.Remove(h.files[i]))
		h.dropFile(i)
	case op < 90 && len(h.files) > 0: // rename, possibly across scopes
		i := h.rng.Intn(len(h.files))
		to := h.fresh(h.pickDir())
		h.logf("rename %s %s", h.files[i], to)
		h.must(h.fs.Rename(h.files[i], to))
		h.files[i] = to
	case op < 95: // a directory subtree goes away and comes back empty
		h.logf("removeall /spool/tmp")
		h.must(h.fs.RemoveAll("/spool/tmp"))
		h.must(h.fs.MkdirAll("/spool/tmp/sub"))
		kept := h.files[:0]
		for _, p := range h.files {
			if !vfs.HasPrefix(p, "/spool/tmp") {
				kept = append(kept, p)
			}
		}
		h.files = kept
	default: // a directory is renamed away and back
		h.logf("rename dir /spool/b → /spool/c → /spool/b")
		h.must(h.fs.Rename("/spool/b", "/spool/c"))
		h.settled()
		h.must(h.fs.Rename("/spool/c", "/spool/b"))
	}
}

func TestDeltaSyncMatchesFullSync(t *testing.T) {
	seeds, steps := 24, 60
	if testing.Short() {
		seeds, steps = 6, 40
	}
	var checks, fallbacks int64
	for seed := 1; seed <= seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var under vfs.FileSystem = vfs.New()
			if seed%2 == 0 {
				under = cas.New(cas.NewStore())
			}
			h := newDeltaHarness(t, seed, under)
			for i := 0; i < steps; i++ {
				h.step()
				h.settled()
			}
			checks += h.fs.met.autoSyncChecks.Value()
			fallbacks += h.fs.met.autoSyncFallbacks.Value()
		})
	}
	// The sequences must have exercised both sides of the pass.
	if checks == 0 || fallbacks == 0 || fallbacks*4 > checks {
		t.Fatalf("delta checks = %d, full-evaluation fallbacks = %d: want mostly delta, some fallback", checks, fallbacks)
	}
}

// TestDeltaSyncConcurrentWriters drives auto-synced writes from several
// goroutines against searches and a full pass, for the race detector;
// the volume must come out settled.
func TestDeltaSyncConcurrentWriters(t *testing.T) {
	h := newDeltaHarness(t, 99, vfs.New())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				p := fmt.Sprintf("/spool/a/w%d-%d.txt", w, i%5)
				if err := h.fs.WriteFile(p, []byte(deltaWords[(w+i)%len(deltaWords)]+" "+deltaWords[i%len(deltaWords)])); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 6 {
					if err := h.fs.Remove(p); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := searchSorted(h.fs, "alpha OR bravo", "/"); err != nil {
				t.Error(err)
				return
			}
			if err := h.fs.SyncAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	h.settled()
}

// TestAutoSyncRemoveAllDirectory is the regression test for RemoveAll
// of a directory under an auto-sync prefix: the files beneath it used to
// stay indexed, and semantic directories kept dangling links to them
// until the next Reindex.
func TestAutoSyncRemoveAllDirectory(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "message"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/mail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/mail/old"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"o1.txt", "o2.txt"} {
		if err := fs.WriteFile("/mail/old/"+name, []byte("message archived")); err != nil {
			t.Fatal(err)
		}
	}
	wantTargets(t, fs, "/sel", "/mail/m1.txt", "/mail/m2.txt", "/mail/old/o1.txt", "/mail/old/o2.txt")
	if err := fs.RemoveAll("/mail/old"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel", "/mail/m1.txt", "/mail/m2.txt")
	for _, p := range []string{"/mail/old/o1.txt", "/mail/old/o2.txt"} {
		if _, ok := fs.Index().IDOf(p); ok {
			t.Fatalf("%s is still indexed after RemoveAll of its directory", p)
		}
	}
	if problems := fs.CheckConsistency(); len(problems) > 0 {
		t.Fatalf("CheckConsistency: %v", problems)
	}
}

// TestAutoSyncOnHandleClose is the regression test for files written
// through Create/OpenFile + Write + Close under an auto-sync prefix,
// which were never indexed or linked.
func TestAutoSyncOnHandleClose(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/mail"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/mail/m3.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("apple by handle")); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel", "/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel", "/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt", "/mail/m3.txt")

	// Truncating through a handle takes the link away again.
	f, err = fs.OpenFile("/mail/m3.txt", vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel", "/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")

	// A handle that only read owes nothing, and one outside the prefix
	// stays lazy.
	before := fs.met.autoSyncs.Value()
	if _, err := fs.ReadFile("/mail/m1.txt"); err != nil {
		t.Fatal(err)
	}
	f, err = fs.Create("/docs/lazy.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("apple but lazy")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fs.met.autoSyncs.Value(); got != before {
		t.Fatalf("auto-sync ran %d times for a read and an out-of-prefix write", got-before)
	}
	wantTargets(t, fs, "/sel", "/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")
}

// TestAutoSyncCoversNoPrefix pins the fast path: with no prefix
// registered covers answers from one atomic load.
func TestAutoSyncCoversNoPrefix(t *testing.T) {
	fs := New(vfs.New(), Options{})
	if fs.autoSync.covers("/anything") {
		t.Fatal("covers with no prefix registered")
	}
	if err := fs.EnableAutoSync("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/b"); err != nil {
		t.Fatal(err)
	}
	if !fs.autoSync.covers("/a/x") || !fs.autoSync.covers("/b") || fs.autoSync.covers("/ab") {
		t.Fatal("covers disagrees with the registered prefixes")
	}
	fs.DisableAutoSync("/a")
	fs.DisableAutoSync("/b")
	if fs.autoSync.prefixes.Load() != nil {
		t.Fatal("disabling the last prefix must restore the empty fast path")
	}
	if n := testing.AllocsPerRun(100, func() { fs.autoSync.covers("/a/x") }); n != 0 {
		t.Fatalf("covers allocates %v times with no prefix", n)
	}
}
