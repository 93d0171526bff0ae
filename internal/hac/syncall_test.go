package hac

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hacfs/internal/vfs"
)

// buildSeededVolume constructs a volume with a pseudo-random corpus and
// a DAG of semantic directories — several independent ones plus dir:
// references two levels deep — driven entirely by seed, so two calls
// with the same seed produce identical starting states whatever their
// verify setting.
func buildSeededVolume(t *testing.T, seed int64, verify bool) *FS {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs := New(vfs.New(), Options{VerifyMatches: verify})
	words := []string{
		"apple", "banana", "cherry", "date", "elder", "fig",
		"grape", "mango", "nutmeg", "olive", "peach", "quince",
	}
	dirs := []string{"/docs", "/mail", "/src", "/notes"}
	for _, d := range dirs {
		if err := fs.MkdirAll(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i++ {
		d := dirs[rng.Intn(len(dirs))]
		n := 3 + rng.Intn(6)
		terms := make([]string, n)
		for j := range terms {
			terms[j] = words[rng.Intn(len(words))]
		}
		p := fmt.Sprintf("%s/f%03d.txt", d, i)
		if err := fs.WriteFile(p, []byte(strings.Join(terms, " "))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	// Semantic directories live at the root so each query's implicit
	// scope (the parent's) spans the whole corpus; the dir: references
	// form a DAG three levels deep.
	semdirs := []struct{ path, q string }{
		{"/q-apple", "apple"},
		{"/q-banana", "banana"},
		{"/q-cherry", "cherry"},
		{"/q-grape", "grape"},
		{"/q-olive", "olive OR peach"},
		{"/q-fruit", "apple OR banana OR cherry"},
		{"/q-mix1", "dir:/q-apple AND banana"},
		{"/q-mix2", "dir:/q-fruit AND NOT cherry"},
		{"/q-deep", "dir:/q-mix1 OR dir:/q-mix2"},
	}
	for _, sd := range semdirs {
		if err := fs.SemDir(sd.path, sd.q); err != nil {
			t.Fatalf("SemDir(%s, %q): %v", sd.path, sd.q, err)
		}
	}
	return fs
}

// volumeFingerprint serializes every semantic directory's full link
// state — link names included, so base~N collision suffixes count —
// into one string for byte-identical comparison.
func volumeFingerprint(t *testing.T, fs *FS) string {
	t.Helper()
	var b strings.Builder
	for _, dir := range fs.SemanticDirs() {
		links, err := fs.Links(dir)
		if err != nil {
			t.Fatalf("Links(%s): %v", dir, err)
		}
		fmt.Fprintf(&b, "%s\n", dir)
		for _, l := range links {
			fmt.Fprintf(&b, "  %q -> %q [%s]\n", l.Name, l.Target, l.Class)
		}
	}
	return b.String()
}

// perturbAndSync applies the same edits to a seeded volume that every
// determinism test uses — two removals and two fresh files — so the
// re-evaluation has real drops and adds to commit, then runs Reindex
// and SyncAll.
func perturbAndSync(t *testing.T, seed int64, fs *FS) {
	t.Helper()
	for _, p := range []string{"/docs/f000.txt", "/mail/f001.txt"} {
		// The seeded writer may not have placed both; ignore misses.
		fs.Remove(p)
	}
	if err := fs.WriteFile("/docs/fresh1.txt", []byte("apple cherry banana")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/notes/fresh2.txt", []byte("olive banana grape")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatalf("seed %d: Reindex: %v", seed, err)
	}
	if err := fs.SyncAll(); err != nil {
		t.Fatalf("seed %d: SyncAll: %v", seed, err)
	}
}

// assertSameVolume fails unless two volumes hold byte-for-byte the same
// link sets (names, targets, classes), answer the same queries, and are
// both consistent.
func assertSameVolume(t *testing.T, seed int64, nameA string, a *FS, nameB string, b *FS) {
	t.Helper()
	fa, fb := volumeFingerprint(t, a), volumeFingerprint(t, b)
	if fa != fb {
		t.Fatalf("seed %d: link state diverges:\n--- %s ---\n%s--- %s ---\n%s", seed, nameA, fa, nameB, fb)
	}
	if strings.Count(fa, "->") < 20 {
		t.Fatalf("seed %d: suspiciously few links — scope misconfigured?\n%s", seed, fa)
	}
	for _, q := range []string{"apple", "banana AND olive", "dir:/q-fruit"} {
		sa, errA := searchSorted(a, q, "/")
		sb, errB := searchSorted(b, q, "/")
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: Search(%q) errors differ: %v vs %v", seed, q, errA, errB)
		}
		if fmt.Sprint(sa) != fmt.Sprint(sb) {
			t.Fatalf("seed %d: Search(%q) = %v (%s) vs %v (%s)", seed, q, sa, nameA, sb, nameB)
		}
	}
	for _, fs := range []*FS{a, b} {
		if problems := fs.CheckConsistency(); len(problems) > 0 {
			t.Fatalf("seed %d: CheckConsistency after SyncAll: %v", seed, problems)
		}
	}
}

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestSyncAllDeterministic: two volumes built from the same seed, one
// with match verification off and one with it on, commit byte-for-byte
// the same link sets (names, targets, classes) after an identical
// perturbation, Reindex and SyncAll. Verification reads every candidate
// through the substrate, so the verify side exercises that read path.
func TestSyncAllDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		plain := buildSeededVolume(t, seed, false)
		verified := buildSeededVolume(t, seed, true)
		for _, fs := range []*FS{plain, verified} {
			perturbAndSync(t, seed, fs)
		}
		assertSameVolume(t, seed, "verify off", plain, "verify on", verified)
	}
}

// TestParallelSyncDeterministic: a volume built and synced at
// GOMAXPROCS=8 commits byte-for-byte the same link sets as one built
// from the same seed at GOMAXPROCS=1 — nothing a pass commits depends
// on the CPU count.
func TestParallelSyncDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		var serial, par *FS
		withProcs(1, func() {
			serial = buildSeededVolume(t, seed, false)
			perturbAndSync(t, seed, serial)
		})
		withProcs(8, func() {
			par = buildSeededVolume(t, seed, false)
			perturbAndSync(t, seed, par)
		})
		assertSameVolume(t, seed, "GOMAXPROCS=1", serial, "GOMAXPROCS=8", par)
	}
}

// TestParallelSyncWithVerify is TestParallelSyncDeterministic with
// match verification on — the configuration the benchmark uses — so
// the commit reads through substrate file handles.
func TestParallelSyncWithVerify(t *testing.T) {
	const seed = 7
	var serial, par *FS
	withProcs(1, func() {
		serial = buildSeededVolume(t, seed, true)
		perturbAndSync(t, seed, serial)
	})
	withProcs(8, func() {
		par = buildSeededVolume(t, seed, true)
		perturbAndSync(t, seed, par)
	})
	assertSameVolume(t, seed, "GOMAXPROCS=1", serial, "GOMAXPROCS=8", par)
}

// TestSyncAllConcurrentMutation hammers a volume with writers, readers
// and whole-volume passes at once: one writer creates and removes
// files and permanent links, another plants symlinks in a syntactic
// directory. After the dust settles, one final Reindex must leave the
// volume fully consistent. Run under -race this also validates the
// lock scheme.
func TestSyncAllConcurrentMutation(t *testing.T) {
	fs := buildSeededVolume(t, 99, false)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: keeps creating and removing files and permanent links.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := fmt.Sprintf("/docs/churn%d.txt", i%5)
			if i%2 == 0 {
				fs.WriteFile(p, []byte("apple churn banana"))
			} else {
				fs.Remove(p)
			}
			if i%3 == 0 {
				fs.MarkPermanent("/q-grape", "/docs/f002.txt")
			}
		}
	}()

	// Symlink writer: links into a syntactic directory race the passes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			fs.Symlink("/docs/f003.txt", fmt.Sprintf("/notes/l%d", i))
		}
	}()

	// Readers: Search and ReadDir proceed between passes.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				searchSorted(fs, "apple OR banana", "/")
				fs.ReadDir("/q-fruit")
				fs.LinkTargets("/q-deep")
				fs.Stats()
			}
		}()
	}

	// Evaluator: repeated whole-volume passes racing the mutators above.
	for i := 0; i < 25; i++ {
		if err := fs.SyncAll(); err != nil {
			t.Fatalf("SyncAll pass %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if problems := fs.CheckConsistency(); len(problems) > 0 {
		t.Fatalf("CheckConsistency after concurrent mutation: %v", problems)
	}
}
