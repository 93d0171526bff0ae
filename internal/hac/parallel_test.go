package hac

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hacfs/internal/vfs"
)

// buildSeededVolume constructs a volume with a pseudo-random corpus and
// a DAG of semantic directories — several independent ones plus dir:
// references two levels deep — driven entirely by seed, so two calls
// with the same seed produce identical starting states regardless of
// the parallelism they will later be evaluated with.
func buildSeededVolume(t *testing.T, seed int64, par int) *FS {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs := New(vfs.New(), Options{Parallelism: par})
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

// TestParallelSyncDeterministic is the engine's core guarantee: a
// parallel Reindex+SyncAll commits byte-for-byte the same link sets
// (names, targets, classes) as a serial run over the same volume.
func TestParallelSyncDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		serial := buildSeededVolume(t, seed, 1)
		par := buildSeededVolume(t, seed, 8)

		// Perturb both volumes identically so the re-evaluation has
		// real drops and adds to commit.
		for _, fs := range []*FS{serial, par} {
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
		}
		if _, err := serial.Reindex("/", WithParallelism(1)); err != nil {
			t.Fatalf("seed %d: serial Reindex: %v", seed, err)
		}
		if _, err := par.Reindex("/", WithParallelism(8)); err != nil {
			t.Fatalf("seed %d: parallel Reindex: %v", seed, err)
		}

		a, b := volumeFingerprint(t, serial), volumeFingerprint(t, par)
		if a != b {
			t.Fatalf("seed %d: parallel link state diverges from serial:\n--- serial ---\n%s--- parallel ---\n%s", seed, a, b)
		}
		if strings.Count(a, "->") < 20 {
			t.Fatalf("seed %d: suspiciously few links — scope misconfigured?\n%s", seed, a)
		}
		for _, q := range []string{"apple", "banana AND olive", "dir:/q-fruit"} {
			sa, errA := searchSorted(serial, q, "/")
			pb, errB := searchSorted(par, q, "/")
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d: Search(%q) errors differ: %v vs %v", seed, q, errA, errB)
			}
			if fmt.Sprint(sa) != fmt.Sprint(pb) {
				t.Fatalf("seed %d: Search(%q) = %v (serial) vs %v (parallel)", seed, q, sa, pb)
			}
		}
		if problems := par.CheckConsistency(); len(problems) > 0 {
			t.Fatalf("seed %d: CheckConsistency after parallel sync: %v", seed, problems)
		}
	}
}

// TestParallelSyncWithVerify runs the same determinism check with
// match verification on — the configuration the benchmark uses — so
// the parallel read path through substrate file handles is exercised.
func TestParallelSyncWithVerify(t *testing.T) {
	serial := buildSeededVolume(t, 7, 1)
	par := buildSeededVolume(t, 7, 8)
	serial.verify = true
	par.verify = true
	if err := serial.SyncAll(WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	if err := par.SyncAll(WithParallelism(8)); err != nil {
		t.Fatal(err)
	}
	if a, b := volumeFingerprint(t, serial), volumeFingerprint(t, par); a != b {
		t.Fatalf("verify-mode parallel sync diverges:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
}

// TestParallelSyncConcurrentMutation hammers a volume with writers,
// readers and parallel evaluation passes at once. The generation
// counter must ensure no stale staged result is ever committed: after
// the dust settles, one final Reindex must leave the volume fully
// consistent. Run under -race this also validates the lock scheme.
func TestParallelSyncConcurrentMutation(t *testing.T) {
	fs := buildSeededVolume(t, 99, 0)
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

	// Readers: Search and ReadDir must proceed during evaluation.
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

	// Evaluator: repeated parallel passes racing the mutators above.
	for i := 0; i < 25; i++ {
		if err := fs.SyncAll(WithParallelism(4)); err != nil {
			t.Fatalf("SyncAll pass %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if _, err := fs.Reindex("/", WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
	if problems := fs.CheckConsistency(); len(problems) > 0 {
		t.Fatalf("CheckConsistency after concurrent mutation: %v", problems)
	}
}

// TestParallelReindexMatchesSerial checks the single-writer merge:
// document IDs assigned during a parallel Reindex must equal the
// serial assignment, observable through identical search results and
// index statistics.
func TestParallelReindexMatchesSerial(t *testing.T) {
	serial := New(vfs.New(), Options{})
	par := New(vfs.New(), Options{})
	rng := rand.New(rand.NewSource(5))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	// Deterministic corpus, written identically to both volumes.
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(4)
		terms := make([]string, n)
		for j := range terms {
			terms[j] = words[rng.Intn(len(words))]
		}
		body := []byte(strings.Join(terms, " "))
		p := fmt.Sprintf("/corpus/doc%02d.txt", i)
		for _, fs := range []*FS{serial, par} {
			if err := fs.MkdirAll("/corpus"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(p, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	repS, err := serial.Reindex("/", WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	repP, err := par.Reindex("/", WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if repS != repP {
		t.Fatalf("IndexReport differs: serial %+v, parallel %+v", repS, repP)
	}
	for _, w := range words {
		sa, _ := searchSorted(serial, w, "/")
		pb, _ := searchSorted(par, w, "/")
		if fmt.Sprint(sa) != fmt.Sprint(pb) {
			t.Fatalf("Search(%q) = %v (serial) vs %v (parallel)", w, sa, pb)
		}
	}
}

// TestSyncGenerationFallback pins the staleness protocol directly: a
// mutation interleaved between the engine's evaluation and commit
// phases must not lose its effect to a stale staged result.
func TestSyncGenerationFallback(t *testing.T) {
	fs := buildSeededVolume(t, 3, 4)
	// Bump the generation mid-flight by mutating from another
	// goroutine while SyncAll runs repeatedly; the engine either
	// commits (gen unchanged) or falls back to serial re-evaluation.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			fs.Symlink("/docs/f003.txt", fmt.Sprintf("/notes/l%d", i))
		}
	}()
	for i := 0; i < 50; i++ {
		if err := fs.SyncAll(WithParallelism(4)); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := fs.SyncAll(WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
	if problems := fs.CheckConsistency(); len(problems) > 0 {
		t.Fatalf("CheckConsistency: %v", problems)
	}
}
