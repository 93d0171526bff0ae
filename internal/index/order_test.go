package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"hacfs/internal/vfs"
)

// A directory renamed onto a path that is still indexed replaces the
// document there, as a file rename does: the displaced one is
// tombstoned, not left alive under a path byPath no longer leads to.
func TestRenamePrefixReplacesIndexedPath(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		t.Run(fmt.Sprintf("sealed=%v", sealed), func(t *testing.T) {
			ix := New()
			ix.Add("/b/x", []byte("old"))
			ix.Add("/a/x", []byte("new"))
			ix.Add("/a/y", []byte("new"))
			if sealed {
				ix.ForceMerge()
			}
			if n := ix.RenamePrefix("/a", "/b"); n != 2 {
				t.Fatalf("RenamePrefix moved %d documents, want 2", n)
			}
			sn := ix.Snapshot()
			if got, want := sn.Paths(sn.AllDocs()), []string{"/b/x", "/b/y"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("Paths = %v, want %v", got, want)
			}
			if got := ix.NumDocs(); got != 2 {
				t.Fatalf("NumDocs = %d, want 2", got)
			}
			if got := sn.Paths(sn.Lookup("old")); len(got) != 0 {
				t.Fatalf("the displaced document still matches: %v", got)
			}
		})
	}
}

// A snapshot pinned while a segment was active keeps its cap on that
// segment after it seals: slots committed after the pin stay out of
// Paths even when the segment's path order is walked.
func TestPathsHonoursThePinCap(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(3)
	ix.Add("/c", []byte("word"))
	ix.Add("/a", []byte("word"))
	pinned := ix.Snapshot()
	ix.Add("/b", []byte("word")) // the third slot seals the segment
	later := ix.Snapshot().Lookup("word")
	if got, want := pinned.Paths(later), []string{"/a", "/c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned Paths = %v, want %v", got, want)
	}
}

// mergeRuns equals a sort of the concatenated runs, whatever their
// number, lengths, overlap and duplicates.
func TestMergeRunsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		runs := make([][]string, 1+rng.Intn(8))
		var all []string
		for i := range runs {
			for j := 1 + rng.Intn(20); j > 0; j-- {
				runs[i] = append(runs[i], fmt.Sprintf("/p%03d", rng.Intn(60)))
			}
			sort.Strings(runs[i])
			all = append(all, runs[i]...)
		}
		sort.Strings(all)
		if got := mergeRuns(nil, runs); !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d: merge = %v, want %v", trial, got, all)
		}
	}
}

// Paths readers race renames (one path, a whole prefix) and merge
// commits. Every read is sorted with no path twice, and afterwards every
// sealed segment's order is exact. CI runs it under -race, repeated.
func TestPathsRacesRenamesAndMerges(t *testing.T) {
	const dirs, per = 6, 100
	fsys := vfs.New()
	for d := 0; d < dirs; d++ {
		if err := fsys.MkdirAll(fmt.Sprintf("/t/d%d", d)); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < per; f++ {
			if err := fsys.WriteFile(fmt.Sprintf("/t/d%d/f%03d", d, f), []byte("every")); err != nil {
				t.Fatal(err)
			}
		}
	}
	ix := New()
	ix.SetSealThreshold(64)
	for d := 0; d < dirs; d++ { // a pass per directory, a sealed segment each
		if _, _, _, err := ix.SyncTree(fsys, fmt.Sprintf("/t/d%d", d), nil); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := ix.Snapshot()
				got := sn.Paths(sn.Lookup("every"))
				for i := 1; i < len(got); i++ {
					if got[i-1] >= got[i] {
						t.Errorf("Paths has %q before %q", got[i-1], got[i])
						return
					}
				}
				if len(got) > dirs*per {
					t.Errorf("Paths = %d paths, the corpus has %d", len(got), dirs*per)
					return
				}
			}
		}()
	}
	writers.Add(3)
	go func() { // single renames, out and back
		defer writers.Done()
		for i := 0; i < 300; i++ {
			from, to := fmt.Sprintf("/t/d0/f%03d", i%per), fmt.Sprintf("/t/d0/a%03d", i%per)
			if i/per%2 == 1 {
				from, to = to, from
			}
			ix.RenamePath(from, to)
		}
	}()
	go func() { // prefix renames, out and back
		defer writers.Done()
		for i := 0; i < 60; i++ {
			ix.RenamePrefix("/t/d1", "/t/c1")
			ix.RenamePrefix("/t/c1", "/t/d1")
		}
	}()
	go func() { // rewrites fill segments; merges fold them
		defer writers.Done()
		for i := 0; i < 400; i++ {
			ix.Add(fmt.Sprintf("/t/d2/f%03d", i%per), []byte("every"))
			if i%50 == 0 {
				ix.ForceMerge()
			} else {
				ix.MaybeMerge()
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, s := range ix.sealed {
		if len(s.order) != len(s.docs) || !slices.IsSortedFunc(s.order, s.cmpSlots) {
			t.Fatalf("segment %d: order is not its %d slots in path order", s.id, len(s.docs))
		}
	}
	if ix.liveDocs != dirs*per {
		t.Fatalf("%d live documents, want %d", ix.liveDocs, dirs*per)
	}
}

// BenchmarkPathsAfterEdits measures Paths on a 10 % and a 60 % result
// of a 10k-document index built by one reindex pass per top directory
// ("fresh"), and
// again after 60 cycles of rewriting 1 % of the files, re-syncing and
// merging ("edited"): the edits add documents out of path order, which
// each merge keeps.
func BenchmarkPathsAfterEdits(b *testing.B) {
	const files, cycles = 10_000, 60
	rng := rand.New(rand.NewSource(1))
	fsys := vfs.New()
	clock := time.Unix(1_000_000, 0)
	fsys.SetClock(func() time.Time { clock = clock.Add(time.Second); return clock })
	write := func(p string) {
		content := "every"
		if rng.Intn(10) == 0 {
			content += " tenth"
		}
		if rng.Intn(10) < 6 {
			content += " sixty"
		}
		if err := fsys.WriteFile(p, []byte(content)); err != nil {
			b.Fatal(err)
		}
	}
	paths := make([]string, files)
	for i := range paths {
		dir := fmt.Sprintf("/c/d%02d/s%d", i%50, i/50%8)
		if err := fsys.MkdirAll(dir); err != nil {
			b.Fatal(err)
		}
		paths[i] = fmt.Sprintf("%s/f%05d.txt", dir, i)
		write(paths[i])
	}
	ix := New()
	resync := func(root string) {
		if _, _, _, err := ix.SyncTree(fsys, root, nil); err != nil {
			b.Fatal(err)
		}
	}
	for d := 0; d < 50; d++ {
		resync(fmt.Sprintf("/c/d%02d", d))
	}
	run := func(state string) {
		for _, c := range []struct{ share, term string }{{"10pct", "tenth"}, {"60pct", "sixty"}} {
			b.Run(state+"/"+c.share, func(b *testing.B) {
				sn := ix.Snapshot()
				res := sn.Lookup(c.term)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchPaths = sn.Paths(res)
				}
			})
		}
	}
	run("fresh")
	for cycle := 0; cycle < cycles; cycle++ {
		for j := 0; j < files/100; j++ {
			write(paths[rng.Intn(files)])
		}
		resync("/c")
	}
	run("edited")
}

var benchPaths []string
