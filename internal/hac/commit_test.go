package hac

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// opDelta returns the per-operation substrate calls fault counted since
// before.
func opDelta(fault *vfs.FaultFS, before vfs.FaultStats) map[string]uint64 {
	d := map[string]uint64{}
	for op, n := range fault.Stats().PerOp {
		if n > before.PerOp[op] {
			d[op] = n - before.PerOp[op]
		}
	}
	return d
}

// TestCommitSubstrateCalls pins what a consistency pass costs the
// substrate (DESIGN.md §8): links are a view, so a SemDir over N matches
// writes no symlink and makes as many substrate calls at N = 300 as at
// N = 10, and so do the first ReadDir of that directory, which names its
// links, and a clean Sync — of that directory, and of one holding N
// permanent links.
func TestCommitSubstrateCalls(t *testing.T) {
	calls := map[int][3]map[string]uint64{}
	for _, n := range []int{10, 300} {
		fault := vfs.NewFaultFS(cas.New(nil), vfs.FaultConfig{})
		fs := New(fault, Options{})
		if err := fs.MkdirAll("/docs"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/docs/d%03d.txt", i), []byte("apple")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fs.Reindex("/"); err != nil {
			t.Fatal(err)
		}

		before := fault.Stats()
		if err := fs.SemDir("/s", "apple"); err != nil {
			t.Fatal(err)
		}
		semdir := opDelta(fault, before)
		if semdir["symlink"] != 0 {
			t.Fatalf("N=%d: SemDir made %d symlink calls, want none (%v)", n, semdir["symlink"], semdir)
		}
		if links, _ := fs.LinkTargets("/s"); len(links) != n {
			t.Fatalf("N=%d: SemDir linked %d targets", n, len(links))
		}
		before = fault.Stats()
		if _, err := fs.ReadDir("/s"); err != nil {
			t.Fatal(err)
		}
		// The first listing names the links against its own listing.
		if got, want := opDelta(fault, before), map[string]uint64{"readdir": 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("N=%d: the first ReadDir after the SemDir made %v substrate calls, want %v", n, got, want)
		}

		before = fault.Stats()
		if err := fs.Sync("/s"); err != nil {
			t.Fatal(err)
		}
		sync := opDelta(fault, before)

		if err := fs.SemDir("/p", "pear"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := fs.Symlink(fmt.Sprintf("/docs/d%03d.txt", i), fmt.Sprintf("/p/l%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		before = fault.Stats()
		if err := fs.Sync("/p"); err != nil {
			t.Fatal(err)
		}
		calls[n] = [3]map[string]uint64{semdir, sync, opDelta(fault, before)}
	}
	if !reflect.DeepEqual(calls[10], calls[300]) {
		t.Fatalf("substrate calls grow with N: SemDir, Sync and Sync of permanent links made %v at N=10, %v at N=300", calls[10], calls[300])
	}
	// The commit names no link, so it lists nothing: the SemDir resolves
	// and makes its directory, and the first listing names the links.
	if want := map[string]uint64{"lstat": 3, "mkdir": 1}; !reflect.DeepEqual(calls[300][0], want) {
		t.Fatalf("SemDir made %v substrate calls, want %v", calls[300][0], want)
	}
}

// TestSemDirAllocs pins what a SemDir allocates as its result grows:
// from N = 300 to N = 3 000 matches only the target list grows — the
// paths of the result, which the commit keeps as the transient set, and
// the sets that chose them — with no per-link name state: no name
// index, no name, no listing of the directory.
func TestSemDirAllocs(t *testing.T) {
	type cost struct{ allocs, bytes float64 }
	measure := func(n int) cost {
		fs := New(cas.New(nil), Options{})
		if err := fs.MkdirAll("/docs"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/docs/d%04d.txt", i), []byte("apple")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fs.Reindex("/"); err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var c cost
		var before, after runtime.MemStats
		for i := 0; i <= runs; i++ { // the first run warms up
			dir := fmt.Sprintf("/s%d", i)
			runtime.ReadMemStats(&before)
			err := fs.SemDir(dir, "apple")
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				c.allocs += float64(after.Mallocs-before.Mallocs) / runs
				c.bytes += float64(after.TotalAlloc-before.TotalAlloc) / runs
			}
			if err := fs.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	small, large := measure(300), measure(3000)
	t.Logf("SemDir at 300 matches: %+v; at 3 000: %+v", small, large)
	const slack = 4 // a set changing representation as it grows
	if d := large.allocs - small.allocs; d > slack {
		t.Errorf("SemDir allocates %.0f times at 3 000 matches, %.0f at 300", large.allocs, small.allocs)
	}
	// A path in the transient set is a 16-byte string header; the result
	// sets cost a few bytes more per match.
	const perMatch = 24
	if d := (large.bytes - small.bytes) / 2700; d > perMatch {
		t.Errorf("SemDir allocates %.1f B per extra match, want at most %d: per-link state is back", d, perMatch)
	}
}

// TestRepairNameCollision: /s links /a/x.txt permanently as x.txt, and
// /b/x.txt starts matching. The permanent link keeps reserving its name:
// the add names /b/x.txt x.txt~2 — not a second target recorded under
// x.txt — and settled passes leave both links as they are.
func TestRepairNameCollision(t *testing.T) {
	for _, sub := range mcSubstrates {
		t.Run(sub.name, func(t *testing.T) {
			fault := vfs.NewFaultFS(sub.mk(), vfs.FaultConfig{})
			fs := New(fault, Options{})
			for p, content := range map[string]string{"/a/x.txt": "apple", "/b/x.txt": "pear"} {
				if err := fs.MkdirAll(vfs.Dir(p)); err != nil {
					t.Fatal(err)
				}
				if err := fs.WriteFile(p, []byte(content)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := fs.Reindex("/"); err != nil {
				t.Fatal(err)
			}
			if err := fs.SemDir("/s", "apple"); err != nil {
				t.Fatal(err)
			}
			if err := fs.MarkPermanent("/s", "/a/x.txt"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/b/x.txt", []byte("apple")); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Reindex("/"); err != nil {
				t.Fatal(err)
			}
			want := []Link{
				{Name: "x.txt", Target: "/a/x.txt", Class: Permanent},
				{Name: "x.txt~2", Target: "/b/x.txt", Class: Transient},
			}
			for pass := 0; pass < 2; pass++ {
				before := fault.Stats()
				if err := fs.Sync("/s"); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if d := opDelta(fault, before); d["symlink"]+d["remove"] != 0 {
					t.Fatalf("pass %d: a settled Sync rewrote links: %v", pass, d)
				}
				if links, _ := fs.Links("/s"); !reflect.DeepEqual(links, want) {
					t.Fatalf("pass %d: links = %+v, want %+v", pass, links, want)
				}
				for _, l := range want {
					if got, err := fs.Readlink(vfs.Join("/s", l.Name)); err != nil || got != l.Target {
						t.Fatalf("pass %d: /s/%s -> %q, %v; want %s", pass, l.Name, got, err, l.Target)
					}
				}
				if problems := fs.CheckConsistency(); len(problems) != 0 {
					t.Fatalf("pass %d: %v", pass, problems)
				}
			}
		})
	}
}

// BenchmarkSemDirThenList times a SemDir over 1 000 matches in two
// directories whose files share base names, alone and followed by the
// first ReadDir of the new directory, which names its links. The
// directory is removed, untimed, after each.
func BenchmarkSemDirThenList(b *testing.B) {
	fs := New(cas.New(nil), Options{})
	for _, d := range []string{"/x", "/y"} {
		if err := fs.MkdirAll(d); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if err := fs.WriteFile(fmt.Sprintf("%s/d%03d.txt", d, i), []byte("apple")); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		b.Fatal(err)
	}
	for _, list := range []bool{false, true} {
		name := "semdir"
		if list {
			name = "semdir+readdir"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fs.SemDir("/s", "apple"); err != nil {
					b.Fatal(err)
				}
				if list {
					if entries, err := fs.ReadDir("/s"); err != nil || len(entries) != 1000 {
						b.Fatalf("ReadDir: %d entries, %v", len(entries), err)
					}
				}
				b.StopTimer()
				if err := fs.RemoveAll("/s"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
