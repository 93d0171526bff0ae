package hac

import (
	"fmt"
	"reflect"
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
// N = 10, and so does a clean Sync — of that directory, and of one
// holding N permanent links.
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
