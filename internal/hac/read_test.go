package hac

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// depth8 builds a HAC volume over cas.FS holding one file eight
// components deep, and returns the volume and the file's path.
func depth8(tb testing.TB) (*FS, string) { return depth8On(tb, cas.New(nil)) }

// depth8On is depth8 over the substrate under.
func depth8On(tb testing.TB, under vfs.FileSystem) (*FS, string) {
	tb.Helper()
	fs := New(under, Options{})
	if err := fs.MkdirAll("/a/b/c/d/e/f/g"); err != nil {
		tb.Fatal(err)
	}
	p := "/a/b/c/d/e/f/g/h.txt"
	if err := fs.WriteFile(p, []byte("apple banana cherry")); err != nil {
		tb.Fatal(err)
	}
	return fs, p
}

// TestReadPathAllocs pins the read path's allocations: a depth-8
// ReadFile through HAC allocates the content, the substrate's handle and
// the tracked handle, and nothing per path component — no HAC-side prefix
// walk, no component split in cas.FS.
func TestReadPathAllocs(t *testing.T) {
	fs, p := depth8(t)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := fs.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("hac.FS.ReadFile at depth 8: %v allocations, want <= 4", got)
	}
}

func BenchmarkReadFileDepth8(b *testing.B) {
	fs, p := depth8(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fs.ReadFile(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestResolveSubstrateCalls pins what resolving a path costs the
// substrate: a Stat of an existing file is the substrate's one Lstat; a
// create walks the directory part once, one Lstat per directory, to find
// the semantic directory it may land in; and that walk, on a path with no
// link, allocates nothing.
func TestResolveSubstrateCalls(t *testing.T) {
	fault := vfs.NewFaultFS(cas.New(nil), vfs.FaultConfig{})
	fs, p := depth8On(t, fault)

	before := fault.Stats()
	if _, err := fs.Stat(p); err != nil {
		t.Fatal(err)
	}
	if got, want := opDelta(fault, before), map[string]uint64{"lstat": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("depth-8 Stat made %v substrate calls, want %v", got, want)
	}

	before = fault.Stats()
	f, err := fs.OpenFile("/a/b/c/d/e/f/g/new.txt", vfs.OWrite|vfs.OCreate|vfs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	got := opDelta(fault, before)
	f.Close()
	if want := map[string]uint64{"lstat": 7, "open": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("depth-8 create made %v substrate calls, want %v", got, want)
	}

	fs, p = depth8(t)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var end walkEnd
	if n := testing.AllocsPerRun(100, func() { end, err = fs.resolveLocked(p, true) }); err != nil || n != 0 {
		t.Errorf("link-free walk of a depth-8 path: %v allocations (err %v), want 0", n, err)
	}
	if end.path != p || end.viaView {
		t.Errorf("link-free walk reached %+v, want %s", end, p)
	}
	var canon string
	if n := testing.AllocsPerRun(100, func() { canon, err = fs.canonicalLocked(p) }); err != nil || n != 0 || canon != p {
		t.Errorf("canonical path of a link-free depth-8 path: %q, %v allocations (err %v), want itself and 0", canon, n, err)
	}
}

// TestReindexSubstrateCalls pins what a reindex pass costs the
// substrate (DESIGN.md §7): over an unchanged tree, one ReadDir per
// directory and one Lstat, of the root; a k-file edit adds the k files'
// reads and nothing per unchanged file.
func TestReindexSubstrateCalls(t *testing.T) {
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	under := cas.New(nil)
	under.SetClock(func() time.Time { return clock })
	fault := vfs.NewFaultFS(under, vfs.FaultConfig{})
	fs := New(fault, Options{})
	dirs := 1 // the root
	for d := 0; d < 4; d++ {
		for _, dir := range []string{fmt.Sprintf("/d%d", d), fmt.Sprintf("/d%d/sub", d)} {
			if err := fs.MkdirAll(dir); err != nil {
				t.Fatal(err)
			}
			dirs++
			for f := 0; f < 5; f++ {
				if err := fs.WriteFile(fmt.Sprintf("%s/f%d.txt", dir, f), []byte("apple pie")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}

	before := fault.Stats()
	if rep, err := fs.Reindex("/"); err != nil || rep != (IndexReport{}) {
		t.Fatalf("unchanged tree: Reindex = %+v, %v; want no change", rep, err)
	}
	want := map[string]uint64{"readdir": uint64(dirs), "lstat": 1}
	if got := opDelta(fault, before); !reflect.DeepEqual(got, want) {
		t.Errorf("reindex of an unchanged tree of %d directories made %v substrate calls, want %v", dirs, got, want)
	}

	clock = clock.Add(time.Minute)
	edited := []string{"/d0/f1.txt", "/d2/sub/f3.txt", "/d3/f0.txt"}
	for _, p := range edited {
		if err := under.WriteFile(p, []byte("apple crumble")); err != nil {
			t.Fatal(err)
		}
	}
	before = fault.Stats()
	if rep, err := fs.Reindex("/"); err != nil || rep.Updated != len(edited) {
		t.Fatalf("%d edits: Reindex = %+v, %v", len(edited), rep, err)
	}
	k := uint64(len(edited))
	want = map[string]uint64{"readdir": uint64(dirs), "lstat": 1, "open": k, "fread": k}
	if got := opDelta(fault, before); !reflect.DeepEqual(got, want) {
		t.Errorf("reindex after %d edits made %v substrate calls, want %v", k, got, want)
	}
}

// BenchmarkReindexPass times a reindex pass over 400 directories of 25
// files on cas.FS: with nothing to do, and after 1 % of the files
// changed behind HAC's back.
func BenchmarkReindexPass(b *testing.B) {
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	under := cas.New(nil)
	under.SetClock(func() time.Time { return clock })
	fs := New(under, Options{})
	var files []string
	for d := 0; d < 400; d++ {
		dir := fmt.Sprintf("/db/g%d/d%d", d/20, d)
		if err := fs.MkdirAll(dir); err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 25; f++ {
			p := fmt.Sprintf("%s/f%d.txt", dir, f)
			if err := fs.WriteFile(p, []byte(fmt.Sprintf("apple banana w%d w%d", d, f))); err != nil {
				b.Fatal(err)
			}
			files = append(files, p)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		b.Fatal(err)
	}
	b.Run("unchanged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fs.Reindex("/"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dirty-1pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clock = clock.Add(time.Second)
			for j := i % 100; j < len(files); j += 100 {
				if err := under.WriteFile(files[j], []byte("apple cherry")); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if _, err := fs.Reindex("/"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
