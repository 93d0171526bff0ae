package hac

import (
	"reflect"
	"testing"

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
