package cas

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hacfs/internal/vfs"
)

// dump serializes the user-visible state of a file system: every path
// with its kind, content or target, in sorted order. Used to compare
// cas.FS against the model-verified MemFS oracle.
func dump(t *testing.T, fsys vfs.FileSystem) string {
	t.Helper()
	var b bytes.Buffer
	var visit func(dir string)
	visit = func(dir string) {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			t.Fatalf("dump readdir %s: %v", dir, err)
		}
		for _, e := range ents {
			p := vfs.Join(dir, e.Name)
			switch e.Type {
			case vfs.TypeDir:
				fmt.Fprintf(&b, "d %s\n", p)
				visit(p)
			case vfs.TypeSymlink:
				tgt, err := fsys.Readlink(p)
				if err != nil {
					t.Fatalf("dump readlink %s: %v", p, err)
				}
				fmt.Fprintf(&b, "l %s -> %s\n", p, tgt)
			case vfs.TypeFile:
				data, err := fsys.ReadFile(p)
				if err != nil {
					t.Fatalf("dump read %s: %v", p, err)
				}
				fmt.Fprintf(&b, "f %s %q\n", p, data)
			}
		}
	}
	visit("/")
	return b.String()
}

// TestEquivalenceWithMemFS drives a long randomized operation sequence
// against MemFS (itself verified against a reference model) and cas.FS
// in lockstep, requiring identical success/failure on every step and
// identical trees afterwards. Periodic Snapshot/Clone calls on the cas
// side exercise copy-on-write under the same comparison.
//
// The links/ runs stress path resolution: deeper paths, symlinks with
// absolute and relative targets at intermediate and final components
// (dangling ones, and loops), files in the middle of a path, a mounted
// subtree at /m, and the read-only calls — Lstat, ReadDir, Open+Read —
// besides the rest.
func TestEquivalenceWithMemFS(t *testing.T) {
	basic := equivalenceConfig{
		ops:   12,
		paths: []string{"/a", "/b", "/a/x", "/a/y", "/b/z", "/a/x/deep", "/c", "/a/x/q"},
	}
	links := equivalenceConfig{
		ops: 16,
		paths: []string{
			"/a", "/b", "/a/x", "/a/y", "/b/z", "/a/x/deep", "/c", "/a/x/q",
			"/l", "/a/l", "/l/x", "/a/l/deep", "/a/x/l/q", "/a/y/f", "/l/x/q",
			"/m", "/m/x", "/m/x/deep", "/m/l", "/m/l/q",
		},
		targets: []string{
			"x", "x/deep", "l", "l/x", "a/x", "m/x", "y", "../b", ".", "x//q",
			"nowhere", "nowhere/x", "/nowhere", "/a/x/", "/", "/m", "/l",
		},
		mount: true,
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runEquivalence(t, seed, basic) })
		t.Run(fmt.Sprintf("links/seed%d", seed), func(t *testing.T) { runEquivalence(t, seed, links) })
	}
}

// equivalenceConfig shapes one TestEquivalenceWithMemFS run: how many
// of apply's operations it draws from, its paths, the extra symlink
// targets operation 14 (a Symlink) draws from, and whether /m is a mount
// point.
type equivalenceConfig struct {
	ops     int
	paths   []string
	targets []string
	mount   bool
}

func runEquivalence(t *testing.T, seed int64, cfg equivalenceConfig) {
	rng := rand.New(rand.NewSource(seed))
	mem := vfs.New()
	cfs := New(nil)
	var snaps []*Snap
	var casMount vfs.FileSystem // what cas.FS mounts at /m; a clone mounts it again
	if cfg.mount {
		for _, fsys := range []vfs.FileSystem{mem, cfs} {
			if err := fsys.Mkdir("/m"); err != nil {
				t.Fatal(err)
			}
		}
		if err := mem.Mount("/m", vfs.New()); err != nil {
			t.Fatal(err)
		}
		casMount = vfs.New()
		if err := cfs.Mount("/m", casMount); err != nil {
			t.Fatal(err)
		}
	}

	randPath := func() string { return cfg.paths[rng.Intn(len(cfg.paths))] }

	type result struct {
		err  error
		data []byte
		str  string
	}
	apply := func(fsys vfs.FileSystem, op int, p, p2, content string) result {
		switch op {
		case 0:
			return result{err: fsys.Mkdir(p)}
		case 1:
			return result{err: fsys.MkdirAll(p)}
		case 2:
			return result{err: fsys.WriteFile(p, []byte(content))}
		case 3:
			d, err := fsys.ReadFile(p)
			return result{err: err, data: d}
		case 4:
			return result{err: fsys.Symlink(p2, p)}
		case 5:
			s, err := fsys.Readlink(p)
			return result{err: err, str: s}
		case 6:
			return result{err: fsys.Remove(p)}
		case 7:
			return result{err: fsys.RemoveAll(p)}
		case 8:
			return result{err: fsys.Rename(p, p2)}
		case 9:
			inf, err := fsys.Stat(p)
			if err != nil {
				return result{err: err}
			}
			return result{str: fmt.Sprintf("%s/%v/%d", inf.Name, inf.Type, inf.Size)}
		case 10:
			inf, err := fsys.Lstat(p)
			if err != nil {
				return result{err: err}
			}
			return result{str: fmt.Sprintf("%s/%v/%d/%s", inf.Name, inf.Type, inf.Size, inf.Target)}
		case 11: // handle-based write session
			f, err := fsys.OpenFile(p, vfs.ORead|vfs.OWrite|vfs.OCreate)
			if err != nil {
				return result{err: err}
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				f.Close()
				return result{err: err}
			}
			if _, err := f.Write([]byte(content)); err != nil {
				f.Close()
				return result{err: err}
			}
			if err := f.Truncate(int64(len(content))); err != nil {
				f.Close()
				return result{err: err}
			}
			return result{err: f.Close()}
		case 12:
			ents, err := fsys.ReadDir(p)
			var b bytes.Buffer
			for _, e := range ents {
				fmt.Fprintf(&b, "%s/%v ", e.Name, e.Type)
			}
			return result{err: err, str: b.String()}
		case 13: // read-only open
			f, err := fsys.Open(p)
			if err != nil {
				return result{err: err}
			}
			d, err := io.ReadAll(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return result{err: err, data: d}
		case 15: // mount and unmount resolve the path literally
			if err := fsys.(interface {
				Mount(string, vfs.FileSystem) error
			}).Mount(p, vfs.New()); err != nil {
				return result{err: err}
			}
			return result{err: fsys.(interface{ Unmount(string) error }).Unmount(p)}
		default:
			panic("bad op")
		}
	}

	for step := 0; step < 1500; step++ {
		op := rng.Intn(cfg.ops)
		p, p2 := randPath(), randPath()
		content := fmt.Sprintf("content-%d-%d", rng.Intn(5), step%7)
		if op == 14 {
			// A symlink whose target is not one of the paths.
			op, p2 = 4, cfg.targets[rng.Intn(len(cfg.targets))]
		}
		mr := apply(mem, op, p, p2, content)
		cr := apply(cfs, op, p, p2, content)
		if (mr.err == nil) != (cr.err == nil) {
			t.Fatalf("step %d op %d %s %s: memfs err %v, cas err %v", step, op, p, p2, mr.err, cr.err)
		}
		if mr.err != nil {
			// Same sentinel class.
			for _, sentinel := range []error{
				vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir,
				vfs.ErrNotEmpty, vfs.ErrInvalid, vfs.ErrLoop,
				vfs.ErrBusy, vfs.ErrCrossMount,
			} {
				if errors.Is(mr.err, sentinel) != errors.Is(cr.err, sentinel) {
					t.Fatalf("step %d op %d %s: memfs %v vs cas %v (sentinel %v)", step, op, p, mr.err, cr.err, sentinel)
				}
			}
		}
		if !bytes.Equal(mr.data, cr.data) || mr.str != cr.str {
			t.Fatalf("step %d op %d %s: memfs (%q,%q) vs cas (%q,%q)", step, op, p, mr.data, mr.str, cr.data, cr.str)
		}
		// Periodically seal: results before and after must match
		// MemFS exactly (sealing is invisible to the API).
		if step%97 == 13 {
			snaps = append(snaps, cfs.Snapshot())
		}
		if step%211 == 37 {
			// A clone does not carry its source's mounts.
			cfs = cfs.Clone()
			if cfg.mount {
				if err := cfs.Mount("/m", casMount); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%127 == 0 {
			if d1, d2 := dump(t, mem), dump(t, cfs); d1 != d2 {
				t.Fatalf("step %d: trees diverge\nmemfs:\n%s\ncas:\n%s", step, d1, d2)
			}
		}
	}
	if d1, d2 := dump(t, mem), dump(t, cfs); d1 != d2 {
		t.Fatalf("final trees diverge\nmemfs:\n%s\ncas:\n%s", d1, d2)
	}
	_ = snaps
}

// TestWalkAllocs pins that resolving a path allocates nothing when no
// symlink is followed: the walker reads the clean path's components in
// place, and a read records no trail.
func TestWalkAllocs(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/a/b/c/d/e/f/g"); err != nil {
		t.Fatal(err)
	}
	const p = "/a/b/c/d/e/f/g/h"
	if err := fs.WriteFile(p, []byte("eight deep")); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"Lstat": func() error { _, err := fs.Lstat(p); return err },
		"Stat":  func() error { _, err := fs.Stat(p); return err },
	} {
		var err error
		if n := testing.AllocsPerRun(100, func() { err = call() }); err != nil || n != 0 {
			t.Errorf("%s of a depth-8 path: %v allocations (err %v), want 0", name, n, err)
		}
	}
}

// TestConcurrentReadsAndMutations races read-only opens and reads, which
// walk under the shared lock, against WriteFile, Rename and RemoveAll of
// the same paths and seals that make the next mutation copy its path.
// Meant for -race: every ReadFile and every read through a handle sees
// one whole written value or a clean error — a handle open on a file that
// is removed or renamed over still reads its bytes.
func TestConcurrentReadsAndMutations(t *testing.T) {
	fs := New(nil)
	paths := []string{"/d/f", "/d/g", "/d/sub/f"}
	value := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i%10)) }
	expected := func(err error) bool {
		return errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrNotDir) || errors.Is(err, vfs.ErrIsDir)
	}
	checkData := func(op, p string, data []byte, err error) {
		switch {
		case err != nil && !expected(err):
			t.Errorf("%s %s: %v", op, p, err)
		case err == nil && (len(data) != len("value-0") || !bytes.HasPrefix(data, []byte("value-"))):
			t.Errorf("%s %s: read %q, not a whole written value", op, p, data)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[i%len(paths)]
				if f, err := fs.Open(p); err != nil {
					checkData("open", p, nil, err)
				} else {
					data, err := io.ReadAll(f)
					checkData("read", p, data, err)
					if err := f.Close(); err != nil {
						t.Errorf("close %s: %v", p, err)
					}
				}
				data, err := fs.ReadFile(p)
				checkData("readfile", p, data, err)
				if _, err := fs.Stat(p); err != nil && !expected(err) {
					t.Errorf("stat %s: %v", p, err)
				}
				if _, err := fs.Lstat(p); err != nil && !expected(err) {
					t.Errorf("lstat %s: %v", p, err)
				}
				if _, err := fs.ReadDir("/d"); err != nil && !expected(err) {
					t.Errorf("readdir /d: %v", err)
				}
			}
		}(r)
	}
	for i := 0; i < 2000; i++ {
		var err error
		switch i % 6 {
		case 0:
			err = fs.MkdirAll("/d/sub")
		case 1, 2:
			err = fs.WriteFile(paths[i%len(paths)], value(i))
		case 3:
			err = fs.Rename("/d/f", "/d/g")
		case 4:
			if i%24 == 4 {
				err = fs.RemoveAll("/d")
			}
		case 5:
			fs.Snapshot()
		}
		if err != nil && !expected(err) {
			t.Errorf("step %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestOpenHandleKeepsUnlinkedContent: a handle open on a file that is
// removed, or renamed or removed over, reads the file's bytes in full, as
// on MemFS and POSIX. The store holds them once however many handles
// share them, and lets them go at the last Close.
func TestOpenHandleKeepsUnlinkedContent(t *testing.T) {
	old := []byte("the old bytes, all of them")
	for name, unlink := range map[string]func(fs *FS) error{
		"remove":      func(fs *FS) error { return fs.Remove("/d/f") },
		"removeall":   func(fs *FS) error { return fs.RemoveAll("/d") },
		"rename over": func(fs *FS) error { return fs.Rename("/e/g", "/d/f") },
	} {
		t.Run(name, func(t *testing.T) {
			fs := New(nil)
			if err := fs.MkdirAll("/d"); err != nil {
				t.Fatal(err)
			}
			if err := fs.MkdirAll("/e"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/e/g", []byte("new")); err != nil {
				t.Fatal(err)
			}
			store := fs.Store()
			without := store.UniqueBytes()
			if err := fs.WriteFile("/d/f", old); err != nil {
				t.Fatal(err)
			}
			var handles []vfs.File
			for i := 0; i < 2; i++ {
				f, err := fs.Open("/d/f")
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, f)
			}
			if err := unlink(fs); err != nil {
				t.Fatal(err)
			}
			if got, want := store.UniqueBytes(), without+int64(len(old)); got != want {
				t.Errorf("unique bytes with the file unlinked and open twice = %d, want %d", got, want)
			}
			for i, f := range handles {
				if data, err := io.ReadAll(f); err != nil || !bytes.Equal(data, old) {
					t.Errorf("handle %d read %q, %v; want %q", i, data, err, old)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := store.UniqueBytes(); got != without {
				t.Errorf("unique bytes after the last Close = %d, want %d", got, without)
			}
		})
	}
	t.Run("written after remove", func(t *testing.T) {
		fs := New(nil)
		without := fs.Store().UniqueBytes()
		if err := fs.WriteFile("/f", old); err != nil {
			t.Fatal(err)
		}
		f, err := fs.OpenFile("/f", vfs.ORead|vfs.OWrite|vfs.OAppend)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("/f"); err != nil {
			t.Fatal(err)
		}
		fs.Snapshot()
		if _, err := f.Write([]byte(", and more")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, _ := f.ReadAt(buf, 0)
		if want := string(old) + ", and more"; string(buf[:n]) != want {
			t.Errorf("read back %q, want %q", buf[:n], want)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fs.Store().UniqueBytes(); got != without {
			t.Errorf("unique bytes after Close = %d, want %d", got, without)
		}
	})
}

// TestSnapshotIsolation verifies that a sealed snapshot is immutable
// under later writes, and that Restore rewinds precisely to it.
func TestSnapshotIsolation(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/docs/a", "/docs/ln"); err != nil {
		t.Fatal(err)
	}
	before := dump(t, fs)
	snap := fs.Snapshot()

	// Mutate heavily after the seal.
	if err := fs.WriteFile("/docs/a", []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/b", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/docs/ln"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/docs/a", "/docs/a2"); err != nil {
		t.Fatal(err)
	}

	if err := fs.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if after := dump(t, fs); after != before {
		t.Fatalf("restore did not rewind:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if got, _ := fs.ReadFile("/docs/a"); string(got) != "alpha" {
		t.Fatalf("restored content = %q", got)
	}
}

// TestCloneIndependence verifies clones diverge copy-on-write without
// affecting each other, while sharing one store.
func TestCloneIndependence(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/f", []byte("shared")); err != nil {
		t.Fatal(err)
	}
	c := fs.Clone()
	if fs.Store() != c.Store() {
		t.Fatal("clone must share the store")
	}
	if err := c.WriteFile("/d/f", []byte("clone-side")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/g", []byte("src-side")); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/d/f"); string(got) != "shared" {
		t.Fatalf("source sees clone's write: %q", got)
	}
	if _, err := c.ReadFile("/d/g"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("clone sees source's new file: %v", err)
	}
}

// TestDedupAccounting checks the refcount and unique-byte rules:
// identical content across files costs one blob; overwrite and remove
// release the overlay's references.
func TestDedupAccounting(t *testing.T) {
	store := NewStore()
	fs := New(store)
	payload := bytes.Repeat([]byte("x"), 1000)
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.UniqueBytes(); got != 1000 {
		t.Fatalf("unique bytes = %d, want 1000", got)
	}
	if got := store.LogicalBytes(); got != 10000 {
		t.Fatalf("logical bytes = %d, want 10000", got)
	}
	if r := store.DedupRatio(); r != 10 {
		t.Fatalf("dedup ratio = %v, want 10", r)
	}
	// Removing 9 of 10 references keeps the blob; removing the last
	// frees it.
	for i := 0; i < 9; i++ {
		if err := fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.UniqueBytes(); got != 1000 {
		t.Fatalf("unique bytes after 9 removes = %d, want 1000", got)
	}
	if err := fs.Remove("/f9"); err != nil {
		t.Fatal(err)
	}
	if got := store.UniqueBytes(); got != 0 {
		t.Fatalf("unique bytes after all removes = %d, want 0", got)
	}
	if got := store.Blobs(); got != 0 {
		t.Fatalf("blobs = %d, want 0", got)
	}

	// Overwrite releases the old content's reference.
	if err := fs.WriteFile("/w", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/w", []byte("second!")); err != nil {
		t.Fatal(err)
	}
	if got := store.UniqueBytes(); got != int64(len("second!")) {
		t.Fatalf("unique bytes after overwrite = %d", got)
	}

	// Content pinned by a snapshot survives overlay removal.
	_ = fs.Snapshot()
	if err := fs.Remove("/w"); err != nil {
		t.Fatal(err)
	}
	if got := store.UniqueBytes(); got != int64(len("second!")) {
		t.Fatalf("snapshot-pinned content freed: unique=%d", got)
	}
}

// TestReclaimable checks the predicted free against what overwriting
// actually returns to the store.
func TestReclaimable(t *testing.T) {
	store := NewStore()
	fs := New(store)
	if err := fs.WriteFile("/pinned", []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	h, err := fs.OpenFile("/pinned", vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	_ = fs.Snapshot()
	for p, data := range map[string]string{"/own": "only here", "/a": "shared", "/b": "shared"} {
		if err := fs.WriteFile(p, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Symlink("/own", "/link"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want int64
	}{
		{"/own", 9}, {"/link", 9}, // sole reference, through a symlink too
		{"/a", 0},      // /b still holds the blob
		{"/pinned", 0}, // the snapshot holds it
		{"/missing", 0}, {"/", 0},
	} {
		if got := fs.Reclaimable(tc.path); got != tc.want {
			t.Errorf("Reclaimable(%s) = %d, want %d", tc.path, got, tc.want)
		}
	}
	if _, err := h.Write([]byte("x")); err != nil { // now an unsealed buffer
		t.Fatal(err)
	}
	if got := fs.Reclaimable("/pinned"); got != 0 {
		t.Errorf("Reclaimable of a buffered file = %d, want 0", got)
	}
	for _, p := range []string{"/own", "/a"} {
		want := fs.Reclaimable(p)
		data := []byte("new content of " + p)
		added, _ := store.Measured(func() error { return fs.WriteFile(p, data) })
		if freed := int64(len(data)) - added; freed != want {
			t.Errorf("overwriting %s freed %d, Reclaimable said %d", p, freed, want)
		}
	}
}

// TestHandleAcrossSeal verifies a handle opened before a snapshot
// copy-on-writes at its next write instead of mutating the sealed base.
func TestHandleAcrossSeal(t *testing.T) {
	fs := New(nil)
	if err := fs.WriteFile("/f", []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile("/f", vfs.ORead|vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	snap := fs.Snapshot()
	if _, err := f.WriteAt([]byte("SEALED"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/f"); string(got) != "SEALED" {
		t.Fatalf("live tree = %q", got)
	}
	if err := fs.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/f"); string(got) != "sealed" {
		t.Fatalf("snapshot was mutated through the handle: %q", got)
	}
}

// TestManifestRoundTrip checks Manifest → FromManifest reproduces the
// tree exactly, and ReplaceWithManifest swaps a live tree.
func TestManifestRoundTrip(t *testing.T) {
	fs := New(nil)
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/f1", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/f2", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/a/f2", "/a/b/ln"); err != nil {
		t.Fatal(err)
	}
	m := fs.Manifest()
	if len(m.Entries) != 6 { // /, /a, /a/b, /a/b/f1, /a/b/ln, /a/f2
		t.Fatalf("manifest entries = %d, want 6", len(m.Entries))
	}
	if !sort.SliceIsSorted(m.Entries, func(i, j int) bool { return m.Entries[i].Path < m.Entries[j].Path }) {
		t.Fatal("manifest not sorted")
	}
	rebuilt, err := FromManifest(m, fs.Store())
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := dump(t, fs), dump(t, rebuilt); d1 != d2 {
		t.Fatalf("rebuilt tree diverges:\n%s\nvs\n%s", d1, d2)
	}

	other := New(fs.Store())
	if err := other.WriteFile("/old", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := other.ReplaceWithManifest(m); err != nil {
		t.Fatal(err)
	}
	if d1, d2 := dump(t, fs), dump(t, other); d1 != d2 {
		t.Fatalf("replaced tree diverges:\n%s\nvs\n%s", d1, d2)
	}

	// A manifest naming a missing blob must be refused.
	var bogus Manifest
	bogus.Entries = append(bogus.Entries, Entry{Path: "/", Type: vfs.TypeDir})
	bogus.Entries = append(bogus.Entries, Entry{Path: "/f", Type: vfs.TypeFile, Hash: Sum([]byte("never stored"))})
	if _, err := FromManifest(&bogus, NewStore()); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("missing blob: err = %v", err)
	}
}

// TestUnderFaultFS ensures cas.FS composes with FaultFS the way model
// checks use it: ops pass through, Under and Of unwrap.
func TestUnderFaultFS(t *testing.T) {
	cfs := New(nil)
	ffs := vfs.NewFaultFS(cfs, vfs.FaultConfig{})
	if err := ffs.MkdirAll("/x"); err != nil {
		t.Fatal(err)
	}
	if err := ffs.WriteFile("/x/f", []byte("through faults")); err != nil {
		t.Fatal(err)
	}
	if got, err := cfs.ReadFile("/x/f"); err != nil || string(got) != "through faults" {
		t.Fatalf("read-through: %q, %v", got, err)
	}
	if ffs.Under() != vfs.FileSystem(cfs) {
		t.Fatal("Under() must expose the cas substrate")
	}
	if Of(ffs) != cfs {
		t.Fatal("Of must unwrap the fault layer to the cas substrate")
	}
	if Of(vfs.NewFaultFS(vfs.New(), vfs.FaultConfig{})) != nil {
		t.Fatal("Of found a cas substrate under MemFS")
	}
}

// TestAppendImageNamesEveryFile: a file created or truncated and not yet
// written — closed that way, or still open — has the empty blob as its
// content in an image of the tree; AppendImage lists each distinct blob
// once, in first-appearance order, after what the caller's buffers
// held, and its manifest bytes are the encoded Manifest's.
func TestAppendImageNamesEveryFile(t *testing.T) {
	fs := New(nil)
	for p, data := range map[string]string{"/a": "x", "/b": "x", "/c": "y", "/t": "gone"} {
		if err := fs.WriteFile(p, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Create("/closed")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	open, err := fs.Create("/open")
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	trunc, err := fs.OpenFile("/t", vfs.OWrite|vfs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	defer trunc.Close()
	prior := []Blob{{Data: []byte("prior")}}
	enc, blobs, err := fs.AppendImage([]byte("prefix"), prior)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc[:6]) != "prefix" || string(blobs[0].Data) != "prior" {
		t.Fatal("AppendImage overwrote what its buffers held")
	}
	enc, blobs = enc[6:], blobs[1:]
	if want := fs.Manifest().EncodeBinary(); !bytes.Equal(enc, want) {
		t.Fatalf("image manifest is %d bytes, the encoded Manifest %d, and they differ", len(enc), len(want))
	}
	m, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, b := range blobs {
		got = append(got, fmt.Sprintf("%s=%q", b.Hash.Short(), b.Data))
	}
	var want []string // /a and /b: "x"; /c: "y"; /closed, /open and /t: empty
	for _, data := range []string{"x", "y", ""} {
		want = append(want, fmt.Sprintf("%s=%q", Sum([]byte(data)).Short(), data))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("image blobs %v, want %v", got, want)
	}
	for _, e := range m.Entries {
		if e.Type == vfs.TypeFile && e.Hash == (Hash{}) {
			t.Fatalf("%s has no content hash", e.Path)
		}
	}
}

// TestManifestInPathOrder: a name that sorts between a directory and
// what it holds ("docs.txt" between "docs" and "docs/a": '.' < '/')
// lands there in the manifest, so the encoded manifest decodes — its
// decoder requires strictly increasing paths — and an image holds the
// same bytes.
func TestManifestInPathOrder(t *testing.T) {
	fs := New(nil)
	for _, p := range []string{"/docs/a", "/docs/sub/z", "/docs.txt", "/docs-x/b", "/docs0", "/docs/sub.txt"} {
		if err := fs.MkdirAll(vfs.Dir(p)); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	m := fs.Manifest()
	var got []string
	for _, e := range m.Entries {
		got = append(got, e.Path)
	}
	want := []string{"/", "/docs", "/docs-x", "/docs-x/b", "/docs.txt", "/docs/a", "/docs/sub", "/docs/sub.txt", "/docs/sub/z", "/docs0"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("manifest order %v, want %v", got, want)
	}
	if _, err := DecodeManifest(m.EncodeBinary()); err != nil {
		t.Fatal(err)
	}
	if enc, _, err := fs.AppendImage(nil, nil); err != nil || !bytes.Equal(enc, m.EncodeBinary()) {
		t.Fatalf("image manifest differs from the encoded Manifest (%v)", err)
	}
}
