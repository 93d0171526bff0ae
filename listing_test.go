package hacfs_test

import (
	"net"
	"testing"

	"hacfs/internal/baseline"
	"hacfs/internal/hac"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// TestReadDirEntriesAreLstat checks the listing contract every
// vfs.FileSystem keeps and vfs.Walk relies on: ReadDir returns its
// entries in name order, and each entry equals Lstat of the child —
// files (one with an open, unsealed write), directories, symlinks
// (absolute, relative, dangling), mount points, a Jade graft point, and
// a semantic directory's view links, also listed through a symlinked
// path.
func TestReadDirEntriesAreLstat(t *testing.T) {
	withMount := func(host interface {
		vfs.FileSystem
		Mount(string, vfs.FileSystem) error
	}, mounted vfs.FileSystem) vfs.FileSystem {
		fillTree(t, mounted)
		fillTree(t, host)
		if err := host.MkdirAll("/mnt"); err != nil {
			t.Fatal(err)
		}
		if err := host.Mount("/mnt", mounted); err != nil {
			t.Fatal(err)
		}
		return host
	}
	newHAC := func() vfs.FileSystem {
		fs := hac.New(cas.New(nil), hac.Options{})
		fillTree(t, fs)
		if _, err := fs.Reindex("/"); err != nil {
			t.Fatal(err)
		}
		if err := fs.SemDir("/sem", "apple"); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/sem/own.txt", []byte("cherry")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Symlink("/sem", "/alias"); err != nil {
			t.Fatal(err)
		}
		if targets, err := fs.LinkTargets("/sem"); err != nil || len(targets) == 0 {
			t.Fatalf("/sem links %v, %v; want the apple files", targets, err)
		}
		return fs
	}
	subjects := []struct {
		name string
		mk   func() vfs.FileSystem
	}{
		{"memfs", func() vfs.FileSystem { return withMount(vfs.New(), cas.New(nil)) }},
		{"cas", func() vfs.FileSystem { return withMount(cas.New(nil), vfs.New()) }},
		{"hac", newHAC},
		{"faultfs", func() vfs.FileSystem {
			fs := vfs.NewFaultFS(cas.New(nil), vfs.FaultConfig{Seed: 1})
			fillTree(t, fs)
			return fs
		}},
		{"remotefs", func() vfs.FileSystem {
			srv := remotefs.NewServer(newHAC(), nil)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(l)
			c := remotefs.DialMux(l.Addr().String())
			t.Cleanup(func() {
				c.Close()
				srv.Close()
			})
			return c
		}},
		{"jade", func() vfs.FileSystem {
			fs := baseline.NewJade(cas.New(nil))
			fillTree(t, fs)
			// A graft point lists its graft, as the names in it resolve.
			if err := fs.Mkdir("/graft"); err != nil {
				t.Fatal(err)
			}
			fs.Graft("/graft", "/a")
			if _, err := fs.Lstat("/graft/x.txt"); err != nil {
				t.Fatal(err)
			}
			if entries, err := fs.ReadDir("/graft"); err != nil || len(entries) == 0 {
				t.Fatalf("ReadDir(/graft) = %v, %v; want /a's entries, which Lstat finds under it", entries, err)
			}
			return fs
		}},
		{"pseudo", func() vfs.FileSystem {
			fs := baseline.NewPseudo(cas.New(nil))
			t.Cleanup(fs.Close)
			fillTree(t, fs)
			return fs
		}},
	}
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			fsys := sub.mk()
			if _, isClient := fsys.(*remotefs.MuxClient); !isClient {
				// A write in progress: its size is the unsealed buffer's.
				f, err := fsys.OpenFile("/a/open.txt", vfs.OWrite|vfs.OCreate)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("half written")); err != nil {
					t.Fatal(err)
				}
				defer f.Close()
			}
			dirs := checkListings(t, fsys, "/")
			if _, err := fsys.Lstat("/alias"); err == nil {
				dirs += checkListings(t, fsys, "/alias")
			}
			if dirs < 5 {
				t.Fatalf("checked %d directories, want the whole tree", dirs)
			}
		})
	}
}

// fillTree writes the tree every subject of TestReadDirEntriesAreLstat
// lists.
func fillTree(t *testing.T, fsys vfs.FileSystem) {
	t.Helper()
	for _, d := range []string{"/a/b/c", "/empty"} {
		if err := fsys.MkdirAll(d); err != nil {
			t.Fatal(err)
		}
	}
	for p, content := range map[string]string{
		"/top.txt":       "apple",
		"/a/x.txt":       "apple pie",
		"/a/b/y.txt":     "banana bread and apple",
		"/a/b/c/z.txt":   "",
		"/a/b/c/zz.data": "zucchini",
	} {
		if err := fsys.WriteFile(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	for link, target := range map[string]string{
		"/a/abs":    "/a/x.txt",
		"/a/rel":    "b/y.txt",
		"/dangling": "/nowhere",
		"/a/b/up":   "/a",
	} {
		if err := fsys.Symlink(target, link); err != nil {
			t.Fatal(err)
		}
	}
}

// checkListings lists dir and every directory beneath it, without
// following symlinks, checking each listing against Lstat. It returns
// how many directories it listed.
func checkListings(t *testing.T, fsys vfs.FileSystem, dir string) int {
	t.Helper()
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	n := 1
	for i, e := range entries {
		if i > 0 && entries[i-1].Name >= e.Name {
			t.Errorf("ReadDir(%s): %q listed after %q, want strict name order", dir, e.Name, entries[i-1].Name)
		}
		p := vfs.Join(dir, e.Name)
		want, err := fsys.Lstat(p)
		if err != nil {
			t.Errorf("Lstat(%s) of a listed entry: %v", p, err)
			continue
		}
		if e.Name != want.Name || e.Ino != want.Ino || e.Type != want.Type || e.Size != want.Size ||
			e.Target != want.Target || !e.ModTime.Equal(want.ModTime) {
			t.Errorf("ReadDir(%s) entry %+v, Lstat(%s) %+v; want them equal", dir, e, p, want)
		}
		if e.Type == vfs.TypeDir {
			n += checkListings(t, fsys, p)
		}
	}
	return n
}
