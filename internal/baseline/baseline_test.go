package baseline

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"hacfs/internal/andrew"
	"hacfs/internal/vfs"
)

// layers returns each baseline layer over a fresh substrate plus the
// substrate itself, for equivalence testing.
func layers(t *testing.T) map[string]vfs.FileSystem {
	t.Helper()
	pseudo := NewPseudo(vfs.New())
	t.Cleanup(pseudo.Close)
	return map[string]vfs.FileSystem{
		"raw":    vfs.New(),
		"jade":   NewJade(vfs.New()),
		"pseudo": pseudo,
	}
}

func TestLayersBehaveLikeRaw(t *testing.T) {
	for name, fsys := range layers(t) {
		name, fsys := name, fsys
		t.Run(name, func(t *testing.T) {
			if err := fsys.MkdirAll("/a/b"); err != nil {
				t.Fatal(err)
			}
			if err := fsys.WriteFile("/a/b/f.txt", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			data, err := fsys.ReadFile("/a/b/f.txt")
			if err != nil || string(data) != "hello" {
				t.Fatalf("ReadFile = %q, %v", data, err)
			}
			info, err := fsys.Stat("/a/b/f.txt")
			if err != nil || info.Size != 5 {
				t.Fatalf("Stat = %+v, %v", info, err)
			}
			if err := fsys.Symlink("/a/b/f.txt", "/a/ln"); err != nil {
				t.Fatal(err)
			}
			if target, err := fsys.Readlink("/a/ln"); err != nil || target != "/a/b/f.txt" {
				t.Fatalf("Readlink = %q, %v", target, err)
			}
			if err := fsys.Rename("/a/b/f.txt", "/a/b/g.txt"); err != nil {
				t.Fatal(err)
			}
			entries, err := fsys.ReadDir("/a/b")
			if err != nil || len(entries) != 1 || entries[0].Name != "g.txt" {
				t.Fatalf("ReadDir = %v, %v", entries, err)
			}
			// Handle I/O.
			f, err := fsys.Open("/a/b/g.txt")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 2)
			if n, err := f.Read(buf); err != nil || n != 2 || string(buf) != "he" {
				t.Fatalf("Read = %d %q %v", n, buf, err)
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Remove("/a/ln"); err != nil {
				t.Fatal(err)
			}
			if err := fsys.RemoveAll("/a"); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.Stat("/a"); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("Stat after RemoveAll = %v", err)
			}
		})
	}
}

func TestLayersEquivalentTreeState(t *testing.T) {
	results := map[string][]string{}
	for name, fsys := range layers(t) {
		if err := andrew.GenerateSource(fsys, "/src", andrew.Spec{Dirs: 3, FilesPerDir: 4, FileSize: 512}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := andrew.Run(fsys, "/src", "/dst", andrew.Spec{Dirs: 3, FilesPerDir: 4, FileSize: 512}); err != nil {
			t.Fatalf("%s: andrew: %v", name, err)
		}
		files, err := vfs.Files(fsys, "/")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = files
	}
	if !reflect.DeepEqual(results["raw"], results["jade"]) {
		t.Fatalf("jade diverged from raw:\n%v\nvs\n%v", results["jade"], results["raw"])
	}
	if !reflect.DeepEqual(results["raw"], results["pseudo"]) {
		t.Fatalf("pseudo diverged from raw:\n%v\nvs\n%v", results["pseudo"], results["raw"])
	}
}

func TestJadeGraft(t *testing.T) {
	under := vfs.New()
	if err := under.MkdirAll("/physical/store"); err != nil {
		t.Fatal(err)
	}
	if err := under.WriteFile("/physical/store/f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	j := NewJade(under)
	j.Graft("/logical", "/physical")
	data, err := j.ReadFile("/logical/store/f.txt")
	if err != nil || string(data) != "x" {
		t.Fatalf("grafted read = %q, %v", data, err)
	}
	// Writes through the graft land physically.
	if err := j.WriteFile("/logical/store/new.txt", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := under.Stat("/physical/store/new.txt"); err != nil {
		t.Fatalf("grafted write missing: %v", err)
	}
}

func TestJadeCacheInvalidation(t *testing.T) {
	j := NewJade(vfs.New())
	if err := j.MkdirAll("/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteFile("/d/e/f", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Stat("/d/e/f"); err != nil {
		t.Fatal(err) // resolves /d/e before the removal
	}
	if err := j.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Stat("/d/e/f"); err == nil {
		t.Fatal("stale cache let a removed path resolve")
	}
}

func TestPseudoAfterClose(t *testing.T) {
	p := NewPseudo(vfs.New())
	p.Close()
	if err := p.Mkdir("/x"); !errors.Is(err, ErrStopped) {
		t.Fatalf("op after close err = %v", err)
	}
	p.Close() // idempotent
}

func TestPseudoHandleOps(t *testing.T) {
	p := NewPseudo(vfs.New())
	defer p.Close()
	f, err := p.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("X"), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil || info.Size != 3 {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.Read(buf); err != nil || string(buf) != "aXc" {
		t.Fatalf("Read = %q, %v", buf, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Name() != "/f" {
		t.Fatalf("Name = %q", f.Name())
	}
}

func TestPseudoConcurrent(t *testing.T) {
	p := NewPseudo(vfs.New())
	defer p.Close()
	if err := p.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			for k := 0; k < 50; k++ {
				p := p
				name := "/d/f" + string(rune('a'+i))
				if err := p.WriteFile(name, []byte{byte(k)}); err != nil {
					done <- err
					return
				}
				if _, err := p.ReadFile(name); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
