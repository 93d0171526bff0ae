package remotefs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"hacfs/internal/andrew"
	"hacfs/internal/hac"
	"hacfs/internal/vfs"
)

// serve exports fsys on a loopback listener and returns a connected
// client.
func serve(t *testing.T, fsys vfs.FileSystem) *MuxClient {
	t.Helper()
	srv := NewServer(fsys, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	c := DialMux(l.Addr().String())
	c.SetTimeout(5 * time.Second)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicOpsOverWire(t *testing.T) {
	backing := vfs.New()
	c := serve(t, backing)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("/a/b/f.txt", []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadFile("/a/b/f.txt")
	if err != nil || string(data) != "over the wire" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	// The write really landed on the backing FS.
	if data, err := backing.ReadFile("/a/b/f.txt"); err != nil || string(data) != "over the wire" {
		t.Fatalf("backing = %q, %v", data, err)
	}
	info, err := c.Stat("/a/b/f.txt")
	if err != nil || info.Size != 13 {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	if err := c.Symlink("/a/b/f.txt", "/ln"); err != nil {
		t.Fatal(err)
	}
	if target, err := c.Readlink("/ln"); err != nil || target != "/a/b/f.txt" {
		t.Fatalf("Readlink = %q, %v", target, err)
	}
	li, err := c.Lstat("/ln")
	if err != nil || li.Type != vfs.TypeSymlink {
		t.Fatalf("Lstat = %+v, %v", li, err)
	}
	if err := c.Rename("/a/b/f.txt", "/a/b/g.txt"); err != nil {
		t.Fatal(err)
	}
	entries, err := c.ReadDir("/a/b")
	if err != nil || len(entries) != 1 || entries[0].Name != "g.txt" {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
	if err := c.Remove("/ln"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
}

func TestErrorSentinelsSurviveWire(t *testing.T) {
	c := serve(t, vfs.New())
	if _, err := c.ReadFile("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("ErrNotExist lost: %v", err)
	}
	if err := c.Mkdir("/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/x"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("ErrExist lost: %v", err)
	}
	if _, err := c.ReadFile("/x"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("ErrIsDir lost: %v", err)
	}
	// PathError shape preserved too.
	_, err := c.Stat("/nope")
	var pe *vfs.PathError
	if !errors.As(err, &pe) || pe.Path != "/nope" {
		t.Fatalf("PathError lost: %v", err)
	}
}

func TestHandleIO(t *testing.T) {
	c := serve(t, vfs.New())
	f, err := c.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if pos, err := f.Seek(2, io.SeekStart); err != nil || pos != 2 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	buf := make([]byte, 3)
	if n, err := f.Read(buf); err != nil || n != 3 || string(buf) != "234" {
		t.Fatalf("Read = %d %q %v", n, buf, err)
	}
	if _, err := f.WriteAt([]byte("X"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf[:1], 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if buf[0] != 'X' {
		t.Fatalf("ReadAt = %q", buf[:1])
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil || info.Size != 4 {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Operations on a closed handle fail cleanly.
	if _, err := f.Read(buf); err == nil {
		t.Fatal("read after close succeeded")
	}
	// EOF propagates.
	g, _ := c.Open("/f")
	defer g.Close()
	if _, err := g.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Read(buf); err != io.EOF {
		t.Fatalf("EOF not propagated: %v", err)
	}
}

func TestMountRemoteVolume(t *testing.T) {
	// A served volume mounted syntactically into a local tree — the §3
	// distributed mount point.
	remoteSide := vfs.New()
	if err := remoteSide.WriteFile("/shared.txt", []byte("from afar")); err != nil {
		t.Fatal(err)
	}
	c := serve(t, remoteSide)

	local := vfs.New()
	if err := local.MkdirAll("/net/peer"); err != nil {
		t.Fatal(err)
	}
	if err := local.Mount("/net/peer", c); err != nil {
		t.Fatal(err)
	}
	data, err := local.ReadFile("/net/peer/shared.txt")
	if err != nil || string(data) != "from afar" {
		t.Fatalf("read through remote mount = %q, %v", data, err)
	}
	// Writes cross the wire through the mount.
	if err := local.WriteFile("/net/peer/back.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := remoteSide.Stat("/back.txt"); err != nil {
		t.Fatalf("write did not reach remote: %v", err)
	}
}

func TestHACOverRemoteSubstrate(t *testing.T) {
	// The composability payoff: a local HAC layer over a remote
	// substrate. Every file lives on the server; the semantic machinery
	// runs locally.
	c := serve(t, vfs.New())
	fs := hac.New(c, hac.Options{})
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/a.txt", []byte("apple pie")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/b.txt", []byte("banana bread")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/sel")
	if err != nil || len(targets) != 1 || targets[0] != "/docs/a.txt" {
		t.Fatalf("targets = %v, %v", targets, err)
	}
}

func TestServeLiveHACVolume(t *testing.T) {
	// §3.2 over the network: Alice's live HAC volume, served whole; Bob
	// browses her semantic directory remotely.
	alice := hac.New(vfs.New(), hac.Options{})
	if err := alice.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := alice.WriteFile("/docs/fp.txt", []byte("fingerprint notes")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}

	bob := serve(t, alice)
	entries, err := bob.ReadDir("/fp")
	if err != nil || len(entries) != 1 {
		t.Fatalf("remote browse = %v, %v", entries, err)
	}
	data, err := bob.ReadFile("/fp/" + entries[0].Name)
	if err != nil || string(data) != "fingerprint notes" {
		t.Fatalf("remote read through link = %q, %v", data, err)
	}
}

func TestSearchOverWire(t *testing.T) {
	// A served HAC volume answers opSearch with cursor pages.
	hfs := hac.New(vfs.New(), hac.Options{})
	if err := hfs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 9; i++ {
		p := fmt.Sprintf("/docs/note%d.txt", i)
		if err := hfs.WriteFile(p, []byte("fingerprint survey")); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if _, err := hfs.Reindex("/"); err != nil {
		t.Fatal(err)
	}

	c := serve(t, hfs)
	ctx := context.Background()
	var got []string
	var after uint64
	for pages := 0; ; pages++ {
		if pages > len(want) {
			t.Fatalf("cursor did not terminate: got %v", got)
		}
		page, next, err := c.SearchPageContext(ctx, "fingerprint", "/docs", after, 4)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		if next == 0 {
			break
		}
		after = next
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged search = %v, want %v", got, want)
	}

	// Out-of-scope search matches nothing.
	page, next, err := c.SearchPageContext(ctx, "fingerprint", "/empty", 0, 0)
	if err != nil || next != 0 || len(page) != 0 {
		t.Fatalf("out-of-scope search = %v, %d, %v", page, next, err)
	}
}

func TestSearchUnsupportedOverWire(t *testing.T) {
	// A plain MemFS is not a Searcher; the wire error keeps its
	// sentinel.
	c := serve(t, vfs.New())
	_, _, err := c.SearchPageContext(context.Background(), "anything", "/", 0, 0)
	if !errors.Is(err, vfs.ErrUnsupported) {
		t.Fatalf("search on plain memfs = %v, want ErrUnsupported", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	backing := vfs.New()
	srv := NewServer(backing, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := DialMux(l.Addr().String())
			defer c.Close()
			dir := "/c" + string(rune('a'+i))
			if err := c.MkdirAll(dir); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			for k := 0; k < 25; k++ {
				p := dir + "/f" + string(rune('0'+k%10))
				if err := c.WriteFile(p, []byte{byte(k)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := c.ReadFile(p); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	files, err := vfs.Files(backing, "/")
	if err != nil || len(files) != 40 {
		t.Fatalf("files = %d, %v", len(files), err)
	}
}

func TestAndrewOverRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("network Andrew run")
	}
	c := serve(t, vfs.New())
	spec := andrew.Spec{Dirs: 2, FilesPerDir: 3, FileSize: 512, MakeRounds: 1}
	if err := andrew.GenerateSource(c, "/src", spec); err != nil {
		t.Fatal(err)
	}
	res, err := andrew.Run(c, "/src", "/dst", spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesRead != 6 {
		t.Fatalf("FilesRead = %d", res.FilesRead)
	}
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	backing := vfs.New()
	srv := NewServer(backing, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// Raw garbage: the server must drop the connection, not crash.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("\x00\xde\xad\xbe\xefnot the hello at all"))
	conn.Close()

	// A well-behaved client still works afterwards.
	c := DialMux(l.Addr().String())
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server unusable after garbage: %v", err)
	}
}

func TestClientEquivalentTreeState(t *testing.T) {
	// The remote client and a local MemFS driven by identical ops end
	// in identical states.
	local := vfs.New()
	c := serve(t, vfs.New())
	ops := func(fsys vfs.FileSystem) {
		fsys.MkdirAll("/d/e")
		fsys.WriteFile("/d/e/f", []byte("x"))
		fsys.Symlink("/d/e/f", "/d/ln")
		fsys.Rename("/d/e/f", "/d/e/g")
		fsys.WriteFile("/d/h", []byte("y"))
		fsys.Remove("/d/h")
	}
	ops(local)
	ops(c)
	lf, _ := vfs.Files(local, "/")
	rf, _ := vfs.Files(c, "/")
	if !reflect.DeepEqual(lf, rf) {
		t.Fatalf("states diverged: %v vs %v", lf, rf)
	}
}
