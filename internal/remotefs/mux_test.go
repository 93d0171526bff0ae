package remotefs

import (
	"bytes"
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

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// hostServe exports vols on a loopback listener and returns its
// address.
func hostServe(t testing.TB, vols Volumes) string {
	t.Helper()
	srv := NewHostServer(vols, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

// serveMuxClient exports fsys and returns a connected binary client.
func serveMuxClient(t testing.TB, fsys vfs.FileSystem) *MuxClient {
	t.Helper()
	c := DialMux(hostServe(t, soloVolumes{fsys}))
	c.SetTimeout(5 * time.Second)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestMuxBasicOps(t *testing.T) {
	backing := vfs.New()
	c := serveMuxClient(t, backing)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("/a/b/f.txt", []byte("framed")); err != nil {
		t.Fatal(err)
	}
	if data, err := c.ReadFile("/a/b/f.txt"); err != nil || string(data) != "framed" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if data, err := backing.ReadFile("/a/b/f.txt"); err != nil || string(data) != "framed" {
		t.Fatalf("backing = %q, %v", data, err)
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

	// Handle I/O across frames.
	f, err := c.Create("/a/b/h.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := f.Read(buf); err != nil || string(buf[:n]) != "2345" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if info, err := f.Stat(); err != nil || info.Size != 4 {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Sentinels survive the binary frames too.
	if _, err := c.ReadFile("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("missing file error = %v, want ErrNotExist", err)
	}
	var pe *vfs.PathError
	if err := c.Mkdir("/a/b"); !errors.As(err, &pe) || !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("mkdir existing = %v, want PathError{ErrExist}", err)
	}
}

// testVolumes is a two-tenant Volumes for routing tests.
type testVolumes struct {
	vols map[string]vfs.FileSystem

	mu      sync.Mutex
	admits  map[string]int
	pending int
}

func newTestVolumes(vols map[string]vfs.FileSystem) *testVolumes {
	return &testVolumes{vols: vols, admits: make(map[string]int)}
}

func (v *testVolumes) Volume(tenant string) (vfs.FileSystem, error) {
	fsys, ok := v.vols[tenant]
	if !ok {
		return nil, &vfs.PathError{Op: "volume", Path: "/" + tenant, Err: vfs.ErrNotExist}
	}
	return fsys, nil
}

func (v *testVolumes) Admit(tenant, op string) (func(), error) {
	v.mu.Lock()
	v.admits[tenant]++
	v.pending++
	v.mu.Unlock()
	return func() {
		v.mu.Lock()
		v.pending--
		v.mu.Unlock()
	}, nil
}

func TestMuxTenantRouting(t *testing.T) {
	alice, bob := vfs.New(), vfs.New()
	vols := newTestVolumes(map[string]vfs.FileSystem{"alice": alice, "bob": bob})
	addr := hostServe(t, vols)
	c := DialMux(addr)
	c.SetTimeout(5 * time.Second)
	defer c.Close()

	ca, cb := c.Tenant("alice"), c.Tenant("bob")
	if err := ca.WriteFile("/f", []byte("from alice")); err != nil {
		t.Fatal(err)
	}
	if err := cb.WriteFile("/f", []byte("from bob")); err != nil {
		t.Fatal(err)
	}
	if data, err := alice.ReadFile("/f"); err != nil || string(data) != "from alice" {
		t.Fatalf("alice volume = %q, %v", data, err)
	}
	if data, err := bob.ReadFile("/f"); err != nil || string(data) != "from bob" {
		t.Fatalf("bob volume = %q, %v", data, err)
	}
	// Tenant views share the one connection but stay isolated.
	if _, err := ca.ReadFile("/g"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("cross-tenant read = %v", err)
	}
	// Unknown tenants are rejected with the typed sentinel.
	if _, err := c.Tenant("mallory").ReadFile("/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unknown tenant = %v, want ErrNotExist", err)
	}
	// Handle ops are charged to the opening tenant.
	f, err := ca.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	before := vols.admits["alice"]
	if _, err := io.ReadAll(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	vols.mu.Lock()
	after, pending := vols.admits["alice"], vols.pending
	vols.mu.Unlock()
	if after <= before {
		t.Fatalf("handle reads admitted %d ops for alice, want > 0", after-before)
	}
	if pending != 0 {
		t.Fatalf("leaked %d admission slots", pending)
	}
}

// admitReject fails admission with a typed backpressure error.
type admitReject struct{ fsys vfs.FileSystem }

func (v admitReject) Volume(tenant string) (vfs.FileSystem, error) { return v.fsys, nil }

func (v admitReject) Admit(tenant, op string) (func(), error) {
	return nil, &vfs.PathError{Op: op, Path: "/" + tenant, Err: vfs.ErrBackpressure}
}

func TestAdmissionErrorsTravelTyped(t *testing.T) {
	c := DialMux(hostServe(t, admitReject{vfs.New()}))
	c.SetTimeout(5 * time.Second)
	defer c.Close()
	err := c.WriteFile("/f", []byte("x"))
	var pe *vfs.PathError
	if !errors.As(err, &pe) || !errors.Is(err, vfs.ErrBackpressure) {
		t.Fatalf("admission rejection = %v, want PathError{ErrBackpressure}", err)
	}
	// Ping stays unadmitted: health checks work under backpressure.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping under backpressure = %v", err)
	}
}

func newSearchableHAC(t *testing.T, n int) (*hac.FS, []string) {
	t.Helper()
	hfs := hac.New(vfs.New(), hac.Options{})
	if err := hfs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/docs/note%03d.txt", i)
		if err := hfs.WriteFile(p, []byte("fingerprint survey")); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if _, err := hfs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	return hfs, want
}

func TestMuxSearchStream(t *testing.T) {
	hfs, want := newSearchableHAC(t, 23)
	c := serveMuxClient(t, hfs)
	ctx := context.Background()

	var got []string
	pages := 0
	err := c.SearchStream(ctx, "fingerprint", "/docs", 5, func(paths []string) error {
		pages++
		got = append(got, paths...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages < 2 {
		t.Fatalf("stream arrived in %d page(s), want several", pages)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed search = %v, want %v", got, want)
	}

	// The one-page API still works over the mux.
	page, next, err := c.SearchPageContext(ctx, "fingerprint", "/docs", 0, 5)
	if err != nil || len(page) != 5 || next == 0 {
		t.Fatalf("SearchPageContext = %v, %d, %v", page, next, err)
	}
	// A consumer error cancels the stream.
	boom := errors.New("stop")
	if err := c.SearchStream(ctx, "fingerprint", "/docs", 5, func([]string) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("stream consumer error = %v, want %v", err, boom)
	}
}

func TestMuxSyncPath(t *testing.T) {
	hfs, _ := newSearchableHAC(t, 3)
	if err := hfs.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	c := serveMuxClient(t, hfs)
	if err := c.SyncPath("/fp"); err != nil {
		t.Fatal(err)
	}
	if entries, err := c.ReadDir("/fp"); err != nil || len(entries) != 3 {
		t.Fatalf("semantic dir after remote ssync = %v, %v", entries, err)
	}
	// ssync against a plain memfs is unsupported, with the sentinel.
	plain := serveMuxClient(t, vfs.New())
	if err := plain.SyncPath("/"); !errors.Is(err, vfs.ErrUnsupported) {
		t.Fatalf("ssync on memfs = %v, want ErrUnsupported", err)
	}
}

// TestMuxManyInFlight floods one connection with concurrent requests
// from many goroutines — the multiplexing the gob protocol lacks.
func TestMuxManyInFlight(t *testing.T) {
	backing := vfs.New()
	c := serveMuxClient(t, backing)
	if err := c.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	const workers = 64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("/d/f%02d", i)
			body := []byte(fmt.Sprintf("body %02d", i))
			if err := c.WriteFile(p, body); err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				data, err := c.ReadFile(p)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(data, body) {
					errs <- fmt.Errorf("%s = %q, want %q", p, data, body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if entries, err := c.ReadDir("/d"); err != nil || len(entries) != workers {
		t.Fatalf("ReadDir = %d entries, %v", len(entries), err)
	}
}

// TestMuxVersionRejected checks a future-version client receives the
// server hello plus a versioned error frame.
func TestMuxVersionRejected(t *testing.T) {
	addr := hostServe(t, soloVolumes{vfs.New()})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteHello(conn, 99); err != nil {
		t.Fatal(err)
	}
	if ver, err := wire.ReadHello(conn); err != nil || ver != wire.Version {
		t.Fatalf("server hello = %d, %v", ver, err)
	}
	f, err := wire.ReadFrame(conn, maxFrameBuf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeErr || !bytes.Contains(f.Payload, []byte("unsupported protocol version")) {
		t.Fatalf("reply = type %d %q, want versioned error", f.Type, f.Payload)
	}
}

// FuzzDecodeFrame drives the framing plus both payload codecs with
// arbitrary bytes: no panics, no over-allocation past the declared
// bounds, truncated and hostile lengths must error.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 'x', 'y'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(func() []byte {
		var buf bytes.Buffer
		req := &request{Op: opWriteFile, Tenant: "alice", Path: "/a", Data: []byte("hello")}
		wire.WriteFrame(&buf, wire.Frame{Type: rfReq, ID: 7, Payload: appendRequest(nil, req)})
		return buf.Bytes()
	}())
	f.Add(func() []byte {
		var buf bytes.Buffer
		resp := &response{
			Err:     &vfs.PathError{Op: "open", Path: "/x", Err: fmt.Errorf("no: %w", vfs.ErrNotExist)},
			Entries: []vfs.DirEntry{{Name: "a", Type: vfs.TypeFile, Ino: 3}},
			Strs:    []string{"/p", "/q"},
		}
		wire.WriteFrame(&buf, wire.Frame{Type: rfResp, Flags: wire.FlagFinal, ID: 9, Payload: appendResponse(nil, resp)})
		return buf.Bytes()
	}())
	f.Add(func() []byte {
		// An opReadDir answer: each entry is the child's whole Lstat Info.
		var buf bytes.Buffer
		mod := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
		resp := &response{Entries: []vfs.DirEntry{
			{Name: "a.txt", Ino: 3, Type: vfs.TypeFile, Size: 12, ModTime: mod},
			{Name: "docs", Ino: 4, Type: vfs.TypeDir, ModTime: mod},
			{Name: "link", Type: vfs.TypeSymlink, ModTime: mod, Target: "/docs/a.txt"},
		}}
		wire.WriteFrame(&buf, wire.Frame{Type: rfResp, Flags: wire.FlagFinal, ID: 11, Payload: appendResponse(nil, resp)})
		return buf.Bytes()
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := wire.ReadFrame(bytes.NewReader(data), maxFrameBuf)
		if err != nil {
			return // malformed framing must error, never panic
		}
		if len(fr.Payload) > maxFrameBuf {
			t.Fatalf("frame payload %d exceeds bound %d", len(fr.Payload), maxFrameBuf)
		}
		var req request
		if err := decodeRequest(fr.Payload, &req); err == nil {
			if len(req.Tenant) > maxNameLen || len(req.Path) > maxPathLen || len(req.Path2) > maxPathLen {
				t.Fatalf("request field exceeds bound: %d/%d/%d", len(req.Tenant), len(req.Path), len(req.Path2))
			}
			if len(req.Data) > maxIO {
				t.Fatalf("request data %d exceeds bound %d", len(req.Data), maxIO)
			}
		}
		var resp response
		if err := decodeResponse(fr.Payload, &resp); err == nil {
			if len(resp.Data) > maxIO || len(resp.Entries) > maxEntries || len(resp.Strs) > maxEntries {
				t.Fatalf("response field exceeds bound: %d/%d/%d", len(resp.Data), len(resp.Entries), len(resp.Strs))
			}
		}
	})
}
