package remote

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// trackingListener remembers the connections it accepted, so a test
// can kill them from the server side.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// startServer brings up a server over a small corpus and returns a
// connected client.
func startServer(t *testing.T) (*BinClient, *Server) {
	c, srv, _ := startTrackedServer(t)
	return c, srv
}

func startTrackedServer(t *testing.T) (*BinClient, *Server, *trackingListener) {
	t.Helper()
	fsys := vfs.New()
	docs := map[string]string{
		"/papers/fp-matching.ps":  "fingerprint matching algorithms survey",
		"/papers/fp-sensors.ps":   "fingerprint sensor hardware design",
		"/papers/iris.ps":         "iris recognition methods",
		"/papers/crime-report.ps": "fingerprint evidence in murder case",
	}
	for p, content := range docs {
		if err := fsys.MkdirAll(vfs.Dir(p)); err != nil {
			t.Fatal(err)
		}
		if err := fsys.WriteFile(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	backend, err := NewIndexBackend(fsys, "/")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend, nil)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &trackingListener{Listener: inner}
	go srv.Serve(l)
	t.Cleanup(srv.Close)

	c := DialBin("diglib", l.Addr().String())
	c.SetTimeout(5 * time.Second)
	t.Cleanup(func() { c.Close() })
	return c, srv, l
}

func TestPing(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSearch(t *testing.T) {
	c, _ := startServer(t)
	got, err := c.SearchContext(context.Background(), "fingerprint AND NOT murder")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/papers/fp-matching.ps", "/papers/fp-sensors.ps"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
	// Empty result.
	got, err = c.SearchContext(context.Background(), "nonexistentterm")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty Search = %v, %v", got, err)
	}
	// Empty query.
	got, err = c.SearchContext(context.Background(), "")
	if err != nil || len(got) != 0 {
		t.Fatalf("blank Search = %v, %v", got, err)
	}
}

func TestSearchBadQuery(t *testing.T) {
	c, _ := startServer(t)
	_, err := c.SearchContext(context.Background(), "((broken")
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("bad query err = %#v, want a *wire.RemoteError", err)
	}
	// Connection still usable after a server-side error.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

func TestSearchPage(t *testing.T) {
	c, _ := startServer(t)
	// Walk the whole result in pages of 1 and compare against the
	// unpaged answer.
	want, err := c.SearchContext(context.Background(), "fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 {
		t.Fatalf("unpaged Search = %v", want)
	}
	var got []string
	var after uint64
	ctx := context.Background()
	for pages := 0; ; pages++ {
		if pages > len(want) {
			t.Fatalf("cursor did not terminate: got %v", got)
		}
		page, next, err := c.SearchPage(ctx, "fingerprint", after, 1)
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
		t.Fatalf("paged Search = %v, want %v", got, want)
	}

	// Unlimited page = everything at once, terminated.
	all, next, err := c.SearchPage(ctx, "fingerprint", 0, 0)
	if err != nil || next != 0 {
		t.Fatalf("unlimited page: %v, next=%d", err, next)
	}
	sort.Strings(all)
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("unlimited page = %v, want %v", all, want)
	}

	// Server-side errors come back as the server's, not the transport's.
	var re *wire.RemoteError
	if _, _, err := c.SearchPage(ctx, "((broken", 0, 1); !errors.As(err, &re) {
		t.Fatalf("bad query err = %#v, want a *wire.RemoteError", err)
	}
}

func TestFetch(t *testing.T) {
	c, _ := startServer(t)
	data, err := c.FetchContext(context.Background(), "/papers/iris.ps")
	if err != nil || string(data) != "iris recognition methods" {
		t.Fatalf("Fetch = %q, %v", data, err)
	}
	if _, err := c.FetchContext(context.Background(), "/papers/none.ps"); err == nil {
		t.Fatal("Fetch of missing file succeeded")
	}
}

func TestQueryWithSpaces(t *testing.T) {
	c, _ := startServer(t)
	// Queries travel length-prefixed, so arbitrary whitespace survives.
	got, err := c.SearchContext(context.Background(), "  fingerprint   AND   sensor ")
	if err != nil || len(got) != 1 {
		t.Fatalf("Search with spaces = %v, %v", got, err)
	}
}

func TestReconnectAfterServerSideClose(t *testing.T) {
	c, _, l := startTrackedServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Kill the client's connection server-side. A request racing the
	// teardown may fail (it is not retried: it may have executed); once
	// the loss is noticed the next request re-dials.
	l.closeConns()
	deadline := time.Now().Add(5 * time.Second)
	for c.Ping() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", c.Ping())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, err := c.SearchContext(context.Background(), "iris"); err != nil || len(got) != 1 {
		t.Fatalf("search after reconnect = %v, %v", got, err)
	}
}

func TestDirRefMatchesNothingRemotely(t *testing.T) {
	c, _ := startServer(t)
	got, err := c.SearchContext(context.Background(), "fingerprint AND dir:#42")
	if err != nil || len(got) != 0 {
		t.Fatalf("dir-ref Search = %v, %v", got, err)
	}
}

func TestClientIsNamespace(t *testing.T) {
	var _ hac.Namespace = (*BinClient)(nil)
}

// End-to-end: mount the remote server into a HAC volume and build a
// semantic directory from it (the §3 scenario).
func TestSemanticMountOverNetwork(t *testing.T) {
	c, _ := startServer(t)
	fs := hac.New(vfs.New(), hac.Options{})
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", c); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fp", "fingerprint AND NOT murder"); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/fp")
	if err != nil || len(targets) != 2 {
		t.Fatalf("targets = %v, %v", targets, err)
	}
	// sact across the network.
	entries, _ := fs.ReadDir("/fp")
	data, err := fs.Extract(vfs.Join("/fp", entries[0].Name))
	if err != nil || !strings.Contains(string(data), "fingerprint") {
		t.Fatalf("Extract = %q, %v", data, err)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	backend, err := NewIndexBackend(vfs.New(), "/")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}
