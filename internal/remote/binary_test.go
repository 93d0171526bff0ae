package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

func TestBinPingSearchFetch(t *testing.T) {
	bc, _ := startServer(t)
	if err := bc.Ping(); err != nil {
		t.Fatal(err)
	}
	got, err := bc.SearchContext(context.Background(), "fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{"/papers/crime-report.ps", "/papers/fp-matching.ps", "/papers/fp-sensors.ps"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("search = %v, want %v", got, want)
	}
	data, err := bc.FetchContext(context.Background(), "/papers/iris.ps")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "iris recognition") {
		t.Fatalf("fetch = %q", data)
	}
	if _, err := bc.SearchContext(context.Background(), "fingerprint AND ("); err == nil {
		t.Fatal("malformed query did not error")
	}
	if _, err := bc.FetchContext(context.Background(), "/no/such/file"); err == nil {
		t.Fatal("missing fetch did not error")
	}
}

// TestBinStreamedPages forces a tiny page size and checks the client
// reassembles the multi-frame stream, and that explicit paging through
// the cursor sees every result exactly once.
func TestBinStreamedPages(t *testing.T) {
	bc, _ := startServer(t)
	ctx := context.Background()

	all, _, _, err := bc.search(ctx, mSearch, "fingerprint", "", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("streamed %d paths, want 3: %v", len(all), all)
	}

	// Page-at-a-time through the cursor.
	var paged []string
	var after uint64
	for {
		paths, next, err := bc.SearchPage(ctx, "fingerprint", after, 2)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, paths...)
		if next == 0 {
			break
		}
		after = next
	}
	sort.Strings(all)
	sort.Strings(paged)
	if !reflect.DeepEqual(all, paged) {
		t.Fatalf("paged %v != streamed %v", paged, all)
	}
}

// TestBinManyInFlight issues many concurrent requests over ONE client
// (one connection) and checks every reply routes to its caller.
func TestBinManyInFlight(t *testing.T) {
	bc, _ := startServer(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				paths, err := bc.SearchContext(ctx, "fingerprint")
				if err == nil && len(paths) != 3 {
					errs <- io.ErrUnexpectedEOF
					return
				}
				errs <- err
			} else {
				data, err := bc.FetchContext(ctx, "/papers/iris.ps")
				if err == nil && !strings.Contains(string(data), "iris") {
					errs <- io.ErrUnexpectedEOF
					return
				}
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// pacedBackend serves the same page at every cursor, never running out
// (the client's page budget ends the stream). A page after the first
// waits until the client has consumed the previous one, so the client
// never reads a frame ahead of its consumer.
type pacedBackend struct {
	page     []string
	consumed chan struct{}
}

func (b *pacedBackend) SearchPageUnder(ctx context.Context, _, _ string, after uint64, _ int) ([]string, uint64, uint64, error) {
	if after == 0 {
		select { // a token the previous stream's last page left
		case <-b.consumed:
		default:
		}
	} else {
		select {
		case <-b.consumed:
		case <-ctx.Done():
			return nil, 0, 0, ctx.Err()
		}
	}
	return b.page, after + 1, 1, nil
}

func (b *pacedBackend) Fetch(string) ([]byte, error) { return nil, vfs.ErrNotExist }

// TestStreamSearchOneBufferPerStream: streamSearch encodes every page of
// a stream into one payload buffer, so a stream's allocations do not
// grow with its page count.
func TestStreamSearchOneBufferPerStream(t *testing.T) {
	page := make([]string, 512)
	for i := range page {
		page[i] = fmt.Sprintf("/corpus/dir%03d/file-%05d.txt", i%40, i)
	}
	b := &pacedBackend{page: page, consumed: make(chan struct{}, 1)}
	srv := NewServer(b, nil)
	srv.SetObserver(obs.Discard())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	bc := DialBin("paced", l.Addr().String())
	bc.SetObserver(obs.Discard())
	t.Cleanup(func() { bc.Close() })

	ctx := context.Background()
	reqs := map[int][]byte{4: appendSearchReq(nil, "q", "/", 0, len(page), 4), 36: appendSearchReq(nil, "q", "/", 0, len(page), 36)}
	stream := func(pages int) {
		n := 0
		err := bc.c.Stream(ctx, mSearchUnder, fSearch, reqs[pages], func(f wire.Frame) error {
			n++
			select {
			case b.consumed <- struct{}{}:
			default:
			}
			return nil
		})
		if err != nil || n != pages {
			t.Fatalf("stream of %d pages: %d frames, %v", pages, n, err)
		}
	}
	stream(36) // warm the connection and the client's free list
	few := testing.AllocsPerRun(20, func() { stream(4) })
	many := testing.AllocsPerRun(20, func() { stream(36) })
	if perPage := (many - few) / 32; perPage > 0.25 {
		t.Fatalf("%.2f allocations per streamed page (%.0f for 4 pages, %.0f for 36), want one buffer per stream", perPage, few, many)
	}
}

// TestBinVersionRejected checks the versioned-error path: a client
// with an unsupported framing version receives an error frame, not a
// hang or a crash.
func TestBinVersionRejected(t *testing.T) {
	bc, _ := startServer(t)
	conn, err := net.DialTimeout("tcp", bc.c.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteHello(conn, 42); err != nil {
		t.Fatal(err)
	}
	ver, err := wire.ReadHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ver != wire.Version {
		t.Fatalf("server hello version = %d, want %d", ver, wire.Version)
	}
	f, err := wire.ReadFrame(conn, maxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeErr || !strings.Contains(string(f.Payload), "unsupported protocol version") {
		t.Fatalf("reply = type %d %q, want versioned error", f.Type, f.Payload)
	}
}

// FuzzDecodeFrame drives the server-side binary decode path with
// arbitrary bytes: framing, then the per-type payload decoders. It
// must never panic, and every accepted field must respect its bound.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add(func() []byte {
		var buf bytes.Buffer
		wire.WriteFrame(&buf, wire.Frame{Type: fSearch, ID: 7, Payload: appendSearchReq(nil, "a AND b", "/s", 9, 4, 0)})
		return buf.Bytes()
	}())
	f.Add(func() []byte {
		var buf bytes.Buffer
		wire.WriteFrame(&buf, wire.Frame{Type: fPage, Flags: wire.FlagFinal, ID: 3, Payload: appendPage(nil, 2, 11, []string{"/a", "/b"})})
		return buf.Bytes()
	}())
	// Huge declared frame length: must be rejected, not allocated.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := wire.ReadFrame(r, maxFramePayload)
			if err != nil {
				return
			}
			switch fr.Type {
			case fSearch:
				q, scope, _, _, _, err := decodeSearchReq(fr.Payload)
				if err == nil && (len(q) > maxField || len(scope) > maxField) {
					t.Fatalf("accepted query of %d bytes, scope of %d", len(q), len(scope))
				}
			case fPage:
				paths, _, _, err := decodePage(nil, fr.Payload)
				if err == nil {
					for _, p := range paths {
						if len(p) > maxField {
							t.Fatalf("accepted path of %d bytes", len(p))
						}
					}
				}
			case wire.TypeErr:
				d := wire.NewDec(fr.Payload)
				wire.DecodeError(d)
			case fFetch, fData, fPing, fPong:
				d := wire.NewDec(fr.Payload)
				_ = d.String(maxField)
			}
		}
	})
}
