package remotefs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// newManyMatchHAC builds a volume in which "markermany" matches n
// files.
func newManyMatchHAC(tb testing.TB, n int) *hac.FS {
	tb.Helper()
	hfs := hac.New(vfs.New(), hac.Options{})
	for i := 0; i < n; i++ {
		if i%100 == 0 {
			if err := hfs.MkdirAll(fmt.Sprintf("/corpus/dir%03d", i/100)); err != nil {
				tb.Fatal(err)
			}
		}
		p := fmt.Sprintf("/corpus/dir%03d/file-%05d.txt", i/100, i)
		if err := hfs.WriteFile(p, []byte("markermany filler text")); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := hfs.Reindex("/"); err != nil {
		tb.Fatal(err)
	}
	return hfs
}

// drainStream streams q to its last page and returns pages and paths
// seen.
func drainStream(tb testing.TB, c *MuxClient, q string, pageSize int) (pages, paths int) {
	err := c.SearchStream(context.Background(), q, "/", pageSize, func(page []string) error {
		pages++
		paths += len(page)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return pages, paths
}

// BenchmarkSearchStream is the served many-match search: one streamed
// 12k-match query, 512 paths a page, through an in-process server over
// loopback. B/op and allocs/op count both ends of the socket.
func BenchmarkSearchStream(b *testing.B) {
	const matches = 12000
	c := serveMuxClient(b, newManyMatchHAC(b, matches))
	drainStream(b, c, "markermany", 512) // dial and fill the result cache outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := drainStream(b, c, "markermany", 512); n != matches {
			b.Fatalf("streamed %d paths, want %d", n, matches)
		}
	}
}

// TestStreamedPageAllocsAreConstant: client and server together, one
// more page of a stream costs a fixed handful of allocations — the
// page's []string and backing string on each side, the frame payload,
// the decoded response — and none per path: the server encodes every
// page into one buffer and the client decodes a page's paths out of one
// string. Measured as the difference between walking 4096 matches in
// 32 pages and in 16.
func TestStreamedPageAllocsAreConstant(t *testing.T) {
	c := serveMuxClient(t, newManyMatchHAC(t, 4096))
	walk := func(pageSize int) float64 {
		drainStream(t, c, "markermany", pageSize)
		return testing.AllocsPerRun(10, func() {
			if pages, n := drainStream(t, c, "markermany", pageSize); n != 4096 || pages != 4096/pageSize {
				t.Fatalf("by %d: %d pages, %d paths", pageSize, pages, n)
			}
		})
	}
	by256 := walk(256)
	perPage := (walk(128) - by256) / 16
	t.Logf("4096 matches in 16 pages: %.0f allocations; one more page: %.1f", by256, perPage)
	if perPage > 12 {
		t.Fatalf("one more streamed page costs %.1f allocations across client and server, want a constant handful", perPage)
	}
	if by256 > 16*12+64 {
		t.Fatalf("streaming 4096 matches in 16 pages took %.0f allocations: something allocates per path", by256)
	}
}

// countingVolumes is soloVolumes with an in-flight count, standing in
// for the serving layer's admission slots.
type countingVolumes struct {
	soloVolumes
	inflight atomic.Int64
}

func (v *countingVolumes) Admit(tenant, op string) (func(), error) {
	v.inflight.Add(1)
	return func() { v.inflight.Add(-1) }, nil
}

// waitForDone is a hac volume whose streams, after their second page,
// wait for the handler's context to end: however fast the stream and
// however late the scheduler wakes the server's reader, the third page
// boundary comes after the peer's departure has reached the handler.
type waitForDone struct{ *hac.FS }

func (v waitForDone) SearchStream(ctx context.Context, query, scope string, after uint64, pageSize, maxPages int, emit func([]string, uint64) error) error {
	pages := 0
	return v.FS.SearchStream(ctx, query, scope, after, pageSize, maxPages, func(page []string, next uint64) error {
		if pages++; pages == 2 {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
		}
		return emit(page, next)
	})
}

// TestStreamStopsOncePeerStopsSending: a client that has shut down its
// sending side is gone as far as the server's reader can tell, even
// though the socket still takes writes — the case only the handler's
// context can catch. The stream must end at the next page boundary
// with the context's error instead of running to its last page, and
// give its admission slot back.
func TestStreamStopsOncePeerStopsSending(t *testing.T) {
	vols := &countingVolumes{soloVolumes: soloVolumes{waitForDone{newManyMatchHAC(t, 500)}}}
	conn, err := net.Dial("tcp", hostServe(t, vols))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(wire.WriteHello(conn, wire.Version))
	req := &request{Op: opSearchStream, Path: "/", Path2: "markermany", N: 1}
	must(wire.WriteFrame(conn, wire.Frame{Type: rfReq, Flags: wire.FlagFinal, ID: 1, Payload: appendRequest(nil, req)}))
	must(conn.(*net.TCPConn).CloseWrite())

	r := bufio.NewReader(conn)
	_, err = wire.ReadHello(r)
	must(err)
	pages := 0
	for {
		f, err := wire.ReadFrame(r, maxFrameBuf)
		must(err)
		resp, err := decodeRespFrame(f)
		must(err)
		if !f.Final() {
			pages++
			continue
		}
		if resp.Err == nil || !strings.Contains(resp.Err.Error(), context.Canceled.Error()) {
			t.Fatalf("stream ended after %d pages with %v, want the handler's context error", pages, resp.Err)
		}
		break
	}
	if pages > 2 {
		t.Fatalf("stream sent %d pages, want it to stop at the boundary after page 2", pages)
	}
	// The server closes the connection once its handlers are done.
	if _, err := wire.ReadFrame(r, maxFrameBuf); err != io.EOF {
		t.Fatalf("after the final frame: %v, want EOF", err)
	}
	if n := vols.inflight.Load(); n != 0 {
		t.Fatalf("%d admission slots still held after the stream ended", n)
	}
}
