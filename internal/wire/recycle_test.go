package wire

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"hacfs/internal/obs"
)

// testPage returns page i of stream s: n distinct paths.
func testPage(s, i, n int) []string {
	page := make([]string, n)
	for j := range page {
		page[j] = fmt.Sprintf("/stream%02d/page%03d/file-%05d.txt", s, i, j)
	}
	return page
}

// pagesReq encodes a page-server request: stream number, page count and
// paths per page.
func pagesReq(stream, pages, perPage int) []byte {
	b := AppendUvarint(nil, uint64(stream))
	b = AppendUvarint(b, uint64(pages))
	return AppendUvarint(b, uint64(perPage))
}

// TestStreamPageAllocatesOneString: in steady state, a 512-path page
// streamed over loopback through Client.Stream and decoded with
// AppendStrings into the previous page's slice allocates exactly one
// thing — the page's backing string. The frame payload is read into a
// recycled buffer, the header through the reader's scratch, and the
// call's frame queue keeps its storage. The server sends a page only
// once the previous one has been consumed, so the measurement is the
// decode path, not how far the reader runs ahead of a slow consumer.
func TestStreamPageAllocatesOneString(t *testing.T) {
	want := testPage(0, 0, 512)
	enc := AppendStrings(nil, want)
	consumed := make(chan struct{})
	_, addr, _ := startServer(t, 1<<20, 4, func(ctx context.Context, w *ResponseWriter, f Frame) {
		pages := int(NewDec(f.Payload).Uvarint())
		for i := 0; i < pages; i++ {
			fr := Frame{Type: f.Type, ID: f.ID, Payload: enc}
			if i == pages-1 {
				fr.Flags = FlagFinal
			}
			if w.Send(fr) != nil {
				return
			}
			select {
			case <-consumed:
			case <-ctx.Done():
				return
			}
		}
	})
	c := testClient(t, addr)
	ctx := context.Background()
	var page []string
	reqs := map[int][]byte{8: AppendUvarint(nil, 8), 72: AppendUvarint(nil, 72)}
	stream := func(pages int) {
		err := c.Stream(ctx, 0, 1, reqs[pages], func(f Frame) error {
			d := NewDec(f.Payload)
			page = d.AppendStrings(page[:0], 1<<10, 1<<10)
			err := d.Close()
			consumed <- struct{}{}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	stream(72) // warm: the connection, the free list, the page slice
	for i, p := range page {
		if p != want[i] {
			t.Fatalf("path %d = %q, want %q", i, p, want[i])
		}
	}
	few := testing.AllocsPerRun(20, func() { stream(8) })
	many := testing.AllocsPerRun(20, func() { stream(72) })
	if perPage := (many - few) / 64; perPage > 1.25 {
		t.Fatalf("%.2f allocations per streamed page (%.0f for 8 pages, %.0f for 72), want 1: the backing string", perPage, few, many)
	}
}

// TestStreamedStringsSurviveBufferReuse: eight streams share one mux
// and its recycled payload buffers; each keeps every path of every page
// past the frame it came in. Once the streams end, every kept string
// must still read as sent — a decode that aliased the payload would
// show another page's bytes. Run under -race as well.
func TestStreamedStringsSurviveBufferReuse(t *testing.T) {
	_, addr, _ := startServer(t, 1<<20, 16, func(ctx context.Context, w *ResponseWriter, f Frame) {
		d := NewDec(f.Payload)
		s, pages, perPage := int(d.Uvarint()), int(d.Uvarint()), int(d.Uvarint())
		var buf []byte
		for i := 0; i < pages; i++ {
			buf = AppendStrings(buf[:0], testPage(s, i, perPage))
			fr := Frame{Type: f.Type, ID: f.ID, Payload: buf}
			if i == pages-1 {
				fr.Flags = FlagFinal
			}
			if w.Send(fr) != nil {
				return
			}
		}
	})
	c := testClient(t, addr)
	const streams, pages, perPage = 8, 6, 300
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var kept, page []string
			err := c.Stream(context.Background(), 0, 1, pagesReq(s, pages, perPage), func(f Frame) error {
				d := NewDec(f.Payload)
				page = d.AppendStrings(page[:0], 1<<10, 1<<12)
				kept = append(kept, page...)
				return d.Close()
			})
			if err == nil && len(kept) != pages*perPage {
				err = fmt.Errorf("stream %d: %d paths, want %d", s, len(kept), pages*perPage)
			}
			for i := 0; err == nil && i < pages; i++ {
				for j, p := range testPage(s, i, perPage) {
					if got := kept[i*perPage+j]; got != p {
						err = fmt.Errorf("stream %d page %d path %d = %q after the stream, want %q", s, i, j, got, p)
						break
					}
				}
			}
			errs <- err
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadFrameIntoDirtyBuffer: a recycled buffer still holding an
// older, longer frame's bytes decodes a frame exactly as a fresh read
// does, and is used only when its capacity covers the payload.
func TestReadFrameIntoDirtyBuffer(t *testing.T) {
	frames := []Frame{
		{Type: 4, ID: 1},
		{Type: 4, Flags: FlagFinal, ID: 2, Payload: []byte("short")},
		{Type: 9, ID: 1 << 40, Trace: obs.NewTraceID(), Span: 77, Payload: AppendStrings(nil, []string{"/a", "/bb"})},
		{Type: 9, ID: 3, Payload: bytes.Repeat([]byte("p"), 300)},
	}
	for i, want := range frames {
		var raw bytes.Buffer
		if err := WriteFrame(&raw, want); err != nil {
			t.Fatal(err)
		}
		fresh, err := ReadFrame(bytes.NewReader(raw.Bytes()), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, 4, 64, 4096} {
			dirty := bytes.Repeat([]byte{0xEE}, size)
			got, err := readFrameInto(bytes.NewReader(raw.Bytes()), 1<<20, dirty[:0])
			if err != nil {
				t.Fatalf("frame %d, %d-byte buffer: %v", i, size, err)
			}
			if got.Type != fresh.Type || got.Flags != fresh.Flags || got.ID != fresh.ID ||
				got.Trace != fresh.Trace || got.Span != fresh.Span || !bytes.Equal(got.Payload, fresh.Payload) {
				t.Fatalf("frame %d, %d-byte dirty buffer: got %+v, fresh read %+v", i, size, got, fresh)
			}
			n := len(want.Payload)
			reused := n > 0 && size > 0 && &got.Payload[0] == &dirty[0]
			if reused != (n > 0 && n <= size) {
				t.Fatalf("frame %d: %d-byte payload, %d-byte buffer: reused = %v", i, n, size, reused)
			}
		}
	}
	// A buffer is only ever filled up to a length ReadFrame validated: an
	// oversized declared length fails before touching it.
	var over bytes.Buffer
	WriteFrame(&over, Frame{Type: 1, Payload: make([]byte, 200)})
	dirty := bytes.Repeat([]byte{0xEE}, 4096)
	if _, err := readFrameInto(bytes.NewReader(over.Bytes()), 100, dirty[:0]); err == nil {
		t.Fatal("oversized frame accepted into a recycled buffer")
	}
	if dirty[0] != 0xEE {
		t.Fatal("rejected frame wrote into the buffer")
	}
}

// TestMuxFreeListBounded: the free list keeps at most maxFree buffers,
// none above maxFreeCap, prefers the larger ones when full, and hands
// out the smallest buffer that covers a request.
func TestMuxFreeListBounded(t *testing.T) {
	m := newMux("unused", 0, 1<<20)
	m.release(make([]byte, maxFreeCap+1))
	m.release(nil)
	if len(m.free) != 0 {
		t.Fatalf("free list kept %d unusable buffers", len(m.free))
	}
	for i := 1; i <= maxFree+4; i++ {
		m.release(make([]byte, 0, i*100))
	}
	if len(m.free) != maxFree {
		t.Fatalf("free list holds %d buffers, bound %d", len(m.free), maxFree)
	}
	for _, b := range m.free {
		if cap(b) <= 4*100 {
			t.Fatalf("full free list kept a %d-byte buffer over larger ones", cap(b))
		}
	}
	if b := m.take(950); cap(b) != 1000 {
		t.Fatalf("take(950) = %d-byte buffer, want the 1000-byte best fit", cap(b))
	}
	if b := m.take(maxFreeCap); b != nil {
		t.Fatalf("take of more than any buffer holds returned %d bytes", cap(b))
	}
}
