package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"hacfs/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: 1, ID: 1},
		{Type: 7, Flags: FlagFinal, ID: 1<<63 + 9, Payload: []byte("hello")},
		{Type: 255, ID: 0, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestFrameTraceRoundTrip: a frame with a span context grows a trace
// header and reads back identically; a traceless frame stays at the
// 10-byte header with no flag, so untraced traffic pays nothing.
func TestFrameTraceRoundTrip(t *testing.T) {
	trace := obs.NewTraceID()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: 3, ID: 9, Flags: FlagFinal, Trace: trace, Span: 42, Payload: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != trace || got.Span != 42 {
		t.Fatalf("trace context = {%s %d}, want {%s 42}", got.Trace, got.Span, trace)
	}
	if got.Flags&FlagTrace == 0 {
		t.Fatal("trace flag not set on a traced frame")
	}
	if got.Flags&FlagFinal == 0 || !bytes.Equal(got.Payload, []byte("q")) {
		t.Fatalf("frame fields damaged: %+v", got)
	}

	// Untraced frame: byte-identical to the pre-trace wire format.
	buf.Reset()
	if err := WriteFrame(&buf, Frame{Type: 3, ID: 9, Payload: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n != 4+10+1 {
		t.Fatalf("untraced frame is %d bytes, want %d (no trace header)", n, 4+10+1)
	}
	got, err = ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trace.IsZero() || got.Span != 0 || got.Flags&FlagTrace != 0 {
		t.Fatalf("untraced frame read back a trace: %+v", got)
	}

	// FlagTrace set by a corrupt writer without the header bytes: the
	// declared length is too short for the fixed part and must error.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(10))
	hdr := make([]byte, 10)
	hdr[1] = FlagTrace
	buf.Write(hdr)
	if _, err := ReadFrame(&buf, 1<<20); err == nil {
		t.Fatal("traced frame without trace header bytes accepted")
	}
}

func TestReadFrameBounds(t *testing.T) {
	// Declared length below the header.
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(3))
	buf.WriteString("abc")
	if _, err := ReadFrame(&buf, 1<<20); err == nil {
		t.Fatal("undersized length accepted")
	}
	// Declared length above the payload budget: must error before
	// consuming (or allocating) the oversized payload.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(10+101))
	if _, err := ReadFrame(&buf, 100); err == nil {
		t.Fatal("oversized length accepted")
	}
	// Truncated payload.
	buf.Reset()
	binary.Write(&buf, binary.BigEndian, uint32(10+5))
	buf.Write(make([]byte, 10+2))
	if _, err := ReadFrame(&buf, 1<<20); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestHello(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(Magic)) {
		t.Fatal("hello does not carry the magic")
	}
	v, err := ReadHello(&buf)
	if err != nil || v != 3 {
		t.Fatalf("ReadHello = %d, %v", v, err)
	}
	if _, err := ReadHello(strings.NewReader("PING\n")); !errors.Is(err, ErrNoHello) {
		t.Fatalf("foreign preamble: err = %v, want ErrNoHello", err)
	}
}

func TestDecBounded(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 42)
	b = AppendVarint(b, -7)
	b = AppendString(b, "path")
	b = AppendStrings(b, []string{"a", "bb"})
	b = AppendBool(b, true)

	d := NewDec(b)
	if v := d.Uvarint(); v != 42 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Varint(); v != -7 {
		t.Fatalf("varint = %d", v)
	}
	if s := d.String(64); s != "path" {
		t.Fatalf("string = %q", s)
	}
	if ss := d.Strings(64, 16); len(ss) != 2 || ss[1] != "bb" {
		t.Fatalf("strings = %v", ss)
	}
	if !d.Bool() {
		t.Fatal("bool = false")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A huge declared string length must be rejected without
	// allocating.
	d = NewDec(AppendUvarint(nil, 1<<40))
	if d.Bytes(1<<20) != nil || d.Err() == nil {
		t.Fatal("oversized field accepted")
	}
	// A count larger than the remaining payload must be rejected.
	d = NewDec(AppendUvarint(nil, 1<<30))
	if d.Strings(64, 1<<31) != nil || d.Err() == nil {
		t.Fatal("oversized list accepted")
	}
	// Trailing bytes are an error.
	d = NewDec([]byte{0, 1})
	d.Uvarint()
	if err := d.Close(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecStringsOneBackingString: a page of paths decodes into the list
// and one backing string — at most 3 allocations for 512 paths — with
// the same element and count bounds as before, and SizeStrings is the
// exact encoded size.
func TestDecStringsOneBackingString(t *testing.T) {
	page := make([]string, 512)
	for i := range page {
		page[i] = fmt.Sprintf("/corpus/dir%03d/file-%05d.txt", i%40, i*7)
	}
	page[17], page[400] = "", strings.Repeat("x", 300) // empty and two-byte-length elements
	enc := AppendStrings(nil, page)
	if SizeStrings(page) != len(enc) || SizeStrings(nil) != len(AppendStrings(nil, nil)) {
		t.Fatalf("SizeStrings = %d, encoded %d bytes", SizeStrings(page), len(enc))
	}
	enc = AppendUvarint(enc, 9)
	d := NewDec(enc)
	if got := d.Strings(1<<10, 1<<10); !reflect.DeepEqual(got, page) {
		t.Fatalf("decoded page differs: %q", got)
	}
	if d.Uvarint() != 9 || d.Close() != nil {
		t.Fatalf("decoder misplaced after the list: %v", d.Err())
	}
	if allocs := testing.AllocsPerRun(50, func() { NewDec(enc).Strings(1<<10, 1<<10) }); allocs > 3 {
		t.Fatalf("decoding a 512-path page took %.0f allocations, want <= 3", allocs)
	}
	for name, d := range map[string]*Dec{
		"element over the limit": NewDec(enc),
		"list cut mid-element":   NewDec(enc[:len(enc)/2]),
	} {
		if d.Strings(64, 1<<10) != nil || d.Err() == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if d := NewDec(enc); d.Strings(1<<10, 100) != nil || d.Err() == nil {
		t.Fatal("count over the limit accepted")
	}
}

// echoServer speaks the framing: hello exchange, then echoes every
// request payload back on its ID, optionally split into two frames.
func echoServer(t *testing.T, split bool) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := ReadHello(conn); err != nil {
					return
				}
				if err := WriteHello(conn, Version); err != nil {
					return
				}
				for {
					f, err := ReadFrame(conn, 1<<20)
					if err != nil {
						return
					}
					if split && len(f.Payload) > 1 {
						WriteFrame(conn, Frame{Type: f.Type, ID: f.ID, Payload: f.Payload[:1]})
						WriteFrame(conn, Frame{Type: f.Type, ID: f.ID, Flags: FlagFinal, Payload: f.Payload[1:]})
						continue
					}
					WriteFrame(conn, Frame{Type: f.Type, ID: f.ID, Flags: FlagFinal, Payload: f.Payload})
				}
			}()
		}
	}()
	return l.Addr().String()
}

// callOne performs a single-frame untraced round trip on a bare mux.
func callOne(ctx context.Context, m *mux, typ uint8, payload []byte) (Frame, error) {
	st, err := m.call(ctx, obs.SpanContext{}, typ, payload, false)
	if err != nil {
		return Frame{}, err
	}
	defer st.cancel()
	return st.next(ctx)
}

func TestMuxConcurrentCalls(t *testing.T) {
	addr := echoServer(t, false)
	m := newMux(addr, 5*time.Second, 1<<20)
	defer m.Close()
	ctx := context.Background()
	const n = 64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			payload := []byte{byte(i), byte(i >> 8)}
			f, err := callOne(ctx, m, 9, payload)
			if err == nil && !bytes.Equal(f.Payload, payload) {
				err = errors.New("payload mismatch across IDs")
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMuxStreamedResponse(t *testing.T) {
	addr := echoServer(t, true)
	m := newMux(addr, 5*time.Second, 1<<20)
	defer m.Close()
	ctx := context.Background()
	st, err := m.call(ctx, obs.SpanContext{}, 3, []byte("xyz"), false)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		f, err := st.next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Payload...)
	}
	if string(got) != "xyz" {
		t.Fatalf("reassembled stream = %q", got)
	}
}

func TestMuxVersionMismatch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ReadHello(conn)
		WriteHello(conn, 99) // wrong version
		buf := make([]byte, 1)
		conn.Read(buf) // hold until client gives up
	}()
	m := newMux(l.Addr().String(), 2*time.Second, 1<<20)
	defer m.Close()
	if _, err := callOne(context.Background(), m, 1, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestMuxConnectionLossFailsPending(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		ReadHello(conn)
		WriteHello(conn, Version)
		ReadFrame(conn, 1<<20)
		conn.Close() // die without answering
	}()
	o := obs.NewObserver()
	c := NewClient(l.Addr().String(), 1<<20, "test", "method", []Method{{Label: "m", Span: "rpc.m"}})
	c.SetObserver(o)
	c.SetTimeout(2 * time.Second)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, 0, 1, nil); err == nil {
		t.Fatal("call on dead connection succeeded")
	}
	snap := o.Registry().Snapshot()
	if got := snap["test_dial_failures_total"]; got != 0 {
		t.Fatalf("a lost connection counted as %v dial failures", got)
	}
	// The server is gone for good: the re-dial fails and is counted, once
	// per attempt, beside the per-method error series.
	l.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.Call(ctx, 0, 1, nil); err == nil {
			t.Fatal("call against a closed listener succeeded")
		}
	}
	snap = o.Registry().Snapshot()
	if got := snap["test_dial_failures_total"]; got != 2 {
		t.Fatalf("test_dial_failures_total = %v, want 2", got)
	}
	if calls, errs := snap[`test_rpc_total{method="m"}`], snap[`test_rpc_errors_total{method="m"}`]; calls != 3 || errs != 3 {
		t.Fatalf("rpc series = %v calls, %v errors, want 3 and 3", calls, errs)
	}
}
