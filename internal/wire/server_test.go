package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
)

// handlerFunc adapts a function to Handler.
type handlerFunc func(ctx context.Context, w *ResponseWriter, f Frame)

func (h handlerFunc) ServeFrame(ctx context.Context, w *ResponseWriter, f Frame) { h(ctx, w, f) }

// startServer serves h on a loopback listener and returns the server,
// its address and a channel carrying Serve's return value.
func startServer(t *testing.T, maxPayload uint32, maxInflight int, h handlerFunc) (*Server, string, <-chan error) {
	t.Helper()
	srv := NewServer(maxPayload, maxInflight, nil, func() (Handler, func()) { return h, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(srv.Close)
	return srv, l.Addr().String(), done
}

func echo(_ context.Context, w *ResponseWriter, f Frame) {
	w.Send(Frame{Type: f.Type, Flags: FlagFinal, ID: f.ID, Payload: f.Payload})
}

// testClient dials addr through the shared call layer with one method.
func testClient(t *testing.T, addr string) *Client {
	t.Helper()
	c := NewClient(addr, 1<<20, "test", "method", []Method{{Label: "m", Span: "rpc.m"}})
	c.SetObserver(obs.Discard())
	c.SetTimeout(5 * time.Second)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerCloseWaitsForHandlers: Close unblocks Serve, and returns
// only after the handler that was in flight has finished.
func TestServerCloseWaitsForHandlers(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	srv, addr, served := startServer(t, 1<<20, 4, func(ctx context.Context, w *ResponseWriter, f Frame) {
		close(entered)
		<-release
		finished.Store(true)
		echo(ctx, w, f)
	})
	c := testClient(t, addr)
	go c.Call(context.Background(), 0, 1, nil)
	<-entered

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler finished")
	}
	if !finished.Load() {
		t.Fatal("Close returned before the handler finished")
	}
	if err := srv.Serve(nil); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve after Close = %v, want net.ErrClosed", err)
	}
}

// TestServerBoundsInflight: one connection never has more than
// maxInflight handlers running, however many requests it pipelines.
func TestServerBoundsInflight(t *testing.T) {
	const bound, calls = 3, 24
	var running, peak atomic.Int64
	_, addr, _ := startServer(t, 1<<20, bound, func(ctx context.Context, w *ResponseWriter, f Frame) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		running.Add(-1)
		echo(ctx, w, f)
	})
	c := testClient(t, addr)
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.Call(context.Background(), 0, 1, []byte("x"))
			errs <- err
		}()
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > bound || p < 2 {
		t.Fatalf("peak in-flight handlers = %d, want 2..%d", p, bound)
	}
}

// TestServerVersionMismatch: a peer speaking another version gets the
// server's hello, one versioned error frame, then a closed connection.
func TestServerVersionMismatch(t *testing.T) {
	_, addr, _ := startServer(t, 1<<20, 4, echo)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteHello(conn, Version+40); err != nil {
		t.Fatal(err)
	}
	if ver, err := ReadHello(conn); err != nil || ver != Version {
		t.Fatalf("server hello = %d, %v", ver, err)
	}
	f, err := ReadFrame(conn, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rerr := frameError(f); f.Type != TypeErr || !f.Final() || !strings.Contains(rerr.Error(), "unsupported protocol version") {
		t.Fatalf("reply = type %d final=%v %v, want one final versioned error", f.Type, f.Final(), rerr)
	}
	if _, err := ReadFrame(conn, 1<<20); err == nil {
		t.Fatal("connection stayed open after the version error")
	}
}

// TestServerRejectsBadPreambleAndOversizeFrame: a connection that does
// not open with the hello, and one that declares a frame over the
// payload budget, are each closed — and the next client is served.
func TestServerRejectsBadPreambleAndOversizeFrame(t *testing.T) {
	_, addr, _ := startServer(t, 64, 4, echo)
	dial := func() net.Conn {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	expectClosed := func(what string, conn net.Conn) {
		t.Helper()
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("%s: server kept the connection open", what)
		}
	}

	garbage := dial()
	garbage.Write([]byte("PING\n\x00\xff garbage"))
	expectClosed("garbage preamble", garbage)

	big := dial()
	WriteHello(big, Version)
	if _, err := ReadHello(big); err != nil {
		t.Fatal(err)
	}
	WriteFrame(big, Frame{Type: 1, ID: 1, Payload: make([]byte, 65)})
	expectClosed("over-budget frame", big)

	c := testClient(t, addr)
	if f, err := c.Call(context.Background(), 0, 1, []byte("ok")); err != nil || string(f.Payload) != "ok" {
		t.Fatalf("well-behaved client after the rejects = %q, %v", f.Payload, err)
	}
}

// TestServerTraceReachesHandler: the frame's trace header arrives in
// the handler's context; an untraced frame arrives with none.
func TestServerTraceReachesHandler(t *testing.T) {
	got := make(chan obs.SpanContext, 2)
	_, addr, _ := startServer(t, 1<<20, 4, func(ctx context.Context, w *ResponseWriter, f Frame) {
		sc, _ := obs.FromContext(ctx)
		got <- sc
		echo(ctx, w, f)
	})
	c := testClient(t, addr)
	want := obs.SpanContext{Trace: obs.NewTraceID(), Span: 77}
	if _, err := c.Call(obs.ContextWith(context.Background(), want), 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if sc := <-got; sc != want {
		t.Fatalf("handler saw %+v, want %+v", sc, want)
	}
	if _, err := c.Call(context.Background(), 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if sc := <-got; sc.Valid() {
		t.Fatalf("untraced request arrived with trace %+v", sc)
	}
}

// TestServerLeavesNoGoroutines: after Close, nothing the server or its
// clients started is still running.
func TestServerLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := NewServer(1<<20, 4, nil, func() (Handler, func()) { return handlerFunc(echo), nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	for i := 0; i < 4; i++ {
		c := NewClient(l.Addr().String(), 1<<20, "test", "method", []Method{{Label: "m", Span: "rpc.m"}})
		c.SetObserver(obs.Discard())
		for k := 0; k < 8; k++ {
			if _, err := c.Call(context.Background(), 0, 1, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			c.Close() // the others are left for the server to hang up on
		}
	}
	srv.Close()
	<-served
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestErrorCodec round-trips every table entry through the payload
// codec — bare, wrapped with detail, and inside a *vfs.PathError — plus
// the shapes that carry no sentinel.
func TestErrorCodec(t *testing.T) {
	roundTrip := func(err error) error {
		d := NewDec(AppendError(nil, err))
		out := DecodeError(d)
		if cerr := d.Close(); cerr != nil {
			t.Fatalf("%v: %v", err, cerr)
		}
		return out
	}
	for _, s := range sentinels {
		if got := roundTrip(s); got != s {
			t.Errorf("bare %v came back as %#v", s, got)
		}
		detailed := roundTrip(fmt.Errorf("replica 3: %w", s))
		if !errors.Is(detailed, s) || detailed.Error() != "replica 3: "+s.Error() {
			t.Errorf("detailed %v came back as %v", s, detailed)
		}
		var re *RemoteError
		if !errors.As(detailed, &re) {
			t.Errorf("detailed %v lost its *RemoteError", s)
		}
		got := roundTrip(&vfs.PathError{Op: "open", Path: "/a b", Err: s})
		var pe *vfs.PathError
		if !errors.As(got, &pe) || pe.Op != "open" || pe.Path != "/a b" || pe.Err != s {
			t.Errorf("PathError{%v} came back as %#v", s, got)
		}
	}
	plain := roundTrip(errors.New("disk on fire"))
	var re *RemoteError
	if !errors.As(plain, &re) || plain.Error() != "disk on fire" || errors.Unwrap(plain) != nil {
		t.Errorf("plain error came back as %#v", plain)
	}
	// An error matching two sentinels always takes the earlier code.
	both := roundTrip(fmt.Errorf("%w: last replica error: %w", vfs.ErrShardUnavailable, vfs.ErrNotExist))
	if !errors.Is(both, vfs.ErrShardUnavailable) || errors.Is(both, vfs.ErrNotExist) {
		t.Errorf("two-sentinel error came back as %v", both)
	}
	// Over-long fields are clipped on encode, never undecodable.
	long := roundTrip(&vfs.PathError{Op: "x", Path: strings.Repeat("p", maxErrPath+9), Err: errors.New(strings.Repeat("m", maxErrMsg+9))})
	var pe *vfs.PathError
	if !errors.As(long, &pe) || len(pe.Path) != maxErrPath || len(pe.Err.Error()) != maxErrMsg {
		t.Errorf("over-long error came back as path %d msg %d bytes", len(pe.Path), len(pe.Err.Error()))
	}
	// Truncated payloads error instead of panicking.
	full := AppendError(nil, &vfs.PathError{Op: "open", Path: "/p", Err: vfs.ErrBusy})
	for i := 0; i < len(full); i++ {
		d := NewDec(full[:i])
		DecodeError(d)
		if d.Close() == nil {
			t.Fatalf("payload truncated to %d bytes decoded cleanly", i)
		}
	}
}
