package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"hacfs/internal/obs"
)

// Handler answers request frames. Each request runs on its own
// goroutine, so a slow search never blocks a ping on the same
// connection. ctx carries the caller's span context when the frame had
// a trace header and is cancelled when the connection ends; responses
// go through w, tagged with f.ID, the last one flagged FlagFinal.
//
// It is an interface rather than a func so the call adds no wrapper
// frame: a request goroutine starts on a minimal stack, and every
// frame between it and the service's deepest call decides how often
// that stack must be grown and copied.
type Handler interface {
	ServeFrame(ctx context.Context, w *ResponseWriter, f Frame)
}

// ResponseWriter serializes response frames onto one connection.
// Frames accumulate in a buffered writer and only the last sender in a
// pack flushes, so one syscall carries a whole batch of responses under
// load while an idle connection still sees every frame immediately.
type ResponseWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	writers atomic.Int64
}

// Send writes one response frame.
func (w *ResponseWriter) Send(f Frame) error {
	w.writers.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	err := WriteFrame(w.bw, f)
	if w.writers.Add(-1) == 0 && err == nil {
		err = w.bw.Flush()
	}
	return err
}

// Err ends request id with a typed error frame.
func (w *ResponseWriter) Err(id uint64, err error) error {
	return w.Send(Frame{Type: TypeErr, Flags: FlagFinal, ID: id, Payload: AppendError(nil, err)})
}

// Server is the serving half of the framing, shared by every service:
// the accept loop with connection tracking, the hello exchange, and a
// per-connection reader that runs each request frame through the
// service's Handler with a bounded number in flight.
type Server struct {
	maxPayload  uint32
	maxInflight int
	logger      *log.Logger
	open        func() (Handler, func())

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server for one service. maxPayload bounds one
// request frame's payload and maxInflight the requests executing
// concurrently per connection — the protection against one hostile
// client. open is called once per accepted connection and returns the
// connection's handler plus a function run after its last request has
// finished (nil = nothing to release). logger may be nil.
func NewServer(maxPayload uint32, maxInflight int, logger *log.Logger, open func() (Handler, func())) *Server {
	return &Server{
		maxPayload:  maxPayload,
		maxInflight: maxInflight,
		logger:      logger,
		open:        open,
		conns:       make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on l until Close is called. It always
// returns a non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves; use net.Listen + Serve to
// learn the port first.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// CloseListener stops accepting new connections but leaves the live
// ones serving — the first step of a graceful shutdown.
func (s *Server) CloseListener() {
	s.mu.Lock()
	if s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()
}

// Close stops accepting, closes every live connection and returns once
// their in-flight handlers have finished.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// serveConn answers one connection until it dies. A connection that
// does not open with the hello is closed.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	ver, err := ReadHello(r)
	if err != nil {
		if err != io.EOF {
			s.logf("wire: %s: %v", conn.RemoteAddr(), err)
		}
		return
	}
	// Always answer with the server's own hello: a client speaking a
	// different framing version reads it and reports a clean versioned
	// error instead of misparsing a frame.
	if err := WriteHello(conn, Version); err != nil {
		return
	}
	w := &ResponseWriter{bw: bufio.NewWriterSize(conn, 64<<10)}
	if ver != Version {
		w.Err(0, fmt.Errorf("unsupported protocol version %d (server speaks %d)", ver, Version))
		return
	}
	h, done := s.open()
	if done != nil {
		defer done()
	}
	sem := make(chan struct{}, s.maxInflight)
	var reqs sync.WaitGroup
	defer reqs.Wait()
	// Handler contexts end with the connection: once the reader stops, a
	// handler still producing responses nobody can receive sees Done.
	connCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for {
		f, err := ReadFrame(r, s.maxPayload)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// A traced frame carries the caller's span context; joining it
		// links the handler's spans into the client's trace.
		ctx := connCtx
		if sc := (obs.SpanContext{Trace: f.Trace, Span: f.Span}); sc.Valid() {
			ctx = obs.ContextWith(ctx, sc)
		}
		sem <- struct{}{}
		reqs.Add(1)
		go func(ctx context.Context, f Frame) {
			defer reqs.Done()
			defer func() { <-sem }()
			h.ServeFrame(ctx, w, f)
		}(ctx, f)
	}
}
