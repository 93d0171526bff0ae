// Package wire is the one transport under every remote service — the
// content-based access namespace (internal/remote), the file-system
// export (internal/remotefs) and the shared catalog (internal/catalog):
// a length-prefixed, multiplexed binary framing, the Server loop that
// accepts and answers it, the client Mux and call layer that speak it,
// and the typed-error codec both ends share (DESIGN.md §12).
//
// A connection opens with a 5-byte hello in each direction:
//
//	"HACX" version(1)
//
// A connection that opens with anything else is closed; a peer
// speaking another version gets the server's hello and one versioned
// error frame, so it fails with a clean message instead of misparsing
// a frame.
//
// After the hello, both directions carry frames:
//
//	length  uint32, big-endian — byte count of everything after itself
//	type    uint8              — protocol-specific frame type; TypeErr
//	                             (0) is an error response in every
//	                             protocol
//	flags   uint8              — FlagFinal ends a response stream,
//	                             FlagTrace precedes the payload with a
//	                             trace header
//	id      uint64, big-endian — request ID, chosen by the client
//	trace   24 bytes, only when FlagTrace is set — 128-bit trace ID
//	        followed by the sender's span ID (uint64, big-endian), the
//	        cross-process trace context of DESIGN.md §13
//	payload remaining bytes    — protocol-specific body
//
// Many requests may be in flight on one connection; responses carry
// the ID of the request they answer and may span several frames, the
// last one marked FlagFinal (streamed search result pages). Decoding
// is bounded: a frame whose declared length is shorter than the fixed
// header or longer than the caller's payload budget is rejected before
// any allocation, so a hostile length can never over-allocate.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/obs"
)

// Magic opens every binary connection, followed by a version byte.
const Magic = "HACX"

// Version is the protocol version this package speaks. It covers the
// framing and the service payloads alike: version 2 dropped remote's
// unscoped search frames and gave errors one payload shape.
const Version = 2

// helloLen is the size of the connection preamble.
const helloLen = len(Magic) + 1

// headerLen is the fixed frame header after the length word:
// type(1) + flags(1) + id(8).
const headerLen = 10

// FlagFinal marks the last frame of a response stream.
const FlagFinal = 0x01

// FlagTrace marks a frame whose header is followed by a trace header:
// 16-byte trace ID + 8-byte sender span ID. WriteFrame sets it
// automatically when the frame carries a trace.
const FlagTrace = 0x02

// traceHeaderLen is the size of the optional trace header.
const traceHeaderLen = 16 + 8

// ErrNoHello reports a connection preamble that is not the magic: the
// peer is not speaking this protocol.
var ErrNoHello = errors.New("wire: connection does not open with the hello")

// ErrVersion reports a binary peer speaking an unsupported framing
// version.
var ErrVersion = errors.New("wire: unsupported protocol version")

// Frame is one decoded protocol frame. Trace and Span, when non-zero,
// are the propagated trace context (sent as the optional FlagTrace
// header): the trace the request belongs to and the sender's span, the
// parent of whatever span the receiver starts.
type Frame struct {
	Type    uint8
	Flags   uint8
	ID      uint64
	Trace   obs.TraceID
	Span    obs.SpanID
	Payload []byte
}

// Final reports whether the frame ends its response stream.
func (f *Frame) Final() bool { return f.Flags&FlagFinal != 0 }

// WriteHello sends the connection preamble.
func WriteHello(w io.Writer, version uint8) error {
	var b [helloLen]byte
	copy(b[:], Magic)
	b[len(Magic)] = version
	_, err := w.Write(b[:])
	return err
}

// ReadHello consumes and validates the preamble, returning the peer's
// version. A non-magic preamble returns ErrNoHello.
func ReadHello(r io.Reader) (uint8, error) {
	var b [helloLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, ErrNoHello
	}
	return b[len(Magic)], nil
}

// WriteFrame encodes one frame, emitting the trace header (and setting
// FlagTrace) when the frame carries a trace. The caller serializes
// concurrent writers (frames must not interleave mid-frame).
func WriteFrame(w io.Writer, f Frame) error {
	var hdr [4 + headerLen + traceHeaderLen]byte
	n := 4 + headerLen
	if !f.Trace.IsZero() {
		f.Flags |= FlagTrace
		copy(hdr[n:], f.Trace[:])
		binary.BigEndian.PutUint64(hdr[n+16:], uint64(f.Span))
		n += traceHeaderLen
	} else {
		f.Flags &^= FlagTrace
	}
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n-4+len(f.Payload)))
	hdr[4] = f.Type
	hdr[5] = f.Flags
	binary.BigEndian.PutUint64(hdr[6:14], f.ID)
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame decodes one frame, rejecting any declared length below the
// fixed header (plus trace header when FlagTrace is set) or above
// maxPayload before allocating anything.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n < headerLen {
		return Frame{}, fmt.Errorf("wire: frame length %d below %d-byte header", n, headerLen)
	}
	if uint64(n-headerLen) > uint64(maxPayload)+traceHeaderLen {
		// Early reject of lengths too large under either header shape;
		// the exact payload bound is re-checked below once the flags say
		// whether a trace header is present. Nothing is allocated from
		// the declared length at this point.
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit %d", n-headerLen, maxPayload)
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	f := Frame{Type: hdr[0], Flags: hdr[1], ID: binary.BigEndian.Uint64(hdr[2:10])}
	fixed := uint32(headerLen)
	if f.Flags&FlagTrace != 0 {
		fixed += traceHeaderLen
		if n < fixed {
			return Frame{}, fmt.Errorf("wire: frame length %d below %d-byte traced header", n, fixed)
		}
		var th [traceHeaderLen]byte
		if _, err := io.ReadFull(r, th[:]); err != nil {
			return Frame{}, err
		}
		copy(f.Trace[:], th[:16])
		f.Span = obs.SpanID(binary.BigEndian.Uint64(th[16:]))
	}
	if n-fixed > maxPayload {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit %d", n-fixed, maxPayload)
	}
	if pl := n - fixed; pl > 0 {
		f.Payload = make([]byte, pl)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// ---------------------------------------------------------------------
// Payload building and bounded decoding
// ---------------------------------------------------------------------

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBytes appends p length-prefixed.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Dec is a bounded payload decoder. Every accessor is a no-op once an
// error is recorded, so codecs can decode a whole struct and check
// Err() once. Length-prefixed fields are validated against the bytes
// actually remaining before any slice is taken, so a corrupt length
// cannot over-allocate.
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of undecoded bytes remaining.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Close errors if undecoded bytes remain, then returns Err.
func (d *Dec) Close() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing payload bytes", len(d.b))
	}
	return d.err
}

// Uvarint decodes one unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint decodes one zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int decodes a varint that must fit an int.
func (d *Dec) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Byte decodes one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool decodes one byte as a boolean.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Bytes decodes a length-prefixed byte field of at most max bytes. The
// returned slice aliases the payload; callers that retain it past the
// payload's life must copy.
func (d *Dec) Bytes(max int) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(max) {
		d.fail("field of %d bytes exceeds limit %d", n, max)
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("field of %d bytes but only %d remain", n, len(d.b))
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// String decodes a length-prefixed string of at most max bytes.
func (d *Dec) String(max int) string { return string(d.Bytes(max)) }

// Count decodes a list length of at most max entries. Each entry costs
// at least one payload byte, so the bytes actually remaining bound the
// count too: a hostile length cannot make the caller over-allocate.
func (d *Dec) Count(max int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(max) {
		d.fail("list of %d entries exceeds limit %d", n, max)
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail("list of %d entries but only %d payload bytes remain", n, len(d.b))
		return 0
	}
	return int(n)
}

// Strings decodes a count-prefixed list of strings, bounding both the
// element size and the total element count. The list's bytes are copied
// once, into one string that every element is a substring of — two
// allocations a page instead of one per path. The price is retention: a
// single element kept alive keeps the whole list's bytes alive.
func (d *Dec) Strings(maxEach, maxCount int) []string {
	n := d.Count(maxCount)
	list := d.b
	for i := 0; i < n; i++ {
		d.Bytes(maxEach)
	}
	if d.err != nil {
		return nil
	}
	// Validated above: the second walk only re-reads the lengths.
	list = list[:len(list)-len(d.b)]
	backing := string(list)
	out := make([]string, n)
	pos := 0
	for i := range out {
		l, w := binary.Uvarint(list[pos:])
		out[i] = backing[pos+w : pos+w+int(l)]
		pos += w + int(l)
	}
	return out
}

// SizeStrings returns the number of bytes AppendStrings(nil, ss) takes.
func SizeStrings(ss []string) int {
	n := uvarintLen(uint64(len(ss)))
	for _, s := range ss {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendStrings appends a count-prefixed string list.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendBool appends a boolean byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---------------------------------------------------------------------
// Client-side multiplexing
// ---------------------------------------------------------------------

// pendingCall collects the response frames for one request ID without
// ever blocking the connection's reader: frames queue under the call's
// own lock and a 1-slot ready channel wakes the waiter.
type pendingCall struct {
	mu     sync.Mutex
	frames []Frame
	err    error
	ready  chan struct{}
}

func newPendingCall() *pendingCall {
	return &pendingCall{ready: make(chan struct{}, 1)}
}

func (pc *pendingCall) push(f Frame) {
	pc.mu.Lock()
	pc.frames = append(pc.frames, f)
	pc.mu.Unlock()
	pc.wake()
}

func (pc *pendingCall) fail(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	pc.mu.Unlock()
	pc.wake()
}

func (pc *pendingCall) wake() {
	select {
	case pc.ready <- struct{}{}:
	default:
	}
}

// next returns the next queued frame, waiting for the reader or for
// ctx. After a connection failure it returns the recorded error.
func (pc *pendingCall) next(ctx context.Context) (Frame, error) {
	for {
		pc.mu.Lock()
		if len(pc.frames) > 0 {
			f := pc.frames[0]
			pc.frames = pc.frames[1:]
			pc.mu.Unlock()
			return f, nil
		}
		err := pc.err
		pc.mu.Unlock()
		if err != nil {
			return Frame{}, err
		}
		select {
		case <-pc.ready:
		case <-ctx.Done():
			return Frame{}, ctx.Err()
		}
	}
}

// Mux is the client side of one multiplexed binary connection: it
// assigns request IDs, serializes frame writes, and demultiplexes
// response frames to their callers by ID. It re-dials lazily after
// failures; in-flight calls on a dying connection fail fast rather
// than retry (the request may have executed).
type Mux struct {
	addr       string
	timeout    time.Duration
	maxPayload uint32

	mu      sync.Mutex // guards conn lifecycle and pending
	conn    net.Conn
	w       *bufio.Writer
	wmu     sync.Mutex   // serializes frame writes + flushes
	writers atomic.Int64 // senders in flight, for flush coalescing
	pending map[uint64]*pendingCall
	nextID  uint64
	gen     uint64 // bumped every re-dial, keys reader teardown

	dialFailures *obs.Counter // counts failed dials and hello exchanges
}

// NewMux returns a lazy client mux for the server at addr. maxPayload
// bounds one received frame's payload.
func NewMux(addr string, timeout time.Duration, maxPayload uint32) *Mux {
	return &Mux{addr: addr, timeout: timeout, maxPayload: maxPayload}
}

// Addr returns the server address the mux dials.
func (m *Mux) Addr() string { return m.addr }

// SetTimeout changes the dial and frame-write deadline.
func (m *Mux) SetTimeout(d time.Duration) {
	m.mu.Lock()
	m.timeout = d
	m.mu.Unlock()
}

func (m *Mux) setDialFailures(c *obs.Counter) {
	m.mu.Lock()
	m.dialFailures = c
	m.mu.Unlock()
}

// Close drops the connection, failing all in-flight calls; later calls
// re-dial.
func (m *Mux) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropLocked(errors.New("wire: connection closed"))
}

func (m *Mux) dropLocked(cause error) error {
	var err error
	if m.conn != nil {
		err = m.conn.Close()
	}
	m.conn, m.w = nil, nil
	for id, pc := range m.pending {
		pc.fail(cause)
		delete(m.pending, id)
	}
	return err
}

// ensureLocked makes sure a connection is live, counting a dial or
// hello exchange that fails.
func (m *Mux) ensureLocked(ctx context.Context) error {
	if m.conn != nil {
		return nil
	}
	conn, err := m.dial(ctx)
	if err != nil {
		m.dialFailures.Add(1)
		return err
	}
	m.conn = conn
	m.w = bufio.NewWriter(conn)
	m.pending = make(map[uint64]*pendingCall)
	m.gen++
	go m.readLoop(conn, m.gen)
	return nil
}

// dial connects and performs the hello exchange.
func (m *Mux) dial(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: m.timeout}
	conn, err := d.DialContext(ctx, "tcp", m.addr)
	if err != nil {
		return nil, err
	}
	if m.timeout > 0 {
		conn.SetDeadline(time.Now().Add(m.timeout))
	}
	if err := WriteHello(conn, Version); err != nil {
		conn.Close()
		return nil, err
	}
	ver, err := ReadHello(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ver != Version {
		conn.Close()
		return nil, fmt.Errorf("%w: server speaks %d, client %d", ErrVersion, ver, Version)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// readLoop demultiplexes response frames until the connection dies.
func (m *Mux) readLoop(conn net.Conn, gen uint64) {
	r := bufio.NewReader(conn)
	var cause error
	for {
		f, err := ReadFrame(r, m.maxPayload)
		if err != nil {
			cause = err
			break
		}
		m.mu.Lock()
		if m.gen != gen {
			m.mu.Unlock()
			return
		}
		pc, ok := m.pending[f.ID]
		if ok && f.Final() {
			delete(m.pending, f.ID)
		}
		m.mu.Unlock()
		if !ok {
			// A frame for a request nobody is waiting on: either a
			// canceled call (harmless, drop it) — unsolicited IDs also
			// land here and are ignored rather than trusted.
			continue
		}
		pc.push(f)
	}
	m.mu.Lock()
	if m.gen == gen {
		m.dropLocked(fmt.Errorf("wire: %s: connection lost: %w", m.addr, cause))
	}
	m.mu.Unlock()
}

// Stream is the response side of one call: a sequence of frames ending
// with FlagFinal.
type Stream struct {
	m    *Mux
	id   uint64
	pc   *pendingCall
	done bool
}

// Next returns the next response frame. After the FlagFinal frame has
// been returned it reports io.EOF.
func (s *Stream) Next(ctx context.Context) (Frame, error) {
	if s.done {
		return Frame{}, io.EOF
	}
	f, err := s.pc.next(ctx)
	if err != nil {
		s.Cancel()
		return Frame{}, err
	}
	if f.Final() {
		s.done = true
	}
	return f, nil
}

// Cancel abandons the call: later frames for its ID are dropped by the
// reader. It is safe to call at any time, including after completion.
func (s *Stream) Cancel() {
	s.m.mu.Lock()
	delete(s.m.pending, s.id)
	s.m.mu.Unlock()
}

// Call sends one request frame (the mux assigns its ID) and returns
// the response stream. A valid sc rides the frame as the FlagTrace
// header, so the server joins the caller's trace; a zero sc sends an
// untraced frame. Dial errors are returned as-is; write errors drop the
// connection.
func (m *Mux) Call(ctx context.Context, sc obs.SpanContext, typ uint8, payload []byte) (*Stream, error) {
	m.mu.Lock()
	if err := m.ensureLocked(ctx); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.nextID++
	id := m.nextID
	pc := newPendingCall()
	m.pending[id] = pc
	conn, w := m.conn, m.w
	m.mu.Unlock()

	// Coalesced writes: frames from concurrent callers accumulate in
	// the buffered writer, and only the last sender in the pack pays
	// for the flush — one syscall carries a whole batch of requests.
	m.writers.Add(1)
	m.wmu.Lock()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetWriteDeadline(dl)
	} else if m.timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(m.timeout))
	}
	err := WriteFrame(w, Frame{Type: typ, ID: id, Flags: FlagFinal, Trace: sc.Trace, Span: sc.Span, Payload: payload})
	if m.writers.Add(-1) == 0 && err == nil {
		err = w.Flush()
	}
	conn.SetWriteDeadline(time.Time{})
	m.wmu.Unlock()
	if err != nil {
		m.mu.Lock()
		if m.conn == conn {
			m.dropLocked(fmt.Errorf("wire: %s: write: %w", m.addr, err))
		}
		m.mu.Unlock()
		return nil, err
	}
	return &Stream{m: m, id: id, pc: pc}, nil
}
