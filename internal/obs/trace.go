package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mathrand "math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one operation within a Tracer's ID space.
type SpanID uint64

// TraceID identifies one request end to end: every span the request
// touches — across goroutines, volumes and processes — carries the
// same TraceID, minted once at the request's root and propagated via
// context locally and the wire trace header remotely (DESIGN.md §13).
// The zero TraceID means "no trace".
type TraceID [16]byte

// NewTraceID mints a random 128-bit trace identifier. IDs only need to
// be unique, not unpredictable, so this draws from math/rand/v2's
// ChaCha8 generator (itself seeded from the OS) rather than paying a
// getrandom syscall per request — trace minting sits on the hot path of
// every traced RPC.
func NewTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], mathrand.Uint64())
	binary.BigEndian.PutUint64(id[8:], mathrand.Uint64())
	return id
}

// IsZero reports whether the ID is the "no trace" sentinel.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// Words splits the ID into two 64-bit halves, for codecs that ship it
// as integers (the gob request fields).
func (t TraceID) Words() (hi, lo uint64) {
	return binary.BigEndian.Uint64(t[:8]), binary.BigEndian.Uint64(t[8:])
}

// TraceIDFromWords reassembles a TraceID split by Words.
func TraceIDFromWords(hi, lo uint64) TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], hi)
	binary.BigEndian.PutUint64(t[8:], lo)
	return t
}

// MarshalText renders the ID as hex (used by encoding/json).
func (t TraceID) MarshalText() ([]byte, error) {
	buf := make([]byte, hex.EncodedLen(len(t)))
	hex.Encode(buf, t[:])
	return buf, nil
}

// UnmarshalText parses the hex form.
func (t *TraceID) UnmarshalText(b []byte) error {
	id, err := ParseTraceID(string(b))
	if err != nil {
		return err
	}
	*t = id
	return nil
}

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if hex.DecodedLen(len(s)) != len(t) {
		return TraceID{}, fmt.Errorf("obs: trace id %q: want %d hex digits", s, 2*len(t))
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	return t, nil
}

// SpanContext is the propagatable part of a span: the trace it belongs
// to and its own ID, which children — local or remote — use as their
// parent link. It is what rides a context and the wire trace header.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a trace.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() }

type traceCtxKey struct{}
type tenantCtxKey struct{}

// ContextWith returns ctx carrying sc, so spans started downstream
// (Tracer.StartCtx) join sc's trace as children of sc.Span.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, sc)
}

// FromContext extracts the propagated span context, if any. The value
// under the key is either a boxed SpanContext (ContextWith) or a live
// *Span (StartCtx stores the span pointer directly — re-boxing a
// 24-byte struct on every span start is measurable on the RPC hot
// path; a pointer boxes for free).
func FromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	switch v := ctx.Value(traceCtxKey{}).(type) {
	case SpanContext:
		return v, true
	case *Span:
		return SpanContext{Trace: v.Trace, Span: v.ID}, true
	}
	return SpanContext{}, false
}

// WithTenant returns ctx carrying the tenant name a request runs on
// behalf of. Tenant is server-local baggage — the serving layer stamps
// it after admission; it is never read from the wire — and the slow-op
// log picks it up (see SlowLog).
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext extracts the tenant stamped by WithTenant ("" when
// absent).
func TenantFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	tenant, _ := ctx.Value(tenantCtxKey{}).(string)
	return tenant
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span records one timed operation: a name, start/end times, optional
// annotations, a parent link for nesting and an error message if the
// operation failed. Spans are created with Tracer.Start or Span.Child
// and enter the tracer's ring buffer when finished. A nil *Span is a
// no-op, so callers never branch on whether tracing is enabled.
type Span struct {
	ID     SpanID        `json:"id"`
	Parent SpanID        `json:"parent,omitempty"`
	Trace  TraceID       `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	// AttrsDropped counts annotations discarded once the span hit
	// MaxSpanAttrs, so a hot loop annotating per item cannot grow a
	// span without bound (the drops stay visible).
	AttrsDropped int    `json:"attrs_dropped,omitempty"`
	Err          string `json:"err,omitempty"`

	tracer *Tracer
	mu     sync.Mutex
	done   bool
	// attrsBuf inlines storage for the first annotations: nearly every
	// span carries one or two, and a separate slice allocation per span
	// is measurable on the RPC hot path.
	attrsBuf [2]Attr
}

// MaxSpanAttrs bounds the annotations one span retains; further
// Annotate calls increment AttrsDropped instead of appending.
const MaxSpanAttrs = 32

// Annotate attaches a key/value pair to the span. Annotating a
// finished span is a no-op (finished spans are shared with readers of
// the ring buffer); annotating past MaxSpanAttrs drops the pair and
// counts it in AttrsDropped.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		switch {
		case len(s.Attrs) >= MaxSpanAttrs:
			s.AttrsDropped++
		case s.Attrs == nil:
			s.Attrs = append(s.attrsBuf[:0], Attr{Key: key, Value: value})
		default:
			s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
		}
	}
	s.mu.Unlock()
}

// Child starts a new span parented to s, in the same tracer and the
// same trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.startIn(name, SpanContext{Trace: s.Trace, Span: s.ID}, nil)
}

// Context returns the span's propagatable identity, for manual
// propagation (ContextWith) or wire injection.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// Finish stamps the span's duration and retains it in the tracer's
// ring buffer. Finishing twice is a no-op.
func (s *Span) Finish() { s.FinishErr(nil) }

// FinishErr is Finish recording the operation's error (nil for
// success).
func (s *Span) FinishErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.Dur = time.Since(s.Start)
	if err != nil {
		s.Err = err.Error()
	}
	s.mu.Unlock()
	s.tracer.retain(s)
}

// DefSpanRing is the default number of finished spans a Tracer
// retains.
const DefSpanRing = 256

// Tracer hands out spans and retains the most recent finished ones in
// a bounded ring buffer, oldest evicted first. It is safe for
// concurrent use; a nil *Tracer is a no-op. The ring is lock-free —
// span retention sits on the request hot path, and a mutex there is
// measurable — so concurrent readers see a best-effort snapshot:
// complete and exactly ordered when writes are quiescent, possibly
// missing a slot mid-overwrite when they are not.
type Tracer struct {
	nextID atomic.Uint64
	idBase uint64 // random salt: keeps span IDs from colliding across processes

	ring []atomic.Pointer[Span]
	pos  atomic.Uint64 // spans retained over the tracer's lifetime
}

// NewTracer returns a tracer retaining up to capacity finished spans
// (capacity <= 0 selects DefSpanRing).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefSpanRing
	}
	// Span IDs are the counter XOR a random per-tracer base. Sequential
	// IDs alone would collide across processes (every tracer counts from
	// 1), and a merged cross-process trace would mis-link parents.
	var salt [8]byte
	if _, err := cryptorand.Read(salt[:]); err != nil {
		binary.BigEndian.PutUint64(salt[:], uint64(time.Now().UnixNano()))
	}
	return &Tracer{idBase: binary.BigEndian.Uint64(salt[:]), ring: make([]atomic.Pointer[Span], capacity)}
}

// Start begins a new root span in a freshly minted trace.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.startIn(name, SpanContext{}, nil)
}

// StartRemote begins a span as the child of a span context extracted
// from the wire (zero parent mints a fresh root). It is the server-side
// entry point for cross-process traces: unlike StartCtx it takes the
// parent directly, so the caller doesn't pay for threading the inbound
// context through a context.Context it is about to re-wrap anyway.
// kv pairs become the span's initial annotations, written before the
// span is visible to anyone else — cheaper than Annotate on the RPC
// hot path, which would take the span lock per pair.
func (t *Tracer) StartRemote(parent SpanContext, name string, kv ...string) *Span {
	if t == nil {
		return nil
	}
	return t.startIn(name, parent, kv)
}

// StartFrom begins a span that joins the trace propagated in ctx, like
// StartCtx, but does not wrap the span back into a context — for leaf
// operations with no traced children, where the extra context layer
// would be paid for nothing. kv pairs are initial annotations as in
// StartRemote.
func (t *Tracer) StartFrom(ctx context.Context, name string, kv ...string) *Span {
	if t == nil {
		return nil
	}
	sc, _ := FromContext(ctx)
	return t.startIn(name, sc, kv)
}

// StartCtx begins a span that joins the trace propagated in ctx — as a
// child of the propagated span — or mints a fresh trace when ctx
// carries none. The returned context carries the new span's identity,
// so spans started downstream (locally or across the wire) nest under
// it. A nil tracer returns (nil, ctx) unchanged, so propagation-only
// paths still forward an inbound trace.
func (t *Tracer) StartCtx(ctx context.Context, name string) (*Span, context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t == nil {
		return nil, ctx
	}
	sc, _ := FromContext(ctx)
	s := t.startIn(name, sc, nil)
	return s, context.WithValue(ctx, traceCtxKey{}, s)
}

// ContextWithSpan returns ctx carrying s's identity, like
// ContextWith(ctx, s.Context()) but without boxing a fresh value — the
// span is already on the heap. A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, s)
}

// startIn begins a span inside sc's trace (zero sc = fresh root). kv
// pairs become initial annotations, written lock-free: the span is not
// shared with any other goroutine until it finishes into the ring.
func (t *Tracer) startIn(name string, sc SpanContext, kv []string) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		sc.Trace = NewTraceID()
	}
	id := t.idBase ^ t.nextID.Add(1)
	if id == 0 { // 0 is the "no parent" sentinel; skip it
		id = t.idBase ^ t.nextID.Add(1)
	}
	s := &Span{
		ID:     SpanID(id),
		Parent: sc.Span,
		Trace:  sc.Trace,
		Name:   name,
		Start:  time.Now(),
		tracer: t,
	}
	if n := len(kv) / 2; n > 0 {
		if n <= len(s.attrsBuf) {
			s.Attrs = s.attrsBuf[:0]
		} else {
			s.Attrs = make([]Attr, 0, n)
		}
		for i := 0; i+1 < len(kv); i += 2 {
			s.Attrs = append(s.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
		}
	}
	return s
}

func (t *Tracer) retain(s *Span) {
	if t == nil {
		return
	}
	idx := t.pos.Add(1) - 1
	t.ring[idx%uint64(len(t.ring))].Store(s)
}

// Recent returns the retained spans, oldest first.
func (t *Tracer) Recent() []*Span {
	if t == nil {
		return nil
	}
	total := t.pos.Load()
	n := uint64(len(t.ring))
	start := uint64(0)
	if total > n {
		start = total - n
	}
	out := make([]*Span, 0, total-start)
	for i := start; i < total; i++ {
		if s := t.ring[i%n].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Total returns how many spans have finished over the tracer's
// lifetime (including those already evicted from the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.pos.Load()
}

// ByTrace returns the retained spans belonging to one trace, sorted by
// start time (ties by span ID) — one process's fragment of a
// distributed trace, the payload behind /debug/trace?id=.
func (t *Tracer) ByTrace(id TraceID) []*Span {
	if t == nil || id.IsZero() {
		return nil
	}
	var out []*Span
	for _, s := range t.Recent() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sortSpans(out)
	return out
}

// sortSpans orders spans by start time, ties broken by span ID, so
// JSON renderings are deterministic.
func sortSpans(spans []*Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
}

// WriteJSON renders the retained spans as a JSON array sorted by start
// time (stable across ring wraparound, so traces render
// deterministically), the payload behind /debug/spans. Finished spans
// carry their FinishErr message in the "err" field.
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.Recent()
	if spans == nil {
		spans = []*Span{}
	}
	sortSpans(spans)
	return writeSpanJSON(w, spans)
}

// writeSpanJSON streams spans as one indented JSON array.
func writeSpanJSON(w io.Writer, spans []*Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}
