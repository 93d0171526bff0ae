package wire

import (
	"context"
	"time"

	"hacfs/internal/obs"
)

// Method describes one RPC of a service to the shared call layer.
type Method struct {
	Label string // value of the service's method label in <family>_rpc_*
	Span  string // client span name
	// Mint makes a call start a trace of its own when ctx carries none.
	// Without it the method joins a caller's trace but never opens one,
	// so a storm of cheap untraced ops does not fill the span ring with
	// single-span traces.
	Mint bool
}

// method is a Method with its metric handles resolved.
type method struct {
	Method
	calls   *obs.Counter   // <family>_rpc_total{<label>=...}
	errors  *obs.Counter   // <family>_rpc_errors_total{<label>=...}
	seconds *obs.Histogram // <family>_rpc_seconds{<label>=...}
}

// Client is the call layer every service's client shares: one mux
// plus, around each call, the method's metrics, the client span whose
// context rides the request frame, the dial-failure count and the
// typed-error decode.
type Client struct {
	mux     *mux
	family  string
	label   string
	obsv    *obs.Observer
	methods []method
}

// NewClient returns a lazy client for the server at addr. Its series
// are named <family>_rpc_total/_errors_total/_seconds, labelled
// label=<Method.Label>, plus <family>_dial_failures_total; calls name
// their method by index into methods. Metrics and spans go to
// obs.Default() until SetObserver.
func NewClient(addr string, maxPayload uint32, family, label string, methods []Method) *Client {
	c := &Client{
		mux:     newMux(addr, 10*time.Second, maxPayload),
		family:  family,
		label:   label,
		methods: make([]method, len(methods)),
	}
	for i, m := range methods {
		c.methods[i].Method = m
	}
	c.SetObserver(obs.Default())
	return c
}

// SetObserver redirects the client's metrics and spans (nil discards
// them). Call it before the client is shared between goroutines.
func (c *Client) SetObserver(o *obs.Observer) {
	if o == nil {
		o = obs.Discard()
	}
	c.obsv = o
	r := o.Registry()
	for i := range c.methods {
		m := &c.methods[i]
		m.calls = r.Counter(c.family+"_rpc_total", c.label, m.Label)
		m.errors = r.Counter(c.family+"_rpc_errors_total", c.label, m.Label)
		m.seconds = r.Histogram(c.family+"_rpc_seconds", nil, c.label, m.Label)
	}
	c.mux.setDialFailures(r.Counter(c.family + "_dial_failures_total"))
}

// Addr returns the server address the client dials.
func (c *Client) Addr() string { return c.mux.Addr() }

// SetTimeout changes the dial and frame-write deadline.
func (c *Client) SetTimeout(d time.Duration) { c.mux.SetTimeout(d) }

// Close drops the connection; later calls re-dial.
func (c *Client) Close() error { return c.mux.Close() }

// rpc is one call in progress: what end needs to account for it.
type rpc struct {
	me    *method
	sp    *obs.Span
	start time.Time
}

// begin opens the client span of one call of method m and returns the
// span context to stamp on the request frame. kv pairs annotate the
// span.
func (c *Client) begin(ctx context.Context, m int, kv []string) (rpc, obs.SpanContext) {
	r := rpc{me: &c.methods[m], start: time.Now()}
	sc, traced := obs.FromContext(ctx)
	if traced || r.me.Mint {
		if r.sp = c.obsv.Tracer().StartRemote(sc, r.me.Span, kv...); r.sp != nil {
			sc = r.sp.Context()
		}
	}
	return r, sc
}

func (r rpc) end(err error) {
	r.sp.FinishErr(err)
	r.me.calls.Add(1)
	r.me.seconds.ObserveSince(r.start)
	if err != nil {
		r.me.errors.Add(1)
	}
}

// Call performs one call of method m that a single frame answers. A
// TypeErr frame comes back as the error it carries. kv pairs annotate
// the client span. The frame's payload is the caller's to keep: it is
// read into a slice of its own, exactly the payload's size, because
// callers return it as is (a fetched document, a file's bytes).
//
// Call and Stream keep everything between the caller and the mux in
// their own frame, with no deferred closures: service handlers call
// them from request goroutines (a cluster coordinator fetching from a
// shard), where each extra frame on the way down to the socket write
// is stack the runtime has to grow per request.
func (c *Client) Call(ctx context.Context, m int, typ uint8, payload []byte, kv ...string) (Frame, error) {
	r, sc := c.begin(ctx, m, kv)
	var f Frame
	st, err := c.mux.call(ctx, sc, typ, payload, false)
	if err == nil {
		f, err = st.next(ctx)
		st.cancel()
		if err == nil && f.Type == TypeErr {
			err = frameError(f)
		}
	}
	r.end(err)
	return f, err
}

// Stream performs one call of method m and hands every response frame
// to fn, the last one flagged final. A TypeErr frame ends the call with
// the error it carries, as does an error from fn.
//
// A frame's payload belongs to the wire again once fn returns: the mux
// reads a later frame — of this stream or another on the connection —
// into the same buffer. fn must decode or copy what it keeps (Dec's
// accessors that return strings copy; Bytes aliases).
func (c *Client) Stream(ctx context.Context, m int, typ uint8, payload []byte, fn func(Frame) error, kv ...string) error {
	r, sc := c.begin(ctx, m, kv)
	st, err := c.mux.call(ctx, sc, typ, payload, true)
	for err == nil {
		var f Frame
		if f, err = st.next(ctx); err != nil {
			break
		}
		if f.Type == TypeErr {
			err = frameError(f)
		} else {
			err = fn(f)
		}
		c.mux.release(f.Payload)
		if err == nil && f.Final() {
			break
		}
	}
	if st != nil {
		st.cancel()
	}
	r.end(err)
	return err
}
