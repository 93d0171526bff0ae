// Package obs is the observability core of the repository: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms) with Prometheus-text and expvar
// exposition, lightweight operation tracing (Span) with a bounded
// in-memory ring of recent spans, and the HTTP wiring that exposes
// both — plus pprof — behind a daemon's -debug-addr flag.
//
// The paper's evaluation (§4, §6) hinges on knowing where time goes:
// query evaluation vs. reindexing vs. link materialization. Every
// hot-path package records into this registry through an *Observer
// injected at construction (hac.WithObserver); the default observer is
// a process-wide singleton published under expvar.
//
// All metric handles are nil-safe: a nil *Counter, *Gauge, *Histogram,
// *Tracer or *Span is a no-op, so instrumented code never branches on
// whether observability is enabled. Disabling costs one nil check per
// record (see the hacbench "obs" experiment).
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is not
// usable; obtain counters from a Registry. A nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored — counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefLatencyBuckets are the default histogram bounds for operation
// latencies, in seconds: 10µs up to 10s, roughly ×2.5 per step.
var DefLatencyBuckets = []float64{
	0.00001, 0.000025, 0.0001, 0.00025, 0.001, 0.0025,
	0.01, 0.025, 0.1, 0.25, 1, 2.5, 10,
}

// DefWidthBuckets are default bounds for size-like observations
// (antichain widths, batch sizes).
var DefWidthBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Histogram is a fixed-bucket histogram in the Prometheus style:
// cumulative bucket counts plus a running sum and total count. Bucket
// bounds are upper bounds (inclusive); observations above the last
// bound land only in the implicit +Inf bucket. A nil Histogram is a
// no-op.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// ObserveSince records the latency since start, and is the idiomatic
// way to time a section: defer m.ObserveSince(time.Now()).
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.ObserveDuration(time.Since(start))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the bucket bounds and the cumulative count at or
// below each bound (Prometheus "le" semantics); the final implicit
// +Inf bucket equals Count().
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.bounds))
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}

// Labels attach dimensions to a metric name ({method="search"}).
// Registry methods take them as alternating key, value strings.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// renderWith renders the label set with one extra pair appended (used
// for the histogram "le" label).
func (l Labels) renderWith(k, v string) string {
	m := make(Labels, len(l)+1)
	for key, val := range l {
		m[key] = val
	}
	m[k] = v
	return m.render()
}

func pairs(kv []string) Labels {
	if len(kv) == 0 {
		return nil
	}
	l := make(Labels, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		l[kv[i]] = kv[i+1]
	}
	return l
}

// metric is one registered series.
type metric struct {
	name   string // family name, without labels
	labels Labels
	kind   string // "counter", "gauge", "histogram"

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	collect CollectorFunc // kind "collector": untyped samples
	hist    *Histogram
}

func (m *metric) key() string { return m.name + m.labels.render() }

// CollectorFunc emits samples computed at scrape time; register one
// with Registry.RegisterCollector to surface counters kept elsewhere
// (e.g. a FaultFS's per-op stats) without copying them continuously, or
// to emit several series from one computation (an index's Stats).
type CollectorFunc func(emit func(name string, labels Labels, value float64))

// Registry holds named metrics and renders them for scraping. The zero
// value is not usable; call NewRegistry. A nil *Registry hands out nil
// (no-op) metric handles, so code instrumented against a registry works
// unchanged with observability disabled.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order of keys

	expvarOnce sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) lookupOrCreate(name string, labels Labels, kind string, create func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + labels.render()
	if m, ok := r.metrics[key]; ok && m.kind == kind {
		return m
	}
	m := create()
	r.storeLocked(key, m)
	return m
}

// storeLocked puts m under key, which keeps its place in the
// registration order if it had one. A fresh record, never a mutated
// one: scrapes read the records they snapshotted without the lock.
func (r *Registry) storeLocked(key string, m *metric) {
	if _, existed := r.metrics[key]; !existed {
		r.order = append(r.order, key)
	}
	r.metrics[key] = m
}

// Counter returns the counter with the given name and optional
// alternating label key/value pairs, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labelKV ...string) *Counter {
	if r == nil {
		return nil
	}
	labels := pairs(labelKV)
	m := r.lookupOrCreate(name, labels, "counter", func() *metric {
		return &metric{name: name, labels: labels, kind: "counter", counter: &Counter{}}
	})
	return m.counter
}

// Gauge returns the gauge with the given name and labels, creating it
// on first use.
func (r *Registry) Gauge(name string, labelKV ...string) *Gauge {
	if r == nil {
		return nil
	}
	labels := pairs(labelKV)
	m := r.lookupOrCreate(name, labels, "gauge", func() *metric {
		return &metric{name: name, labels: labels, kind: "gauge", gauge: &Gauge{}}
	})
	return m.gauge
}

// GaugeFunc registers (or replaces) a gauge computed at scrape time.
// Replacement keeps re-construction simple: when several volumes share
// one registry, the most recently constructed one wins.
func (r *Registry) GaugeFunc(name string, fn func() float64, labelKV ...string) {
	if r == nil {
		return
	}
	labels := pairs(labelKV)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.storeLocked(name+labels.render(), &metric{name: name, labels: labels, kind: "gauge", fn: fn})
}

// Histogram returns the histogram with the given name, bounds and
// labels, creating it on first use. Pass nil bounds for
// DefLatencyBuckets. Bounds are fixed at creation; later calls with
// different bounds return the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64, labelKV ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	labels := pairs(labelKV)
	m := r.lookupOrCreate(name, labels, "histogram", func() *metric {
		return &metric{name: name, labels: labels, kind: "histogram", hist: newHistogram(bounds)}
	})
	return m.hist
}

// RegisterCollector registers (or replaces) the scrape-time collector
// under key. As with GaugeFunc, when several volumes share one
// registry, the most recently registered collector under a key wins.
func (r *Registry) RegisterCollector(key string, fn CollectorFunc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A space keeps collector keys apart from metric names.
	r.storeLocked("collector "+key, &metric{kind: "collector", collect: fn})
}

// snapshot returns the metrics in registration order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.order))
	for _, key := range r.order {
		out = append(out, r.metrics[key])
	}
	return out
}

// fmtFloat renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in shortest form.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4). Families are emitted in
// registration order with one # TYPE line each; a collector's samples
// come at its place in that order, as untyped series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	metrics := r.snapshot()
	typed := make(map[string]bool)
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, m := range metrics {
		if m.kind == "collector" {
			m.collect(func(name string, labels Labels, value float64) {
				p("%s%s %s\n", name, labels.render(), fmtFloat(value))
			})
			continue
		}
		if !typed[m.name] {
			typed[m.name] = true
			p("# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case "counter":
			p("%s%s %s\n", m.name, m.labels.render(), fmtFloat(float64(m.counter.Value())))
		case "gauge":
			v := 0.0
			if m.fn != nil {
				v = m.fn()
			} else {
				v = float64(m.gauge.Value())
			}
			p("%s%s %s\n", m.name, m.labels.render(), fmtFloat(v))
		case "histogram":
			bounds, cum := m.hist.Buckets()
			for i, b := range bounds {
				p("%s_bucket%s %d\n", m.name, m.labels.renderWith("le", fmtFloat(b)), cum[i])
			}
			p("%s_bucket%s %d\n", m.name, m.labels.renderWith("le", "+Inf"), m.hist.Count())
			p("%s_sum%s %s\n", m.name, m.labels.render(), fmtFloat(m.hist.Sum()))
			p("%s_count%s %d\n", m.name, m.labels.render(), m.hist.Count())
		}
	}
	return err
}

// Snapshot returns a flat name→value view of the registry (histograms
// contribute _count and _sum entries), used for the expvar export and
// the hacsh stats builtin.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	metrics := r.snapshot()
	out := make(map[string]float64, len(metrics))
	for _, m := range metrics {
		key := m.key()
		switch m.kind {
		case "collector":
			m.collect(func(name string, labels Labels, value float64) {
				out[name+labels.render()] = value
			})
		case "counter":
			out[key] = float64(m.counter.Value())
		case "gauge":
			if m.fn != nil {
				out[key] = m.fn()
			} else {
				out[key] = float64(m.gauge.Value())
			}
		case "histogram":
			out[key+"_count"] = float64(m.hist.Count())
			out[key+"_sum"] = m.hist.Sum()
		}
	}
	return out
}

// PublishExpvar exposes the registry under the given expvar name
// (visible at /debug/vars). Safe to call repeatedly; only the first
// call publishes, and a name collision with an unrelated publisher is
// swallowed rather than panicking.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	r.expvarOnce.Do(func() {
		defer func() { _ = recover() }() // expvar.Publish panics on reuse
		expvar.Publish(name, expvar.Func(func() interface{} { return r.Snapshot() }))
	})
}
