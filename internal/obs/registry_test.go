package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative ignored: counters are monotonic
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total"); again != c {
		t.Fatal("same name should return the same counter")
	}
	var nilC *Counter
	nilC.Add(1) // must not panic
	nilC.Inc()
	if nilC.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
}

// TestHistogramBucketBoundaries pins the bucket semantics: bounds are
// inclusive upper bounds, values above the last bound land only in the
// implicit +Inf bucket, and cumulative counts follow Prometheus "le"
// semantics.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{4, 1, 2}) // unsorted on purpose
	for _, v := range []float64{
		0.5, // below first bound     -> le=1
		1,   // exactly on a bound    -> le=1 (inclusive)
		1.5, // between bounds        -> le=2
		4,   // exactly the last      -> le=4
		4.5, // above the last        -> +Inf only
	} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	wantBounds := []float64{1, 2, 4}
	wantCum := []uint64{2, 3, 4}
	if len(bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
	}
	for i := range bounds {
		if bounds[i] != wantBounds[i] || cum[i] != wantCum[i] {
			t.Errorf("bucket %d: (%g, %d), want (%g, %d)",
				i, bounds[i], cum[i], wantBounds[i], wantCum[i])
		}
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 11.5 {
		t.Fatalf("sum = %g, want 11.5", got)
	}

	var nilH *Histogram
	nilH.Observe(1)
	nilH.ObserveDuration(0)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram should read 0")
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", nil)
	bounds, _ := h.Buckets()
	if len(bounds) != len(DefLatencyBuckets) {
		t.Fatalf("nil bounds should select DefLatencyBuckets (%d), got %d",
			len(DefLatencyBuckets), len(bounds))
	}
}

// TestWritePrometheusGolden pins the full text exposition: family TYPE
// lines in registration order, sorted label rendering, integer vs float
// formatting, cumulative histogram buckets with the implicit +Inf, and
// trailing collector samples. Values are picked to be exact in binary
// floating point so the output is byte-stable.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("greet_total").Add(3)
	r.Counter("rpc_total", "method", "search").Add(2)
	r.Counter("rpc_total", "method", "ping").Inc()
	r.Gauge("queue_depth").Set(7)
	r.GaugeFunc("temperature", func() float64 { return 1.5 })
	h := r.Histogram("op_seconds", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(4)
	r.RegisterCollector("ext", func(emit func(name string, labels Labels, value float64)) {
		emit("ext_total", Labels{"src": "disk"}, 8)
	})

	want := `# TYPE greet_total counter
greet_total 3
# TYPE rpc_total counter
rpc_total{method="search"} 2
rpc_total{method="ping"} 1
# TYPE queue_depth gauge
queue_depth 7
# TYPE temperature gauge
temperature 1.5
# TYPE op_seconds histogram
op_seconds_bucket{le="0.5"} 2
op_seconds_bucket{le="2"} 2
op_seconds_bucket{le="+Inf"} 3
op_seconds_sum 4.75
op_seconds_count 3
ext_total{src="disk"} 8
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegisterCollectorReplaces: registering again under a key replaces
// the collector, as GaugeFunc does, so a registry shared by many volumes
// scrapes the latest one only.
func TestRegisterCollectorReplaces(t *testing.T) {
	r := NewRegistry()
	for i := 1; i <= 3; i++ {
		v := float64(i)
		r.RegisterCollector("k", func(emit func(string, Labels, float64)) { emit("x", nil, v) })
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "x 3\n" {
		t.Fatalf("exposition = %q, want one sample from the last collector", got)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Histogram("b_seconds", []float64{1}).Observe(0.5)
	r.GaugeFunc("c", func() float64 { return 9 })
	snap := r.Snapshot()
	for key, want := range map[string]float64{
		"a_total":         2,
		"b_seconds_count": 1,
		"b_seconds_sum":   0.5,
		"c":               9,
	} {
		if got := snap[key]; got != want {
			t.Errorf("snapshot[%q] = %g, want %g", key, got, want)
		}
	}
}

func TestNilRegistryHandsOutNoopHandles(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	r.GaugeFunc("w", func() float64 { return 1 })
	r.RegisterCollector("none", func(emit func(string, Labels, float64)) {})
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
}

// TestRegistryRace exercises concurrent registration, recording and
// scraping; it exists to run under -race.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("race_total").Inc()
				r.Counter("race_labeled_total", "worker", "w").Add(2)
				r.Gauge("race_gauge").Add(1)
				r.Histogram("race_seconds", nil).Observe(0.001)
				r.GaugeFunc("race_fn", func() float64 { return float64(j) })
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Counter("race_total").Value(); got != 4*500 {
		t.Fatalf("race_total = %d, want %d", got, 4*500)
	}
}
