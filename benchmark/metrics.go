package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit; an end-to-end metric also has
// the bound by which it may worsen before a change counts as a
// regression. BENCHMARK.json lists the same; smoke_test.go fails when the
// two drift apart.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// measures every one of them (the driver compares each metric on each
// workload), which is why they are named by operation class rather than
// by workload: "search" is a whole paged stream over the wire, or a
// SemDir creation including link materialization in the local
// workload; "read" is one whole-file read. README.md has the mapping.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"ops_per_s", "ops/s", 0.25},
	{"search_p50_ms", "ms", 0.25},
	{"search_p90_ms", "ms", 0.25},
	{"read_p50_ms", "ms", 0.25},
	{"heap_after_setup_mb", "MB", 0.05},
	{"stored_bytes_per_user_byte", "ratio", 0.02},
}

// perLayer are the single-layer metrics of the -trace run, named
// <module>.<metric>. A workload that does not exercise a layer reports
// 0 for it (the driver wants every name on every run); README.md says
// which workload moves which.
var perLayer = []metricDef{
	// Load generator: diagnostic tails and the workload-specific
	// timings that cannot be end-to-end metrics because only one
	// workload measures them.
	{Name: "client.search_p99_ms", Unit: "ms"},
	{Name: "client.read_p99_ms", Unit: "ms"},
	{Name: "client.write_sync_p50_ms", Unit: "ms"},
	{Name: "client.write_sync_p99_ms", Unit: "ms"},
	{Name: "client.results_per_search", Unit: "count"},
	{Name: "client.andrew_total_ms", Unit: "ms"},
	{Name: "client.smkdir_few_p50_ms", Unit: "ms"},
	{Name: "client.smkdir_many_p50_ms", Unit: "ms"},
	{Name: "client.reindex_dirty_ms", Unit: "ms"},
	{Name: "client.checkpoint_ms", Unit: "ms"},

	{Name: "remotefs.ping_rtt_us", Unit: "us"},
	{Name: "remotefs.rpc_self_us", Unit: "us"},
	{Name: "wire.bytes_per_op", Unit: "B"},
	{Name: "serve.admit_us", Unit: "us"},
	{Name: "serve.rejects", Unit: "count"},

	{Name: "hac.search_self_us", Unit: "us"},
	{Name: "hac.cache_hit_ratio", Unit: "ratio"},
	{Name: "hac.search_cached_us", Unit: "us"},
	{Name: "hac.search_uncached_us", Unit: "us"},
	{Name: "hac.sync_path_us", Unit: "us"},
	{Name: "hac.semdirs_reevaluated_per_write", Unit: "count"},
	{Name: "hac.links_per_s", Unit: "1/s"},
	{Name: "hac.andrew_slowdown_pct", Unit: "%"},

	{Name: "query.parse_us", Unit: "us"},
	{Name: "plan.build_us", Unit: "us"},
	{Name: "plan.exec_us", Unit: "us"},
	{Name: "plan.leaves_per_search", Unit: "count"},
	{Name: "plan.postings_skipped_per_search", Unit: "count"},

	{Name: "index.lookup_us", Unit: "us"},
	{Name: "index.paths_us_per_1k", Unit: "us"},
	{Name: "index.reindex_docs_per_s", Unit: "1/s"},
	{Name: "index.add_us_per_doc", Unit: "us"},
	{Name: "index.segments", Unit: "count"},
	{Name: "index.dead_docs", Unit: "count"},
	{Name: "index.merges", Unit: "count"},
	{Name: "index.merge_busy_ms", Unit: "ms"},
	{Name: "index.bytes_per_content_byte", Unit: "ratio"},

	{Name: "bitset.and_us_per_1k", Unit: "us"},
	{Name: "bitset.bytes_per_1k", Unit: "B"},

	{Name: "substrate.calls_per_hac_op", Unit: "count"},
	{Name: "substrate.busy_share", Unit: "ratio"},

	{Name: "cas.put_us_per_kb", Unit: "us"},
	{Name: "cas.snapshot_us", Unit: "us"},
	{Name: "cas.dedup_ratio", Unit: "ratio"},
	{Name: "cas.unique_bytes", Unit: "B"},

	{Name: "cluster.coordinator_self_us", Unit: "us"},
	{Name: "cluster.shard_call_p50_us", Unit: "us"},
	{Name: "cluster.straggler_gap_us", Unit: "us"},
	{Name: "cluster.fanout_per_search", Unit: "count"},
	{Name: "cluster.failovers", Unit: "count"},
	{Name: "cluster.duplicates_dropped", Unit: "count"},
	{Name: "remote.rpc_self_us", Unit: "us"},
	{Name: "remote.backend_search_us", Unit: "us"},

	{Name: "go.allocs_per_op", Unit: "count"},
	{Name: "go.alloc_bytes_per_op", Unit: "B"},
	{Name: "go.gc_cpu_share", Unit: "ratio"},
	{Name: "obs.trace_overhead_pct", Unit: "%"},
}

// result is what one run of one workload produces.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	Errors    []string           // first few failure messages, for stderr
	Notes     []string           // per-window detail, printed as comments
	Values    map[string]float64 // metric name → value
}

func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Values[name] = v
}

// note keeps the first few failure messages for the report.
func (r *result) note(err error) {
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// check counts one attempted operation and, when err is set, its
// failure.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.note(err)
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v,
// which it sorts in place. An empty sample reads 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 0 {
		return (c[n/2-1] + c[n/2]) / 2
	}
	return c[len(c)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// p50us times fn n times and returns the median in microseconds — one
// rung of the ladder. The calls are sequential and single-client, so a
// rung carries no queueing.
func p50us(n int, fn func(i int)) float64 {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		fn(i)
		v[i] = us(time.Since(t0))
	}
	return percentile(v, 0.5)
}
