package cluster

import (
	"strconv"

	"hacfs/internal/obs"
)

// metrics is the coordinator's handle bundle (DESIGN.md §14). Per-shard
// series are resolved lazily — shard sets change on reload — through
// the registry, which dedups by name+labels.
type metrics struct {
	reg *obs.Registry

	searches      *obs.Counter   // cluster_searches_total
	searchErrors  *obs.Counter   // cluster_search_errors_total
	fanoutWidth   *obs.Histogram // cluster_fanout_width
	stragglerSecs *obs.Histogram // cluster_straggler_seconds: slowest fetch of an opening fan-out
	partials      *obs.Counter   // cluster_partial_results_total
	dupsDropped   *obs.Counter   // cluster_duplicates_dropped_total
	resyncs       *obs.Counter   // cluster_resyncs_total
	resyncActive  *obs.Gauge     // cluster_resync_active
	cursorsActive *obs.Gauge     // cluster_cursors_active
}

// fanoutBounds buckets scatter widths (1..large).
var fanoutBounds = []float64{1, 2, 4, 8, 16, 32, 64}

func newMetrics(o *obs.Observer) *metrics {
	r := o.Registry()
	return &metrics{
		reg:           r,
		searches:      r.Counter("cluster_searches_total"),
		searchErrors:  r.Counter("cluster_search_errors_total"),
		fanoutWidth:   r.Histogram("cluster_fanout_width", fanoutBounds),
		stragglerSecs: r.Histogram("cluster_straggler_seconds", nil),
		partials:      r.Counter("cluster_partial_results_total"),
		dupsDropped:   r.Counter("cluster_duplicates_dropped_total"),
		resyncs:       r.Counter("cluster_resyncs_total"),
		resyncActive:  r.Gauge("cluster_resync_active"),
		cursorsActive: r.Gauge("cluster_cursors_active"),
	}
}

// shardSeconds times one shard fetch of a composite cursor (a refill),
// failovers included.
func (m *metrics) shardSeconds(shard int) *obs.Histogram {
	return m.reg.Histogram("cluster_shard_seconds", nil, "shard", strconv.Itoa(shard))
}

// failovers counts replica failovers (an attempt failed on one replica
// and moved to another) per shard.
func (m *metrics) failovers(shard int) *obs.Counter {
	return m.reg.Counter("cluster_replica_failovers_total", "shard", strconv.Itoa(shard))
}
