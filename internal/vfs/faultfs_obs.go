package vfs

import (
	"sort"

	"hacfs/internal/obs"
)

// PublishMetrics surfaces the fault layer's counters into reg as
// scrape-time samples: the aggregate faultfs_{ops,injected,rejected,
// crashes}_total series plus per-operation faultfs_op_total{op=...} and
// faultfs_op_errors_total{op=...}. A collector (rather than live
// counters) keeps the fault path free of registry writes — Stats() is
// consulted only when someone scrapes.
func (fs *FaultFS) PublishMetrics(reg *obs.Registry) {
	reg.RegisterCollector("faultfs", func(emit func(name string, labels obs.Labels, value float64)) {
		s := fs.Stats()
		emit("faultfs_ops_total", nil, float64(s.Ops))
		emit("faultfs_injected_total", nil, float64(s.Injected))
		emit("faultfs_rejected_total", nil, float64(s.Rejected))
		emit("faultfs_crashes_total", nil, float64(s.Crashes))
		for _, op := range sortedOpKeys(s.PerOp) {
			emit("faultfs_op_total", obs.Labels{"op": op}, float64(s.PerOp[op]))
		}
		for _, op := range sortedOpKeys(s.Errors) {
			emit("faultfs_op_errors_total", obs.Labels{"op": op}, float64(s.Errors[op]))
		}
	})
}

// sortedOpKeys keeps collector output deterministic across scrapes.
func sortedOpKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
