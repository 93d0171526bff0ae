package hac

import (
	"hacfs/internal/obs"
)

// fsMetrics is the HAC layer's metric handle bundle, resolved once at
// construction so hot paths record through direct pointers (each record
// is an atomic op; with a Discard observer every handle is nil and each
// record is a single nil check). The metric name catalog is documented
// in DESIGN.md §9.
type fsMetrics struct {
	// Consistency passes (Sync / SyncAll / Reindex).
	syncTotal      *obs.Counter   // hac_sync_total
	syncSeconds    *obs.Histogram // hac_sync_seconds
	reindexTotal   *obs.Counter   // hac_reindex_total
	reindexSeconds *obs.Histogram // hac_reindex_seconds

	// Per-phase timings of one evaluation pass (the paper's "where
	// does the time go": scope gather vs. query eval vs. remote import
	// vs. link commit).
	phaseScope  *obs.Histogram // hac_sync_phase_seconds{phase="scope"}
	phaseEval   *obs.Histogram // hac_sync_phase_seconds{phase="eval"}
	phaseRemote *obs.Histogram // hac_sync_phase_seconds{phase="remote"}
	phaseCommit *obs.Histogram // hac_sync_phase_seconds{phase="commit"}

	// Per-semantic-directory evaluation counts.
	semdirEvals  *obs.Counter // hac_semdir_evals_total
	linksAdded   *obs.Counter // hac_links_added_total
	linksDropped *obs.Counter // hac_links_dropped_total

	// Auto-synced mutations (delta.go): passes run, single-link
	// membership checks made, directories that took the full evaluation.
	autoSyncs         *obs.Counter // hac_autosync_total
	autoSyncChecks    *obs.Counter // hac_autosync_delta_checks_total
	autoSyncFallbacks *obs.Counter // hac_autosync_fallbacks_total

	// Query front end.
	queryParseSeconds *obs.Histogram // hac_query_parse_seconds
	queryEvalSeconds  *obs.Histogram // hac_query_eval_seconds
	searchSeconds     *obs.Histogram // hac_search_seconds

	// Cost-based planner (plan package) and its result cache.
	plansBuilt      *obs.Counter // hac_plans_built_total
	planCacheHits   *obs.Counter // hac_plan_cache_hits_total
	planCacheMisses *obs.Counter // hac_plan_cache_misses_total
	postingsSkipped *obs.Counter // hac_postings_skipped_total

	// Remote namespace calls issued during evaluation.
	nsSearchSeconds *obs.Histogram // hac_ns_search_seconds
	nsErrors        *obs.Counter   // hac_ns_errors_total
}

// newFSMetrics resolves the handle bundle against o's registry (all
// handles nil when the observer records nothing).
func newFSMetrics(o *obs.Observer) *fsMetrics {
	r := o.Registry()
	phase := func(name string) *obs.Histogram {
		return r.Histogram("hac_sync_phase_seconds", nil, "phase", name)
	}
	return &fsMetrics{
		syncTotal:      r.Counter("hac_sync_total"),
		syncSeconds:    r.Histogram("hac_sync_seconds", nil),
		reindexTotal:   r.Counter("hac_reindex_total"),
		reindexSeconds: r.Histogram("hac_reindex_seconds", nil),

		phaseScope:  phase("scope"),
		phaseEval:   phase("eval"),
		phaseRemote: phase("remote"),
		phaseCommit: phase("commit"),

		semdirEvals:  r.Counter("hac_semdir_evals_total"),
		linksAdded:   r.Counter("hac_links_added_total"),
		linksDropped: r.Counter("hac_links_dropped_total"),

		autoSyncs:         r.Counter("hac_autosync_total"),
		autoSyncChecks:    r.Counter("hac_autosync_delta_checks_total"),
		autoSyncFallbacks: r.Counter("hac_autosync_fallbacks_total"),

		queryParseSeconds: r.Histogram("hac_query_parse_seconds", nil),
		queryEvalSeconds:  r.Histogram("hac_query_eval_seconds", nil),
		searchSeconds:     r.Histogram("hac_search_seconds", nil),

		plansBuilt:      r.Counter("hac_plans_built_total"),
		planCacheHits:   r.Counter("hac_plan_cache_hits_total"),
		planCacheMisses: r.Counter("hac_plan_cache_misses_total"),
		postingsSkipped: r.Counter("hac_postings_skipped_total"),

		nsSearchSeconds: r.Histogram("hac_ns_search_seconds", nil),
		nsErrors:        r.Counter("hac_ns_errors_total"),
	}
}

// registerVolumeGauges exposes this volume's structural counters as
// scrape-time gauges. When several volumes share one registry (the
// Default observer in tests), the most recently constructed volume
// wins — acceptable for process-level introspection, inject per-volume
// observers where isolation matters.
func (fs *FS) registerVolumeGauges(o *obs.Observer) {
	r := o.Registry()
	if r == nil {
		return
	}
	r.GaugeFunc("hac_directories", func() float64 {
		return float64(fs.Stats().Directories)
	})
	r.GaugeFunc("hac_semantic_dirs", func() float64 {
		return float64(fs.Stats().SemanticDirs)
	})
	r.GaugeFunc("hac_open_handles", func() float64 {
		return float64(fs.openHandles.Load())
	})
}

// Observer returns the volume's observability sink (never nil; a
// volume built with WithObserver(nil) reports the Discard observer).
func (fs *FS) Observer() *obs.Observer { return fs.obsv }
