package index

import "hacfs/internal/obs"

// ixMetrics is the index's metric handle bundle. Handles are nil (and
// every record a no-op) until SetObserver is called, so a standalone
// Index works unchanged without observability.
type ixMetrics struct {
	docsIndexed  *obs.Counter   // index_docs_indexed_total
	docsRemoved  *obs.Counter   // index_docs_removed_total
	merges       *obs.Counter   // index_merges_total
	mergeSeconds *obs.Histogram // index_merge_seconds
	mergeAmp     *obs.Histogram // index_merge_amplification (input slots / output docs)
	// activeReclaimed counts active-segment slots whose postings were
	// taken back in place: a replaced document or a reclaimed tombstone.
	activeReclaimed *obs.Counter // index_active_reclaimed_total
}

// SetObserver directs the index's metrics to o: commit/tombstone/merge
// counters, merge duration and write-amplification histograms, plus
// scrape-time gauges for the live document count, the distinct-term
// count, the approximate postings footprint, the resident segment count
// and the live ratio (live docs / ID-space slots — low values mean
// compaction is overdue). Called by hac.New; safe to call again to
// redirect.
func (ix *Index) SetObserver(o *obs.Observer) {
	r := o.Registry()
	ix.mu.Lock()
	ix.met = ixMetrics{
		docsIndexed:  r.Counter("index_docs_indexed_total"),
		docsRemoved:  r.Counter("index_docs_removed_total"),
		merges:       r.Counter("index_merges_total"),
		mergeSeconds: r.Histogram("index_merge_seconds", obs.DefLatencyBuckets),
		mergeAmp:     r.Histogram("index_merge_amplification", obs.DefWidthBuckets),

		activeReclaimed: r.Counter("index_active_reclaimed_total"),
	}
	ix.mu.Unlock()
	if r == nil {
		return
	}
	r.GaugeFunc("index_docs", func() float64 {
		return float64(ix.NumDocs())
	})
	// Stats gathers every term of every segment, so one scrape calls it
	// once for both series.
	r.RegisterCollector("index", func(emit func(string, obs.Labels, float64)) {
		st := ix.Stats()
		emit("index_terms", nil, float64(st.Terms))
		emit("index_postings_bytes", nil, float64(st.IndexBytes))
	})
	r.GaugeFunc("index_segments", func() float64 {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		return float64(len(ix.sealed) + 1)
	})
	r.GaugeFunc("index_live_ratio", func() float64 {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		if ix.totalSlots == 0 {
			return 1
		}
		return float64(ix.liveDocs) / float64(ix.totalSlots)
	})
}
