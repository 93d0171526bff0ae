package index

import (
	"fmt"
	"testing"

	"hacfs/internal/obs"
)

// observedIndex returns an index of n documents, each with one term of
// its own, publishing into a fresh registry.
func observedIndex(n int) (*Index, *obs.Registry) {
	ix := New()
	for i := 0; i < n; i++ {
		ix.Add(fmt.Sprintf("/d%d/f%d.txt", i%40, i), []byte(fmt.Sprintf("unique%d shared word%d", i, i%97)))
	}
	o := obs.NewObserver()
	ix.SetObserver(o)
	return ix, o.Registry()
}

// TestFootprintSeriesShareOneStats: index_terms and index_postings_bytes
// equal Stats after a scrape, and come from one Stats call: a scrape
// allocates what one Stats call does beyond a scrape of an empty index.
func TestFootprintSeriesShareOneStats(t *testing.T) {
	ix, r := observedIndex(5000)
	snap := r.Snapshot()
	st := ix.Stats()
	if snap["index_terms"] != float64(st.Terms) || snap["index_postings_bytes"] != float64(st.IndexBytes) {
		t.Fatalf("scraped terms=%g bytes=%g, Stats terms=%d bytes=%d",
			snap["index_terms"], snap["index_postings_bytes"], st.Terms, st.IndexBytes)
	}
	if raceEnabled {
		return
	}
	_, empty := observedIndex(0)
	base := testing.AllocsPerRun(20, func() { empty.Snapshot() })
	stats := testing.AllocsPerRun(20, func() { ix.Stats() })
	scrape := testing.AllocsPerRun(20, func() { r.Snapshot() })
	if stats == 0 || scrape > base+stats {
		t.Fatalf("a scrape allocates %v times, one Stats call %v and an empty index's scrape %v", scrape, stats, base)
	}
}
