package hac

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hacfs/internal/andrew"
	"hacfs/internal/obs"
	"hacfs/internal/vfs"
)

// scrape fetches /metrics from a handler over a real HTTP round trip
// and returns the exposition text.
func scrape(t *testing.T, o *obs.Observer) string {
	t.Helper()
	srv := httptest.NewServer(obs.Handler(o))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// series extracts one sample value from Prometheus exposition text.
func series(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %q not found in exposition", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", name, m[1], err)
	}
	return v
}

// TestObservabilityEndToEnd is the issue's acceptance check: a Sync
// over the Andrew source tree must produce non-zero per-phase
// histograms and at least one retained span per semantic directory,
// all verified by scraping the debug endpoint like a real collector
// would.
func TestObservabilityEndToEnd(t *testing.T) {
	o := obs.NewObserver()
	fs := New(vfs.New(), Options{Observer: o, VerifyMatches: true})

	spec := andrew.Spec{Dirs: 6, FilesPerDir: 5, FileSize: 512}
	if err := andrew.GenerateSource(fs, "/src", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	queries := []string{"compute", "andrew AND mix", "au0x0", "compute AND NOT au1x1"}
	for i, q := range queries {
		if err := fs.SemDir(fmt.Sprintf("/q%d", i), q); err != nil {
			t.Fatalf("semdir %q: %v", q, err)
		}
	}
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := searchSorted(fs, "compute", "/src"); err != nil {
		t.Fatal(err)
	}

	text := scrape(t, o)

	// Counters and per-phase histograms must have moved.
	if got := series(t, text, "hac_sync_total"); got < 1 {
		t.Errorf("hac_sync_total = %g, want >= 1", got)
	}
	if got := series(t, text, "hac_reindex_total"); got != 1 {
		t.Errorf("hac_reindex_total = %g, want 1", got)
	}
	if got := series(t, text, "hac_semdir_evals_total"); got < float64(len(queries)) {
		t.Errorf("hac_semdir_evals_total = %g, want >= %d", got, len(queries))
	}
	for _, phase := range []string{"scope", "eval", "commit"} {
		name := fmt.Sprintf(`hac_sync_phase_seconds_count{phase=%q}`, phase)
		if got := series(t, text, name); got < 1 {
			t.Errorf("%s = %g, want >= 1", name, got)
		}
	}
	for _, name := range []string{
		"hac_query_parse_seconds_count",
		"hac_query_eval_seconds_count",
		"hac_search_seconds_count",
		"hac_links_added_total",
		"index_docs_indexed_total",
	} {
		if got := series(t, text, name); got < 1 {
			t.Errorf("%s = %g, want >= 1", name, got)
		}
	}
	// Scrape-time gauges reflect the volume.
	if got := series(t, text, "hac_semantic_dirs"); got != float64(len(queries)) {
		t.Errorf("hac_semantic_dirs = %g, want %d", got, len(queries))
	}
	if got := series(t, text, "index_docs"); got != float64(spec.Dirs*spec.FilesPerDir) {
		t.Errorf("index_docs = %g, want %d", got, spec.Dirs*spec.FilesPerDir)
	}
	if got := series(t, text, "hac_depgraph_nodes"); got < float64(len(queries)) {
		t.Errorf("hac_depgraph_nodes = %g, want >= %d", got, len(queries))
	}

	// At least one retained "hac.eval" span per semantic directory,
	// each annotated with the directory it evaluated.
	evalDirs := map[string]bool{}
	for _, sp := range o.Tracer().Recent() {
		if sp.Name != "hac.eval" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "dir" {
				evalDirs[a.Value] = true
			}
		}
	}
	for i := range queries {
		dir := fmt.Sprintf("/q%d", i)
		if !evalDirs[dir] {
			t.Errorf("no retained hac.eval span for %s (got %v)", dir, evalDirs)
		}
	}
}

// TestObserverConcurrentScrape races Sync, Search and metric scrapes
// against each other; it exists to run under -race.
func TestObserverConcurrentScrape(t *testing.T) {
	o := obs.NewObserver()
	fs := New(vfs.New(), Options{Observer: o})
	if err := andrew.GenerateSource(fs, "/src", andrew.Spec{Dirs: 3, FilesPerDir: 3, FileSize: 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fs.SemDir(fmt.Sprintf("/q%d", i), "compute"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := fs.SyncAll(); err != nil {
					t.Errorf("SyncAll: %v", err)
					return
				}
				if _, err := searchSorted(fs, "mix", "/src"); err != nil {
					t.Errorf("Search: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var b strings.Builder
			if err := o.Registry().WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			_ = o.Registry().Snapshot()
			_ = o.Tracer().Recent()
		}
	}()
	wg.Wait()
	if got := o.Registry().Counter("hac_sync_total").Value(); got < 1 {
		t.Fatalf("hac_sync_total = %d after concurrent syncs", got)
	}
}
