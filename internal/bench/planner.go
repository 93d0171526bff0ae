package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs"
)

// ---------------------------------------------------------------------
// Cost-based planner — paged Search vs the pre-planner pipeline
// ---------------------------------------------------------------------

// PlannerQueryResult is one (query, scope) row of the planner
// experiment: the naive pipeline's latency against the planner's, cold
// (cache bypassed) and warm (second identical search).
type PlannerQueryResult struct {
	Query   string
	Scope   string
	Matches int

	NaiveP50 time.Duration
	NaiveP99 time.Duration
	ColdP50  time.Duration
	ColdP99  time.Duration
	WarmP50  time.Duration
	WarmP99  time.Duration

	PostingsSkipped int // scope pruning: postings never touched, cold run

	SpeedupCold float64 // NaiveP99 / ColdP99
	SpeedupWarm float64 // NaiveP99 / WarmP99
}

// PlannerResult reports the planner experiment: time-to-first-page of
// the redesigned Search against the pre-planner pipeline (evaluate the
// whole query over the whole index, materialize and sort every matching
// path, filter by scope prefix), over the Table-4 selectivity classes.
type PlannerResult struct {
	Files   int
	Samples int
	Queries []PlannerQueryResult
}

// Planner measures the cost-based planner experiment over a generated
// corpus: for each (query, scope) pair it times `samples` runs of the
// naive pipeline and of the planner path cold and warm, and reports
// latency percentiles and speedups. The planner rows measure
// time-to-first-page — the latency a paged client actually pays —
// which is the redesign's point: evaluation prunes out-of-scope
// postings and path materialization is lazy.
func Planner(spec corpus.Spec, samples int) (PlannerResult, error) {
	if samples <= 0 {
		samples = 300
	}
	mem := vfs.New()
	if err := mem.MkdirAll("/db"); err != nil {
		return PlannerResult{}, err
	}
	man, err := corpus.Generate(mem, "/db", spec)
	if err != nil {
		return PlannerResult{}, err
	}
	hfs := hac.New(mem, hac.Options{})
	if _, err := hfs.Reindex("/db"); err != nil {
		return PlannerResult{}, err
	}

	// A directory holding many-match files, for the scoped row.
	manyFiles := man.MarkerFiles["markermany"]
	if len(manyFiles) == 0 {
		return PlannerResult{}, fmt.Errorf("bench: corpus planted no markermany files")
	}
	subdir := vfs.Dir(manyFiles[0])

	cases := []struct{ q, scope string }{
		{"markermany", "/db"},                   // Table-4 many-match class
		{"markermany AND markermid", "/db"},     // AND-chain reordering
		{"markermany AND NOT markerfew", "/db"}, // NOT pushdown
		{"markermany", subdir},                  // dir-scoped: composite-index pruning
		{"markerfew", "/db"},                    // few-match class (sanity: no regression)
	}

	res := PlannerResult{Files: len(man.Files), Samples: samples}
	ctx := context.Background()
	for _, tc := range cases {
		ast, err := query.Parse(tc.q)
		if err != nil {
			return res, err
		}

		row := PlannerQueryResult{Query: tc.q, Scope: tc.scope}

		// Naive: the reference evaluator fetches every leaf whole from
		// the snapshot — no reordering, no scope pruning, no caching —
		// all paths materialized and sorted, scope applied as an
		// afterthought on path strings.
		runtime.GC() // each mode starts with the previous mode's garbage collected
		naive := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			start := time.Now()
			snap := hfs.Index().Snapshot()
			bm, err := query.Eval(ast, &plan.SnapEnv{Snap: snap})
			if err != nil {
				return res, err
			}
			paths := snap.Paths(bm)
			n := 0
			for _, p := range paths {
				if tc.scope == "/db" || vfs.HasPrefix(p, tc.scope) {
					n++
				}
			}
			naive = append(naive, time.Since(start))
			if i == 0 {
				row.Matches = n
			}
		}

		// Planner, cold: cache bypassed, first page materialized.
		runtime.GC()
		cold := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			start := time.Now()
			r, err := hfs.Search(ctx, tc.q, hac.WithScope(tc.scope), hac.WithoutCache())
			if err != nil {
				return res, err
			}
			r.Next()
			cold = append(cold, time.Since(start))
			if i == 0 {
				st := r.Stats()
				row.PostingsSkipped = st.PostingsSkipped
				if st.Matches != row.Matches {
					return res, fmt.Errorf("bench: planner disagrees with naive on %q in %s: %d vs %d",
						tc.q, tc.scope, st.Matches, row.Matches)
				}
			}
		}

		// Planner, warm: identical searches served from the epoch-keyed
		// result cache.
		if _, err := hfs.Search(ctx, tc.q, hac.WithScope(tc.scope)); err != nil {
			return res, err
		}
		runtime.GC()
		warm := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			start := time.Now()
			r, err := hfs.Search(ctx, tc.q, hac.WithScope(tc.scope))
			if err != nil {
				return res, err
			}
			r.Next()
			warm = append(warm, time.Since(start))
		}

		row.NaiveP50, row.NaiveP99 = percentile(naive, 0.50), percentile(naive, 0.99)
		row.ColdP50, row.ColdP99 = percentile(cold, 0.50), percentile(cold, 0.99)
		row.WarmP50, row.WarmP99 = percentile(warm, 0.50), percentile(warm, 0.99)
		if row.ColdP99 > 0 {
			row.SpeedupCold = float64(row.NaiveP99) / float64(row.ColdP99)
		}
		if row.WarmP99 > 0 {
			row.SpeedupWarm = float64(row.NaiveP99) / float64(row.WarmP99)
		}
		res.Queries = append(res.Queries, row)
	}
	return res, nil
}
