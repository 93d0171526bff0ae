// Package bench implements the paper's evaluation (§4): one experiment
// per table, plus the ablations listed in DESIGN.md. Both the
// testing.B benchmarks in bench_test.go and the cmd/hacbench table
// printer drive these functions, so the numbers in EXPERIMENTS.md are
// regenerated from exactly this code.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hacfs/internal/andrew"
	"hacfs/internal/baseline"
	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/index"
	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs"
)

// ---------------------------------------------------------------------
// Table 1 — Andrew Benchmark, UNIX vs HAC
// ---------------------------------------------------------------------

// Table1Row is one file system's Andrew result.
type Table1Row struct {
	System string
	Result andrew.Result
}

// Table1 runs the Andrew benchmark on the raw substrate ("UNIX") and on
// a HAC volume over an identical substrate.
func Table1(spec andrew.Spec) ([]Table1Row, error) {
	var rows []Table1Row

	raw := vfs.New()
	if err := andrew.GenerateSource(raw, "/src", spec); err != nil {
		return nil, err
	}
	rawRes, err := andrew.Run(raw, "/src", "/dst", spec)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{System: "UNIX", Result: rawRes})

	hacFS := hac.New(vfs.New(), hac.Options{})
	if err := andrew.GenerateSource(hacFS, "/src", spec); err != nil {
		return nil, err
	}
	hacRes, err := andrew.Run(hacFS, "/src", "/dst", spec)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{System: "HAC", Result: hacRes})
	return rows, nil
}

// Slowdown returns (b-a)/a as a percentage.
func Slowdown(a, b time.Duration) float64 {
	if a <= 0 {
		return 0
	}
	return 100 * float64(b-a) / float64(a)
}

// ---------------------------------------------------------------------
// Table 2 — % slowdown of user-level file systems vs the substrate
// ---------------------------------------------------------------------

// Table2Row is one layered file system's slowdown.
type Table2Row struct {
	System      string
	SlowdownPct float64
	Total       time.Duration
	RawTotal    time.Duration
}

// Table2 measures the Andrew slowdown of the Jade-style, Pseudo-style
// and HAC layers relative to the raw substrate. Each layer runs over
// its own fresh substrate with the same workload.
func Table2(spec andrew.Spec) ([]Table2Row, error) {
	run := func(fsys vfs.FileSystem) (time.Duration, error) {
		if err := andrew.GenerateSource(fsys, "/src", spec); err != nil {
			return 0, err
		}
		res, err := andrew.Run(fsys, "/src", "/dst", spec)
		if err != nil {
			return 0, err
		}
		return res.Total(), nil
	}

	rawTotal, err := run(vfs.New())
	if err != nil {
		return nil, err
	}

	pseudo := baseline.NewPseudo(vfs.New())
	defer pseudo.Close()

	systems := []struct {
		name string
		fsys vfs.FileSystem
	}{
		{"Jade FS", baseline.NewJade(vfs.New())},
		{"Pseudo FS", pseudo},
		{"HAC FS", hac.New(vfs.New(), hac.Options{})},
	}
	var rows []Table2Row
	for _, s := range systems {
		total, err := run(s.fsys)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		rows = append(rows, Table2Row{
			System:      s.name,
			SlowdownPct: Slowdown(rawTotal, total),
			Total:       total,
			RawTotal:    rawTotal,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Table 3 — indexing time and space, direct vs through HAC
// ---------------------------------------------------------------------

// Table3Result compares indexing a corpus directly over the substrate
// with indexing the same corpus through the HAC layer.
type Table3Result struct {
	Files       int
	CorpusBytes int

	DirectTime time.Duration
	HACTime    time.Duration

	DirectIndexBytes int
	HACIndexBytes    int // index + HAC's own structures
}

// TimeOverheadPct returns the indexing-time overhead of HAC.
func (r Table3Result) TimeOverheadPct() float64 {
	return Slowdown(r.DirectTime, r.HACTime)
}

// SpaceOverheadPct returns the index-space overhead of HAC.
func (r Table3Result) SpaceOverheadPct() float64 {
	if r.DirectIndexBytes == 0 {
		return 0
	}
	return 100 * float64(r.HACIndexBytes-r.DirectIndexBytes) / float64(r.DirectIndexBytes)
}

// Table3 builds the corpus twice (identical content) and indexes one
// copy directly and one through HAC, as the paper did with Glimpse.
// Each side is timed reps times on fresh indexes over the same
// substrate, alternating, and the minimum is reported (the measurement
// least disturbed by the garbage collector).
func Table3(spec corpus.Spec) (Table3Result, error) {
	return Table3Reps(spec, 3)
}

// Table3Reps is Table3 with an explicit repetition count.
func Table3Reps(spec corpus.Spec, reps int) (Table3Result, error) {
	var res Table3Result
	if reps <= 0 {
		reps = 1
	}

	// One substrate for the direct side, one for the HAC side — same
	// content.
	raw := vfs.New()
	if err := raw.MkdirAll("/db"); err != nil {
		return res, err
	}
	man, err := corpus.Generate(raw, "/db", spec)
	if err != nil {
		return res, err
	}
	res.Files = len(man.Files)
	res.CorpusBytes = man.TotalBytes

	hacUnder := vfs.New()
	if err := hacUnder.MkdirAll("/db"); err != nil {
		return res, err
	}
	if _, err := corpus.Generate(hacUnder, "/db", spec); err != nil {
		return res, err
	}

	for r := 0; r < reps; r++ {
		// Direct: Glimpse over UNIX, fresh index.
		runtime.GC()
		ix := index.New()
		start := time.Now()
		if _, _, _, err := ix.SyncTree(raw, "/db", nil); err != nil {
			return res, err
		}
		d := time.Since(start)
		if res.DirectTime == 0 || d < res.DirectTime {
			res.DirectTime = d
		}
		res.DirectIndexBytes = ix.Stats().IndexBytes

		// Through HAC: fresh layer over the prepared substrate.
		runtime.GC()
		hacFS := hac.New(hacUnder, hac.Options{})
		start = time.Now()
		if _, err := hacFS.Reindex("/db"); err != nil {
			return res, err
		}
		h := time.Since(start)
		if res.HACTime == 0 || h < res.HACTime {
			res.HACTime = h
		}
		res.HACIndexBytes = hacFS.Index().Stats().IndexBytes + hacFS.MetadataBytes()
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Table 4 — query cost: smkdir vs direct search
// ---------------------------------------------------------------------

// Table4Row compares one query class.
type Table4Row struct {
	Class       string // "few", "intermediate", "many"
	Query       string
	Matches     int
	Direct      time.Duration // Glimpse on UNIX
	HAC         time.Duration // smkdir on HAC
	OverheadPct float64
}

// Table4Env is the prepared state for Table 4 runs: one corpus, indexed
// both directly and under HAC.
type Table4Env struct {
	Raw      *vfs.MemFS
	Ix       *index.Index
	HacFS    *hac.FS
	Manifest *corpus.Manifest
}

// NewTable4Env generates and indexes the corpus once; individual query
// classes are then measured against it.
func NewTable4Env(spec corpus.Spec) (*Table4Env, error) {
	raw := vfs.New()
	if err := raw.MkdirAll("/db"); err != nil {
		return nil, err
	}
	man, err := corpus.Generate(raw, "/db", spec)
	if err != nil {
		return nil, err
	}
	ix := index.New()
	if _, _, _, err := ix.SyncTree(raw, "/db", nil); err != nil {
		return nil, err
	}

	// VerifyMatches puts HAC's engine on the same footing as the direct
	// search: both confirm candidates by scanning file content, like
	// Glimpse's grep pass.
	hacFS := hac.New(vfs.New(), hac.Options{VerifyMatches: true})
	if err := hacFS.MkdirAll("/db"); err != nil {
		return nil, err
	}
	if _, err := corpus.Generate(hacFS, "/db", spec); err != nil {
		return nil, err
	}
	if _, err := hacFS.Reindex("/db"); err != nil {
		return nil, err
	}
	return &Table4Env{Raw: raw, Ix: ix, HacFS: hacFS, Manifest: man}, nil
}

// DirectSearch is "Glimpse on UNIX": evaluate the query on the index,
// then — as Glimpse does to print matching lines — read every matching
// file and scan it for the query terms. It returns the matched paths.
func (e *Table4Env) DirectSearch(q string) ([]string, error) {
	ast, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	snap := e.Ix.Snapshot()
	bm, err := query.Eval(ast, &plan.SnapEnv{Snap: snap})
	if err != nil {
		return nil, err
	}
	paths := snap.Paths(bm)
	terms := query.Terms(ast)
	for _, p := range paths {
		data, err := e.Raw.ReadFile(p)
		if err != nil {
			return nil, err
		}
		scanForTerms(data, terms)
	}
	return paths, nil
}

// HACSmkdir is the HAC side of the paper's measurement: create a
// semantic directory for the query. The engine (with VerifyMatches)
// evaluates the query and scans each candidate exactly as DirectSearch
// does; HAC's additional cost is the directory, its structures, and the
// materialized links. It returns the number of links created.
func (e *Table4Env) HACSmkdir(dir, q string) (int, error) {
	if err := e.HacFS.SemDir(dir, q); err != nil {
		return 0, err
	}
	entries, err := e.HacFS.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	return len(entries), nil
}

// Cleanup removes a semantic directory created by HACSmkdir so the next
// measurement starts clean.
func (e *Table4Env) Cleanup(dir string) error { return e.HacFS.RemoveAll(dir) }

// scanForTerms is the grep phase: count term occurrences in content.
// The result is returned so the scan cannot be optimized away.
func scanForTerms(data []byte, terms []string) int {
	total := 0
	content := strings.ToLower(string(data))
	for _, t := range terms {
		total += strings.Count(content, t)
	}
	return total
}

// Table4 measures the three query classes of the paper: very few
// matches, an intermediate number, and a lot of matches.
func Table4(spec corpus.Spec, reps int) ([]Table4Row, error) {
	if reps <= 0 {
		reps = 3
	}
	env, err := NewTable4Env(spec)
	if err != nil {
		return nil, err
	}
	classes := []struct {
		name  string
		query string
	}{
		{"few", "markerfew"},
		{"intermediate", "markermid"},
		{"many", "markermany"},
	}
	var rows []Table4Row
	seq := 0
	for _, c := range classes {
		row := Table4Row{Class: c.name, Query: c.query}

		// Warm both sides once, unmeasured: first-touch and structure
		// growth would otherwise be charged to whichever side runs
		// first.
		if _, err := env.DirectSearch(c.query); err != nil {
			return nil, err
		}
		warm := fmt.Sprintf("/w%d", seq)
		seq++
		if _, err := env.HACSmkdir(warm, c.query); err != nil {
			return nil, err
		}
		if err := env.Cleanup(warm); err != nil {
			return nil, err
		}

		// Paired, interleaved measurements with the garbage collector
		// quiesced before each timed section; iterate until enough wall
		// clock accumulates for a stable average. reps scales the floor.
		floor := time.Duration(reps) * 10 * time.Millisecond
		var direct, hacTime time.Duration
		iters := 0
		for (direct < floor || hacTime < floor) && iters < 500 {
			runtime.GC()
			start := time.Now()
			paths, err := env.DirectSearch(c.query)
			if err != nil {
				return nil, err
			}
			direct += time.Since(start)
			row.Matches = len(paths)

			dir := fmt.Sprintf("/q%d", seq)
			seq++
			runtime.GC()
			start = time.Now()
			if _, err := env.HACSmkdir(dir, c.query); err != nil {
				return nil, err
			}
			hacTime += time.Since(start)
			if err := env.Cleanup(dir); err != nil {
				return nil, err
			}
			iters++
		}

		row.Direct = direct / time.Duration(iters)
		row.HAC = hacTime / time.Duration(iters)
		row.OverheadPct = Slowdown(row.Direct, row.HAC)
		rows = append(rows, row)
	}
	return rows, nil
}
