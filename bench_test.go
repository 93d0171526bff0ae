// Benchmarks that regenerate every table of the paper's evaluation
// (§4). Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN_* family corresponds to one paper table; the
// derived percentages the paper reports (slowdowns, overheads) are
// printed as custom metrics and tabulated by cmd/hacbench. See
// EXPERIMENTS.md for the paper-vs-measured record.
package hacfs

import (
	"fmt"
	"testing"

	"hacfs/internal/andrew"
	"hacfs/internal/baseline"
	"hacfs/internal/bench"
	"hacfs/internal/bitset"
	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/index"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// benchAndrew is the Andrew-tree size used by the Table 1 and Table 2
// benchmarks: 20 directories × 10 files of 4 KB, on the scale of the
// original benchmark's source tree.
var benchAndrew = andrew.Spec{Dirs: 20, FilesPerDir: 10, FileSize: 4096, MakeRounds: 2}

// benchCorpus is the document database for the Table 3 and Table 4
// benchmarks (scaled from the paper's 17000 files / 150 MB; use
// cmd/hacbench -files/-mean to run full size).
var benchCorpus = corpus.Spec{Files: 2000, MeanWords: 150, Seed: 1}

// runAndrew builds the source tree and runs the five phases on fsys.
func runAndrew(b *testing.B, fsys vfs.FileSystem) andrew.Result {
	b.Helper()
	if err := andrew.GenerateSource(fsys, "/src", benchAndrew); err != nil {
		b.Fatal(err)
	}
	res, err := andrew.Run(fsys, "/src", "/dst", benchAndrew)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ---- Table 1: Andrew Benchmark, UNIX vs HAC -------------------------

func BenchmarkTable1_UNIX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAndrew(b, cas.New(nil))
	}
}

func BenchmarkTable1_HAC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAndrew(b, hac.New(cas.New(nil), hac.Options{}))
	}
}

// Per-phase benchmarks so the per-phase overhead pattern of Table 1
// (worst in MakeDir/Copy, least in Make) is directly visible.
func BenchmarkTable1_Phases(b *testing.B) {
	for _, sys := range []string{"UNIX", "HAC"} {
		sys := sys
		b.Run(sys, func(b *testing.B) {
			var acc andrew.Result
			for i := 0; i < b.N; i++ {
				var fsys vfs.FileSystem = cas.New(nil)
				if sys == "HAC" {
					fsys = hac.New(cas.New(nil), hac.Options{})
				}
				res := runAndrew(b, fsys)
				acc.MakeDir += res.MakeDir
				acc.Copy += res.Copy
				acc.Scan += res.Scan
				acc.Read += res.Read
				acc.Make += res.Make
			}
			n := float64(b.N)
			b.ReportMetric(float64(acc.MakeDir.Nanoseconds())/n, "makedir-ns")
			b.ReportMetric(float64(acc.Copy.Nanoseconds())/n, "copy-ns")
			b.ReportMetric(float64(acc.Scan.Nanoseconds())/n, "scan-ns")
			b.ReportMetric(float64(acc.Read.Nanoseconds())/n, "read-ns")
			b.ReportMetric(float64(acc.Make.Nanoseconds())/n, "make-ns")
		})
	}
}

// ---- Table 2: user-level FS slowdowns -------------------------------

func BenchmarkTable2_Jade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAndrew(b, baseline.NewJade(cas.New(nil)))
	}
}

func BenchmarkTable2_Pseudo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := baseline.NewPseudo(cas.New(nil))
		runAndrew(b, p)
		p.Close()
	}
}

func BenchmarkTable2_HAC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAndrew(b, hac.New(cas.New(nil), hac.Options{}))
	}
}

// ---- Table 3: indexing through HAC vs direct ------------------------

func BenchmarkTable3_IndexDirect(b *testing.B) {
	raw := cas.New(nil)
	if err := raw.MkdirAll("/db"); err != nil {
		b.Fatal(err)
	}
	if _, err := corpus.Generate(raw, "/db", benchCorpus); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := index.New()
		if _, _, _, err := ix.SyncTree(raw, "/db", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_IndexThroughHAC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := hac.New(cas.New(nil), hac.Options{})
		if err := fs.MkdirAll("/db"); err != nil {
			b.Fatal(err)
		}
		if _, err := corpus.Generate(fs, "/db", benchCorpus); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := fs.Reindex("/db"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 4: smkdir vs direct search, three query classes ----------

func benchTable4(b *testing.B, queryStr string, direct bool) {
	env, err := bench.NewTable4Env(benchCorpus)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if direct {
			if _, err := env.DirectSearch(queryStr); err != nil {
				b.Fatal(err)
			}
			continue
		}
		dir := fmt.Sprintf("/q%d", i)
		if _, err := env.HACSmkdir(dir, queryStr); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := env.Cleanup(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkTable4_Few_Glimpse(b *testing.B)          { benchTable4(b, "markerfew", true) }
func BenchmarkTable4_Few_HAC(b *testing.B)              { benchTable4(b, "markerfew", false) }
func BenchmarkTable4_Intermediate_Glimpse(b *testing.B) { benchTable4(b, "markermid", true) }
func BenchmarkTable4_Intermediate_HAC(b *testing.B)     { benchTable4(b, "markermid", false) }
func BenchmarkTable4_Many_Glimpse(b *testing.B)         { benchTable4(b, "markermany", true) }
func BenchmarkTable4_Many_HAC(b *testing.B)             { benchTable4(b, "markermany", false) }

// ---- Space overheads (§4 in-text) ------------------------------------

func BenchmarkSpaceOverhead(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Space(benchAndrew, 4)
		if err != nil {
			b.Fatal(err)
		}
		last = res.MetaOverheadPct
	}
	b.ReportMetric(last, "meta-overhead-%")
}

func BenchmarkBitmapFootprint(b *testing.B) {
	// The paper's N/8 formula at N = 17000: ~2 KB per semantic dir.
	const n = 17000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm := bitset.NewBitmap(n)
		for j := 0; j < n; j += 8 {
			bm.Add(uint32(j))
		}
		if bm.SizeBytes() < n/8 {
			b.Fatal("bitmap smaller than N/8")
		}
	}
}

// ---- Ablations -------------------------------------------------------

func BenchmarkAblationOrder_Targeted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationOrder(300, 4, 12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationSets(17000, []float64{0.001, 0.01, 0.1, 0.5})
	}
}

// ---- Core-operation micro-benchmarks ---------------------------------

func BenchmarkSemDir(b *testing.B) {
	fs := NewVolume()
	if err := fs.MkdirAll("/db"); err != nil {
		b.Fatal(err)
	}
	if _, err := corpus.Generate(fs, "/db", corpus.Spec{Files: 500, Seed: 2}); err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := fmt.Sprintf("/s%d", i)
		if err := fs.SemDir(dir, "markermid"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := fs.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkSyncPropagation(b *testing.B) {
	fs := NewVolume()
	if err := fs.MkdirAll("/db"); err != nil {
		b.Fatal(err)
	}
	if _, err := corpus.Generate(fs, "/db", corpus.Spec{Files: 500, Seed: 2}); err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		b.Fatal(err)
	}
	if err := fs.SemDir("/a", "markermany"); err != nil {
		b.Fatal(err)
	}
	if err := fs.SemDir("/a/b", "markermid"); err != nil {
		b.Fatal(err)
	}
	if err := fs.SemDir("/a/b/c", "markerfew"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.Sync("/a"); err != nil {
			b.Fatal(err)
		}
	}
}
