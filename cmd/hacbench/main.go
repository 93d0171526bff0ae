// Command hacbench regenerates the paper's evaluation tables (§4 of
// Gopal & Manber, OSDI 1999) and the ablation experiments.
//
// Usage:
//
//	hacbench [flags] all|table1|table2|table3|table4|space|ablate-order|ablate-sets|ablate-scope
//
// Flags scale the workloads; the defaults run in seconds on a laptop.
// For a paper-scale Table 3/4 run use -files 17000 -words 1200 (about
// 150 MB of corpus).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"hacfs/internal/andrew"
	"hacfs/internal/bench"
	"hacfs/internal/corpus"
	"hacfs/internal/obs"
)

var (
	dirs        = flag.Int("dirs", 20, "Andrew tree: directories")
	filesPerDir = flag.Int("files-per-dir", 10, "Andrew tree: files per directory")
	fileSize    = flag.Int("file-size", 4096, "Andrew tree: bytes per file")
	makeRounds  = flag.Int("make-rounds", 2, "Andrew Make phase: hash rounds")
	files       = flag.Int("files", 2000, "corpus: number of files (paper: 17000)")
	words       = flag.Int("words", 150, "corpus: mean words per file (paper-scale: ~1200)")
	seed        = flag.Int64("seed", 1, "corpus: generator seed")
	reps        = flag.Int("reps", 3, "repetitions per timed measurement")
	obsAddr     = flag.String("obs", "", "serve /metrics and /debug/pprof on this address while benchmarks run")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	if *reps < 1 {
		usageErr("-reps must be at least 1, got %d", *reps)
	}

	if *obsAddr != "" {
		dl, err := obs.Serve(*obsAddr, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "hacbench: debug listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hacbench: debug endpoints on http://%s/metrics\n", dl.Addr())
	}

	aspec := andrew.Spec{Dirs: *dirs, FilesPerDir: *filesPerDir, FileSize: *fileSize, MakeRounds: *makeRounds}
	cspec := corpus.Spec{Files: *files, MeanWords: *words, Seed: *seed}

	for _, cmd := range args {
		var err error
		switch cmd {
		case "all":
			err = runAll(aspec, cspec)
		case "table1":
			err = table1(aspec)
		case "table2":
			err = table2(aspec)
		case "table3":
			err = table3(cspec)
		case "table4":
			err = table4(cspec)
		case "space":
			err = space(aspec)
		case "ablate-order":
			err = ablateOrder()
		case "ablate-sets":
			err = ablateSets()
		case "ablate-scope":
			err = ablateScope()
		default:
			fmt.Fprintf(os.Stderr, "hacbench: unknown experiment %q\n\n", cmd)
			usage()
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hacbench: %s: %v\n", cmd, err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: hacbench [flags] [experiment ...]

Experiments (default: all):
  table1        Andrew Benchmark, UNIX vs HAC          (paper Table 1)
  table2        user-level FS %% slowdowns              (paper Table 2)
  table3        indexing time/space, direct vs HAC     (paper Table 3)
  table4        query cost, smkdir vs direct search    (paper Table 4)
  space         metadata and result-bitmap footprints  (§4 in-text)
  ablate-order  targeted vs full consistency updates   (DESIGN.md A1)
  ablate-sets   bitmap vs sparse result sets           (DESIGN.md A2)
  ablate-scope  scope-direction design comparison      (DESIGN.md A3)

Flags:
`)
	flag.PrintDefaults()
}

func runAll(aspec andrew.Spec, cspec corpus.Spec) error {
	for _, f := range []func() error{
		func() error { return table1(aspec) },
		func() error { return table2(aspec) },
		func() error { return table3(cspec) },
		func() error { return table4(cspec) },
		func() error { return space(aspec) },
		ablateOrder,
		ablateSets,
		ablateScope,
	} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func table1(spec andrew.Spec) error {
	fmt.Printf("== Table 1: Andrew Benchmark (dirs=%d files/dir=%d size=%dB) ==\n",
		spec.Dirs, spec.FilesPerDir, spec.FileSize)
	// Average over repetitions.
	var avg [2]andrew.Result
	var names [2]string
	for r := 0; r < *reps; r++ {
		rows, err := bench.Table1(spec)
		if err != nil {
			return err
		}
		for i, row := range rows {
			names[i] = row.System
			avg[i].MakeDir += row.Result.MakeDir
			avg[i].Copy += row.Result.Copy
			avg[i].Scan += row.Result.Scan
			avg[i].Read += row.Result.Read
			avg[i].Make += row.Result.Make
		}
	}
	w := newTab()
	fmt.Fprintln(w, "File System\tMakedir\tCopy\tScan\tRead\tMake\tTotal")
	for i := range avg {
		n := time.Duration(*reps)
		res := andrew.Result{
			MakeDir: avg[i].MakeDir / n, Copy: avg[i].Copy / n,
			Scan: avg[i].Scan / n, Read: avg[i].Read / n, Make: avg[i].Make / n,
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", names[i],
			ms(res.MakeDir), ms(res.Copy), ms(res.Scan), ms(res.Read), ms(res.Make), ms(res.Total()))
	}
	w.Flush()
	unix := avg[0].MakeDir + avg[0].Copy + avg[0].Scan + avg[0].Read + avg[0].Make
	hacT := avg[1].MakeDir + avg[1].Copy + avg[1].Scan + avg[1].Read + avg[1].Make
	fmt.Printf("HAC slowdown vs UNIX: %.1f%%  (paper: 46%%, 57s vs 38s)\n\n",
		bench.Slowdown(unix, hacT))
	return nil
}

func table2(spec andrew.Spec) error {
	fmt.Printf("== Table 2: %% slowdown of user-level file systems ==\n")
	// Average the slowdowns over repetitions.
	sums := map[string]float64{}
	var order []string
	for r := 0; r < *reps; r++ {
		rows, err := bench.Table2(spec)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if _, ok := sums[row.System]; !ok {
				order = append(order, row.System)
			}
			sums[row.System] += row.SlowdownPct
		}
	}
	w := newTab()
	fmt.Fprintln(w, "File System\t% Slowdown\t(paper)")
	paper := map[string]string{"Jade FS": "36", "Pseudo FS": "33.41", "HAC FS": "46"}
	for _, name := range order {
		fmt.Fprintf(w, "%s\t%.2f\t%s\n", name, sums[name]/float64(*reps), paper[name])
	}
	w.Flush()
	fmt.Println()
	return nil
}

func table3(spec corpus.Spec) error {
	fmt.Printf("== Table 3: indexing %d files ==\n", spec.Files)
	res, err := bench.Table3Reps(spec, *reps)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "System\tIndex time\tIndex size")
	fmt.Fprintf(w, "Glimpse on UNIX\t%s\t%dKB\n", ms(res.DirectTime), res.DirectIndexBytes/1024)
	fmt.Fprintf(w, "Glimpse through HAC\t%s\t%dKB\n", ms(res.HACTime), res.HACIndexBytes/1024)
	w.Flush()
	fmt.Printf("corpus: %d files, %.1f MB\n", res.Files, float64(res.CorpusBytes)/(1<<20))
	fmt.Printf("time overhead: %.1f%% (paper: 27%%)   space overhead: %.1f%% (paper: 15%%)\n\n",
		res.TimeOverheadPct(), res.SpaceOverheadPct())
	return nil
}

func table4(spec corpus.Spec) error {
	fmt.Printf("== Table 4: query cost, smkdir (HAC) vs direct search ==\n")
	rows, err := bench.Table4(spec, *reps)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Query class\tMatches\tGlimpse/UNIX\tHAC smkdir\tOverhead\t(paper)")
	paper := map[string]string{"few": "~300%", "intermediate": "~15%", "many": "~2%"}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%.1f%%\t%s\n",
			r.Class, r.Matches, ms(r.Direct), ms(r.HAC), r.OverheadPct, paper[r.Class])
	}
	w.Flush()
	fmt.Println()
	return nil
}

func space(spec andrew.Spec) error {
	fmt.Printf("== Space overheads (§4 in-text) ==\n")
	res, err := bench.Space(spec, 4)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintf(w, "UNIX metadata\t%d KB\n", res.UnixMetaBytes/1024)
	fmt.Fprintf(w, "HAC metadata\t%d KB\t(paper: 222KB vs 210KB, ~5%%)\n", res.HACMetaBytes/1024)
	fmt.Fprintf(w, "metadata overhead\t%.1f%%\n", res.MetaOverheadPct)
	fmt.Fprintf(w, "result bitmap per semantic dir\t%d B\t(paper: N/8 ≈ 2KB at N=17000)\n",
		res.BitmapBytesPerDir)
	w.Flush()
	fmt.Println()
	return nil
}

// usageErr reports a nonsensical flag value and exits with the
// conventional usage status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hacbench: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'hacbench -h' for flag usage")
	os.Exit(2)
}

func ablateOrder() error {
	fmt.Printf("== Ablation A1: consistency propagation order ==\n")
	res, err := bench.AblationOrder(1000, 5, 40)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintf(w, "semantic dirs\t%d (chain %d, unrelated %d)\n",
		res.SemanticDirs, res.AffectedDirs, res.SemanticDirs-res.AffectedDirs)
	fmt.Fprintf(w, "targeted sync (paper's policy)\t%s\n", ms(res.Targeted))
	fmt.Fprintf(w, "full re-evaluation\t%s\n", ms(res.Full))
	fmt.Fprintf(w, "speedup from dependency tracking\t%.1fx\n", res.SpeedupFactor)
	w.Flush()
	fmt.Println()
	return nil
}

func ablateSets() error {
	fmt.Printf("== Ablation A2: bitmap vs sparse result sets (N=17000) ==\n")
	rows := bench.AblationSets(17000, []float64{0.0005, 0.01, 0.1, 0.5})
	w := newTab()
	fmt.Fprintln(w, "matches\tbitmap bytes\tsparse bytes\tbitmap ∩\tsparse ∩")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\n",
			r.Matches, r.BitmapBytes, r.SparseBytes,
			r.BitmapIntersect, r.SparseIntersect)
	}
	w.Flush()
	fmt.Println("(paper stores bitmaps — N/8 bytes — and defers sparse sets to future work)")
	fmt.Println()
	return nil
}

func ablateScope() error {
	fmt.Printf("== Ablation A3: scope refinement direction (§2.3 design choice) ==\n")
	res, err := bench.AblationScopeDirection(50)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintf(w, "out-of-hierarchy child links attempted\t%d\n", res.ChildEdits)
	fmt.Fprintf(w, "accepted by HAC (child refines parent)\t%d\n", res.OutOfHierarchyAccepted)
	fmt.Fprintf(w, "parent link-set changes under HAC\t%d\n", res.HACParentChanges)
	fmt.Fprintf(w, "parent changes under rejected union design\t%d\n", res.RejectedParentChanges)
	w.Flush()
	fmt.Println()
	return nil
}
