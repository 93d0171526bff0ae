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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
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
	semDirs     = flag.Int("sem-dirs", 12, "obs: independent semantic directories")
	maxWorkers  = flag.Int("workers", 4, "obs: serving-host workers in the wire phase")
	obsAddr     = flag.String("obs", "", "serve /metrics and /debug/pprof on this address while benchmarks run")
	obsJSON     = flag.String("obs-json", "BENCH_obs.json", "obs experiment: write machine-readable results here (empty = skip)")
	searchReps  = flag.Int("search-samples", 1500, "compaction: timed Search calls per phase")
	compJSON    = flag.String("compaction-json", "BENCH_compaction.json", "compaction experiment: write machine-readable results here (empty = skip)")
	planReps    = flag.Int("plan-samples", 300, "planner: timed runs per query per mode")
	planJSON    = flag.String("planner-json", "BENCH_planner.json", "planner experiment: write machine-readable results here (empty = skip)")

	serveClients  = flag.Int("serve-clients", 1000, "serve: closed-loop simulated clients")
	serveTenants  = flag.Int("serve-tenants", 4, "serve: tenant volumes")
	serveConns    = flag.Int("serve-conns", 8, "serve: shared TCP connections")
	serveDuration = flag.Duration("serve-duration", 5*time.Second, "serve: measured window")
	serveDocs     = flag.Int("serve-docs", 300, "serve: corpus files per tenant volume")
	serveAddr     = flag.String("serve-addr", "", "serve: drive this external hacvold instead of an in-process server (tenants t0..tN-1 must exist)")
	serveJSON     = flag.String("serve-json", "", "serve experiment: write machine-readable results here (empty = skip; BENCH_serve.json is the kept line-vs-mux record, do not overwrite it)")

	clusterShards   = flag.String("cluster-shards", "1,2,4,8", "cluster: comma-separated shard counts to sweep")
	clusterReplicas = flag.Int("cluster-replicas", 1, "cluster: replicas per shard")
	clusterClients  = flag.Int("cluster-clients", 24, "cluster: closed-loop client goroutines")
	clusterDuration = flag.Duration("cluster-duration", 2*time.Second, "cluster: measured window per shard count")
	clusterDocs     = flag.Int("cluster-docs", 40, "cluster: documents per routed subtree (8 subtrees)")
	clusterScan     = flag.Duration("cluster-scan-delay", 100*time.Microsecond, "cluster: emulated per-matched-document scan latency at each shard replica (0 = in-memory)")
	clusterGlobal   = flag.Int("cluster-global-pct", 10, "cluster: percent of queries scattered cluster-wide instead of scoped to one subtree")
	clusterKill     = flag.Bool("cluster-kill", false, "cluster: kill one replica mid-run at the largest shard count (needs -cluster-replicas >= 2)")
	clusterAddr     = flag.String("cluster-addr", "", "cluster: drive this external haccluster coordinator instead of in-process fleets")
	clusterScopes   = flag.String("cluster-scopes", "", "cluster: comma-separated scope subtrees for routed queries (default /t0../t7; set to match the external coordinator's shard map)")
	clusterQuery    = flag.String("cluster-query", "markermid", "cluster: search term the clients issue")
	clusterJSON     = flag.String("cluster-json", "BENCH_cluster.json", "cluster experiment: write machine-readable results here (empty = skip)")

	casSizes        = flag.String("cas-sizes", "1000,10000,100000", "cas: comma-separated volume sizes (files) for the clone-vs-save sweep")
	casFileSize     = flag.Int("cas-file-size", 256, "cas: bytes per file in the clone-vs-save and dirty-save sweeps")
	casSaveFiles    = flag.Int("cas-save-files", 10000, "cas: volume size for the dirty-fraction save sweep (0 = skip)")
	casSyncFiles    = flag.Int("cas-sync-files", 2000, "cas: files in the replication volume (0 = skip)")
	casSyncFileSize = flag.Int("cas-sync-size", 16384, "cas: bytes per file in the replication volume")
	casDirty        = flag.String("cas-dirty", "1,10,50", "cas: comma-separated dirty percentages for the save and sync sweeps")
	casJSON         = flag.String("cas-json", "BENCH_cas.json", "cas experiment: write machine-readable results here (empty = skip)")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
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
		case "obs":
			err = obsOverhead(cspec)
		case "compaction":
			err = compaction(cspec)
		case "planner":
			err = planner(cspec)
		case "serve":
			err = serveBench()
		case "cluster":
			err = clusterBench()
		case "cas":
			err = casBench()
		case "trace":
			err = traceDemo()
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
  obs           instrumentation overhead, on vs off    (EXPERIMENTS.md)
  compaction    Search latency under concurrent merge  (EXPERIMENTS.md)
  planner       cost-based planner vs naive pipeline   (EXPERIMENTS.md)
  serve         multi-tenant serving, closed-loop load (EXPERIMENTS.md)
  cluster       sharded scatter-gather search scaling  (EXPERIMENTS.md)
  cas           content-addressed substrate: clone vs save, diff sync (EXPERIMENTS.md)
  trace         issue one traced search, render the distributed trace
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
		func() error { return obsOverhead(cspec) },
		func() error { return compaction(cspec) },
		func() error { return planner(cspec) },
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

func obsOverhead(spec corpus.Spec) error {
	fmt.Printf("== Instrumentation overhead (files=%d sem-dirs=%d workers=%d, in-memory) ==\n",
		spec.Files, *semDirs, *maxWorkers)
	res, err := bench.ObsOverhead(spec, *semDirs, *reps, *maxWorkers)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Observability\tReindex\tSyncAll")
	fmt.Fprintf(w, "discard (handles nil)\t%s\t%s\n", ms(res.Off.Reindex), ms(res.Off.SyncAll))
	fmt.Fprintf(w, "enabled, unscraped\t%s\t%s\n", ms(res.On.Reindex), ms(res.On.SyncAll))
	fmt.Fprintf(w, "overhead\t%.1f%%\t%.1f%%\n", res.ReindexOverheadPct(), res.SyncAllOverheadPct())
	w.Flush()
	fmt.Printf("enabled run registered %d metric series, retained %d spans\n", res.Series, res.Spans)
	fmt.Printf("wire: %d mux searches, untraced %s vs traced end-to-end %s (overhead %.1f%%)\n",
		res.WireOps, ms(res.WireOff), ms(res.WireOn), res.WireOverheadPct())
	if *obsJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*obsJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *obsJSON)
	}
	fmt.Println()
	return nil
}

func compaction(spec corpus.Spec) error {
	fmt.Printf("== Online compaction: Search under concurrent merge (files=%d samples=%d) ==\n",
		spec.Files, *searchReps)
	res, err := bench.Compaction(spec, *searchReps)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Phase\tSearch p50\tSearch p99")
	fmt.Fprintf(w, "idle (%d sealed segments)\t%s\t%s\n", res.Segments, ms(res.IdleP50), ms(res.IdleP99))
	fmt.Fprintf(w, "during merge churn (%d merges)\t%s\t%s\n", res.Merges, ms(res.MergeP50), ms(res.MergeP99))
	w.Flush()
	fmt.Printf("p99 under merge / idle p99: %.2fx (target: < 2x — snapshots keep readers off the merge path)\n", res.P99Ratio)
	if *compJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*compJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *compJSON)
	}
	fmt.Println()
	return nil
}

func planner(spec corpus.Spec) error {
	fmt.Printf("== Cost-based planner: paged Search vs naive pipeline (files=%d samples=%d) ==\n",
		spec.Files, *planReps)
	res, err := bench.Planner(spec, *planReps)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Query\tScope\tMatches\tNaive p99\tCold p99\tWarm p99\tCold ×\tWarm ×")
	for _, q := range res.Queries {
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%s\t%.1fx\t%.1fx\n",
			q.Query, q.Scope, q.Matches,
			ms(q.NaiveP99), ms(q.ColdP99), ms(q.WarmP99),
			q.SpeedupCold, q.SpeedupWarm)
	}
	w.Flush()
	if *planJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*planJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *planJSON)
	}
	fmt.Println()
	return nil
}

func serveBench() error {
	spec := bench.ServeSpec{
		Clients:       *serveClients,
		Tenants:       *serveTenants,
		Conns:         *serveConns,
		Duration:      *serveDuration,
		DocsPerTenant: *serveDocs,
		Seed:          *seed,
		Addr:          *serveAddr,
	}
	target := "in-process server"
	if spec.Addr != "" {
		target = spec.Addr
	}
	fmt.Printf("== Multi-tenant serving: %d closed-loop clients, %d tenants, %d conns, %s (%s) ==\n",
		spec.Clients, spec.Tenants, spec.Conns, spec.Duration, target)
	res, err := bench.ServeLoad(spec)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Conns\tOps\tThroughput\tp50\tp99\tp99.9")
	fmt.Fprintf(w, "%d\t%d\t%.0f op/s\t%s\t%s\t%s\n",
		res.Conns, res.Ops, res.Throughput, ms(res.P50), ms(res.P99), ms(res.P999))
	w.Flush()
	fmt.Println()
	w = newTab()
	fmt.Fprintln(w, "Tenant\tOps\tBackpressure\tp50\tp99\tp99.9")
	for _, ts := range res.Tenants {
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%s\n",
			ts.Tenant, ts.Ops, ts.Backpressure, ms(ts.P50), ms(ts.P99), ms(ts.P999))
	}
	w.Flush()
	fmt.Printf("per-tenant p99 spread: %.2fx worst/best (fair scheduling target: < 3x)\n", res.FairnessP99Ratio)
	if *serveJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*serveJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *serveJSON)
	}
	fmt.Println()
	return nil
}

// parseInts parses a comma-separated list of positive integers, exiting
// with a usage error on junk.
func parseInts(flagName, s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			usageErr("%s: %q is not a positive count", flagName, f)
		}
		out = append(out, n)
	}
	return out
}

func casBench() error {
	spec := bench.CASSpec{
		Sizes:        parseInts("-cas-sizes", *casSizes),
		FileSize:     *casFileSize,
		SaveFiles:    *casSaveFiles,
		SyncFiles:    *casSyncFiles,
		SyncFileSize: *casSyncFileSize,
		DirtyPcts:    parseInts("-cas-dirty", *casDirty),
		Reps:         *reps,
		Seed:         *seed,
	}
	fmt.Printf("== Content-addressed substrate: O(manifest) clone vs full save, manifest-diff sync (sizes=%s file-size=%dB) ==\n",
		*casSizes, spec.FileSize)
	res, err := bench.CAS(spec)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Files\tContent\tSnapshot\tClone\tFull save\tImage")
	us := func(d time.Duration) string {
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1000)
	}
	for _, r := range res.Sizes {
		fmt.Fprintf(w, "%d\t%.1fMB\t%s\t%s\t%s\t%.1fMB\n",
			r.Files, float64(r.Bytes)/(1<<20), us(r.Snapshot), us(r.Clone),
			ms(r.FullSave), float64(r.ImageBytes)/(1<<20))
	}
	w.Flush()
	if len(res.Sizes) >= 2 {
		fmt.Printf("clone latency growth %d -> %d files: %.2fx (target: < 2x); full save growth: %.1fx (target: >= 10x)\n",
			res.Sizes[0].Files, res.Sizes[len(res.Sizes)-1].Files, res.CloneGrowth, res.SaveGrowth)
	}
	if len(res.SaveDirty) > 0 {
		fmt.Printf("\nSave cost vs dirty fraction (%d files; clean files are never re-hashed):\n", res.SaveFiles)
		w = newTab()
		fmt.Fprintln(w, "Dirty\tRewritten\tSave\tImage")
		for _, r := range res.SaveDirty {
			fmt.Fprintf(w, "%d%%\t%d\t%s\t%.1fMB\n", r.DirtyPct, r.Rewritten, ms(r.Save), float64(r.ImageBytes)/(1<<20))
		}
		w.Flush()
	}
	if len(res.SyncDirty) > 0 {
		fmt.Printf("\nReplication (%d files x %dB; a full copy ships %.1fMB, cold manifest-diff %.1fMB):\n",
			res.SyncFiles, res.SyncFileSize,
			float64(res.FullSyncBytes)/(1<<20), float64(res.ColdSyncBytes)/(1<<20))
		w = newTab()
		fmt.Fprintln(w, "Dirty\tRewritten\tManifest\tBlobs\tBlob bytes\tWire total\t% of full")
		for _, r := range res.SyncDirty {
			fmt.Fprintf(w, "%d%%\t%d\t%.1fKB\t%d\t%.1fKB\t%.1fKB\t%.2f%%\n",
				r.DirtyPct, r.Rewritten, float64(r.ManifestBytes)/1024, r.BlobsFetched,
				float64(r.BlobBytes)/1024, float64(r.WireBytes)/1024, r.PctOfFull)
		}
		w.Flush()
		fmt.Printf("manifest-diff at %d%% dirty ships %.2f%% of full-sync bytes (target: < 5%%)\n",
			res.SyncDirty[0].DirtyPct, res.SyncDirty[0].PctOfFull)
	}
	if *casJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*casJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *casJSON)
	}
	fmt.Println()
	return nil
}

// usageErr reports a nonsensical flag combination and exits with the
// conventional usage status instead of booting (or hanging) a fleet.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hacbench: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'hacbench -h' for flag usage")
	os.Exit(2)
}

func clusterBench() error {
	var counts []int
	seen := map[int]bool{}
	for _, f := range strings.Split(*clusterShards, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			usageErr("-cluster-shards: %q is not a shard count", f)
		}
		if n <= 0 {
			usageErr("-cluster-shards: shard count %d is not positive", n)
		}
		if seen[n] {
			usageErr("-cluster-shards: duplicate shard count %d", n)
		}
		seen[n] = true
		counts = append(counts, n)
	}
	if len(counts) == 0 && *clusterAddr == "" {
		usageErr("-cluster-shards is empty")
	}
	if *clusterReplicas < 1 {
		usageErr("-cluster-replicas must be at least 1, got %d", *clusterReplicas)
	}
	if *clusterKill && *clusterReplicas < 2 {
		usageErr("-cluster-kill needs -cluster-replicas >= 2 (a lone replica has nothing to fail over to)")
	}
	if *clusterKill && *clusterAddr != "" {
		usageErr("-cluster-kill only works on the in-process fleet, not with -cluster-addr")
	}
	var scopes []string
	for _, s := range strings.Split(*clusterScopes, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		if !strings.HasPrefix(s, "/") {
			usageErr("-cluster-scopes: scope %q is not absolute", s)
		}
		scopes = append(scopes, s)
	}

	spec := bench.ClusterSpec{
		ShardCounts: counts,
		Replicas:    *clusterReplicas,
		Clients:     *clusterClients,
		Duration:    *clusterDuration,
		DocsPerTree: *clusterDocs,
		ScanDelay:   *clusterScan,
		GlobalPct:   *clusterGlobal,
		KillReplica: *clusterKill,
		Query:       *clusterQuery,
		Seed:        *seed,
		Addr:        *clusterAddr,
		Scopes:      scopes,
	}
	if spec.ScanDelay == 0 {
		spec.ScanDelay = -1 // flag 0 means "really none", not "default"
	}
	target := "in-process fleets"
	if spec.Addr != "" {
		target = spec.Addr
	}
	fmt.Printf("== Sharded cluster: scatter-gather search scaling (%s, %d clients, %d replicas/shard, %s per count, %s scan emulation) ==\n",
		target, *clusterClients, *clusterReplicas, *clusterDuration, *clusterScan)
	res, err := bench.ClusterLoad(spec)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Shards\tReplicas\tOps\tErrors\tFailovers\tThroughput\tp50\tp99\tscatter p99\t")
	for _, r := range res.Runs {
		note := ""
		if r.Killed {
			note = "replica killed mid-run"
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.0f op/s\t%s\t%s\t%s\t%s\n",
			r.Shards, r.Replicas, r.Ops, r.Errors, r.Failovers,
			r.Throughput, ms(r.P50), ms(r.P99), ms(r.ScatterP99), note)
	}
	w.Flush()
	if res.Speedup4x > 0 {
		fmt.Printf("Search throughput at 4 shards / 1 shard: %.1fx (target: >= 3x)\n", res.Speedup4x)
	}
	if res.SpeedupMax > 0 {
		fmt.Printf("Search throughput at max shards / 1 shard: %.1fx\n", res.SpeedupMax)
	}
	if *clusterJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*clusterJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *clusterJSON)
	}
	fmt.Println()
	return nil
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
