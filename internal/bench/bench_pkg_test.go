package bench

import (
	"testing"

	"hacfs/internal/andrew"
	"hacfs/internal/corpus"
)

// Small specs keep unit tests fast; the real numbers come from
// cmd/hacbench and the root bench_test.go.
var (
	tinyAndrew = andrew.Spec{Dirs: 3, FilesPerDir: 3, FileSize: 1024, MakeRounds: 1}
	tinyCorpus = corpus.Spec{Files: 120, MeanWords: 60, Seed: 5}
)

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(tinyAndrew)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].System != "UNIX" || rows[1].System != "HAC" {
		t.Fatalf("rows = %+v", rows)
	}
	// The same workload must have run on both systems.
	if rows[0].Result.FilesRead != rows[1].Result.FilesRead ||
		rows[0].Result.Scanned != rows[1].Result.Scanned {
		t.Fatalf("workloads differ: %+v vs %+v", rows[0].Result, rows[1].Result)
	}
	for _, r := range rows {
		if r.Result.Total() <= 0 {
			t.Fatalf("%s total not positive", r.System)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(tinyAndrew)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.System] = true
		if r.Total <= 0 || r.RawTotal <= 0 {
			t.Fatalf("%s: non-positive timings: %+v", r.System, r)
		}
	}
	for _, want := range []string{"Jade FS", "Pseudo FS", "HAC FS"} {
		if !names[want] {
			t.Fatalf("missing system %s in %v", want, names)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(tinyCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 120 {
		t.Fatalf("Files = %d", res.Files)
	}
	if res.DirectTime <= 0 || res.HACTime <= 0 {
		t.Fatalf("timings = %+v", res)
	}
	// HAC stores strictly more than the bare index.
	if res.HACIndexBytes <= res.DirectIndexBytes {
		t.Fatalf("HAC index bytes %d not above direct %d",
			res.HACIndexBytes, res.DirectIndexBytes)
	}
	if res.SpaceOverheadPct() <= 0 {
		t.Fatalf("space overhead = %f", res.SpaceOverheadPct())
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(tinyCorpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// Match counts follow the corpus markers: few < intermediate < many.
	if !(rows[0].Matches < rows[1].Matches && rows[1].Matches < rows[2].Matches) {
		t.Fatalf("match counts not increasing: %+v", rows)
	}
	if rows[0].Matches != 1 {
		t.Fatalf("few-class matches = %d, want 1", rows[0].Matches)
	}
	for _, r := range rows {
		if r.Direct <= 0 || r.HAC <= 0 {
			t.Fatalf("%s: non-positive timings", r.Class)
		}
	}
}

func TestTable4EnvAgreement(t *testing.T) {
	env, err := NewTable4Env(tinyCorpus)
	if err != nil {
		t.Fatal(err)
	}
	// Direct search and HAC smkdir agree on the result set.
	paths, err := env.DirectSearch("markermid")
	if err != nil {
		t.Fatal(err)
	}
	n, err := env.HACSmkdir("/check", "markermid")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(paths) {
		t.Fatalf("HAC found %d, direct found %d", n, len(paths))
	}
	if len(paths) != len(env.Manifest.MarkerFiles["markermid"]) {
		t.Fatalf("direct found %d, manifest says %d",
			len(paths), len(env.Manifest.MarkerFiles["markermid"]))
	}
	if err := env.Cleanup("/check"); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceShape(t *testing.T) {
	res, err := Space(tinyAndrew, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.HACMetaBytes <= res.UnixMetaBytes {
		t.Fatalf("HAC metadata %d not above UNIX %d", res.HACMetaBytes, res.UnixMetaBytes)
	}
	if res.MetaOverheadPct <= 0 {
		t.Fatalf("overhead pct = %f", res.MetaOverheadPct)
	}
	if res.BitmapBytesPerDir <= 0 {
		t.Fatal("bitmap bytes not positive")
	}
}

func TestAblationOrder(t *testing.T) {
	res, err := AblationOrder(100, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.SemanticDirs != 8 || res.AffectedDirs != 3 {
		t.Fatalf("res = %+v", res)
	}
	if res.Targeted <= 0 || res.Full <= 0 {
		t.Fatalf("timings = %+v", res)
	}
}

func TestAblationSets(t *testing.T) {
	rows := AblationSets(10000, []float64{0.001, 0.1, 0.5})
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// Sparse wins at low density, bitmap at high density.
	if rows[0].SparseBytes >= rows[0].BitmapBytes {
		t.Fatalf("sparse not smaller at low density: %+v", rows[0])
	}
	if rows[2].SparseBytes <= rows[2].BitmapBytes {
		t.Fatalf("bitmap not smaller at high density: %+v", rows[2])
	}
	// Bitmap bytes are density-independent.
	if rows[0].BitmapBytes != rows[2].BitmapBytes {
		t.Fatalf("bitmap size varied with density")
	}
}

func TestAblationScopeDirection(t *testing.T) {
	res, err := AblationScopeDirection(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChildEdits != 10 {
		t.Fatalf("edits = %d", res.ChildEdits)
	}
	// The paper's design: child edits never change the parent.
	if res.HACParentChanges != 0 {
		t.Fatalf("HAC parent changed %d times", res.HACParentChanges)
	}
	// The rejected design would have changed it every time.
	if res.RejectedParentChanges != 10 {
		t.Fatalf("modeled rejected-design changes = %d", res.RejectedParentChanges)
	}
	if res.OutOfHierarchyAccepted != 10 {
		t.Fatalf("HAC rejected out-of-hierarchy links: %+v", res)
	}
}
