package bench

import (
	"fmt"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/vfs"
)

// ---------------------------------------------------------------------
// Ablation A1 — consistency propagation order
//
// The paper re-evaluates only the directories that transitively depend
// on a change, in topological order (§2.3, §2.5). The obvious
// alternative is to re-evaluate every semantic directory on every
// change. This ablation builds a volume with one deep dependent chain
// plus many unrelated semantic directories and measures both policies
// after an edit at the chain's head.
// ---------------------------------------------------------------------

// A1Result compares targeted and full re-evaluation.
type A1Result struct {
	Targeted      time.Duration
	Full          time.Duration
	SemanticDirs  int
	AffectedDirs  int
	SpeedupFactor float64
}

// AblationOrder measures targeted (dependency-driven) versus full
// re-evaluation. chain is the depth of the dependent chain; unrelated
// is the number of independent semantic directories.
func AblationOrder(files, chain, unrelated int) (A1Result, error) {
	var res A1Result
	fs := hac.New(vfs.New(), hac.Options{})
	if err := fs.MkdirAll("/db"); err != nil {
		return res, err
	}
	if _, err := corpus.Generate(fs, "/db", corpus.Spec{Files: files, Seed: 3}); err != nil {
		return res, err
	}
	if _, err := fs.Reindex("/"); err != nil {
		return res, err
	}

	// The dependent chain: /chain0 ← /chain1 ← ... (query references).
	if err := fs.SemDir("/chain0", "markermany"); err != nil {
		return res, err
	}
	for i := 1; i < chain; i++ {
		q := fmt.Sprintf("dir:/chain%d AND markermany", i-1)
		if err := fs.SemDir(fmt.Sprintf("/chain%d", i), q); err != nil {
			return res, err
		}
	}
	// Unrelated semantic directories.
	for i := 0; i < unrelated; i++ {
		if err := fs.SemDir(fmt.Sprintf("/other%d", i), "markermid"); err != nil {
			return res, err
		}
	}
	res.SemanticDirs = chain + unrelated
	res.AffectedDirs = chain

	// Targeted: the paper's policy — Sync from the edited directory.
	start := time.Now()
	if err := fs.Sync("/chain0"); err != nil {
		return res, err
	}
	res.Targeted = time.Since(start)

	// Full: re-evaluate everything.
	start = time.Now()
	if err := fs.SyncAll(); err != nil {
		return res, err
	}
	res.Full = time.Since(start)

	if res.Targeted > 0 {
		res.SpeedupFactor = float64(res.Full) / float64(res.Targeted)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Ablation A2 — bitmap vs sparse result representation
//
// The paper stores per-directory query results as N/8-byte bitmaps and
// names sparse sets as future work. This ablation measures the paper's
// bitmap against the sparse representation the system runs on —
// bitset.Container, packed — across match densities.
// ---------------------------------------------------------------------

// A2Row is one density point.
type A2Row struct {
	Universe    int
	Matches     int
	BitmapBytes int
	SparseBytes int
	// Time to intersect the result with a same-density scope set, the
	// hot operation in scope consistency.
	BitmapIntersect time.Duration
	SparseIntersect time.Duration
}

// AblationSets measures representation cost at several densities.
func AblationSets(universe int, densities []float64) []A2Row {
	var rows []A2Row
	for _, d := range densities {
		matches := int(d * float64(universe))
		bmA, bmB := bitset.NewBitmap(universe), bitset.NewBitmap(universe)
		spA, spB := bitset.NewContainer(), bitset.NewContainer()
		for i := 0; i < matches; i++ {
			id := uint32(i * universe / max(matches, 1))
			bmA.Add(id)
			spA.Add(id)
			id2 := uint32((i*universe/max(matches, 1) + 7) % universe)
			bmB.Add(id2)
			spB.Add(id2)
		}
		spA.Pack()
		spB.Pack()
		row := A2Row{
			Universe:    universe,
			Matches:     matches,
			BitmapBytes: bmA.SizeBytes(),
			// The container's codec size: its payload plus the 5-byte
			// kind/count header that lets one type hold three
			// representations — the price the flat bitmap does not pay.
			SparseBytes: len(spA.AppendBinary(nil)),
		}

		const reps = 100
		start := time.Now()
		for r := 0; r < reps; r++ {
			c := bmA.Clone()
			c.And(bmB)
		}
		row.BitmapIntersect = time.Since(start) / reps

		start = time.Now()
		for r := 0; r < reps; r++ {
			c := spA.Clone()
			c.And(spB)
		}
		row.SparseIntersect = time.Since(start) / reps
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------
// Ablation A3 — scope refinement direction
//
// §2.3 argues for child-refines-parent over the rejected
// parent-unions-children design, because the rejected design cannot
// hold information that defies strict hierarchy: adding a link to a
// child forcibly changes the parent. This ablation counts, under a
// random classification workload, how many parent link-sets each policy
// disturbs when users edit children.
// ---------------------------------------------------------------------

// A3Result compares the two scope-direction designs.
type A3Result struct {
	ChildEdits             int
	HACParentChanges       int // always 0: child edits never leak upward
	RejectedParentChanges  int // every out-of-scope child addition leaks
	OutOfHierarchyAccepted int // links HAC accepted that defy the hierarchy
}

// AblationScopeDirection simulates `edits` child-link additions, half
// of which point outside the parent's scope, and counts how each design
// reacts. HAC is measured on a real volume; the rejected design is
// modeled (its parent set must absorb every child addition).
func AblationScopeDirection(edits int) (A3Result, error) {
	var res A3Result
	fs := hac.New(vfs.New(), hac.Options{})
	files := map[string]string{
		"/in/a.txt":  "inside apple",
		"/in/b.txt":  "inside banana",
		"/out/c.txt": "outside cherry",
		"/out/d.txt": "outside date",
	}
	for p, content := range files {
		if err := fs.MkdirAll(vfs.Dir(p)); err != nil {
			return res, err
		}
		if err := fs.WriteFile(p, []byte(content)); err != nil {
			return res, err
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		return res, err
	}
	if err := fs.SemDir("/parent", "inside"); err != nil {
		return res, err
	}
	if err := fs.SemDir("/parent/child", "inside OR outside"); err != nil {
		return res, err
	}

	outTargets := []string{"/out/c.txt", "/out/d.txt"}
	for i := 0; i < edits; i++ {
		target := outTargets[i%len(outTargets)]
		before, err := fs.LinkTargets("/parent")
		if err != nil {
			return res, err
		}
		name := fmt.Sprintf("/parent/child/ln%d", i)
		if err := fs.Symlink(target, name); err != nil {
			return res, err
		}
		after, err := fs.LinkTargets("/parent")
		if err != nil {
			return res, err
		}
		res.ChildEdits++
		if len(after) != len(before) {
			res.HACParentChanges++
		}
		res.OutOfHierarchyAccepted++
		// The rejected design: parent = union of children's scopes, so
		// this out-of-scope addition would have changed the parent.
		res.RejectedParentChanges++
		if err := fs.Remove(name); err != nil {
			return res, err
		}
	}
	return res, nil
}
