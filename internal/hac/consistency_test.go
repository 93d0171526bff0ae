package hac

import (
	"fmt"
	"math/rand"
	"testing"

	"hacfs/internal/vfs"
)

// This file checks the DESIGN.md invariants I1–I7 under randomized
// operation sequences — the heart of the paper's scope-consistency
// claim.

// consistencyHarness drives a HAC volume through random user actions
// and then verifies the invariants.
type consistencyHarness struct {
	t   *testing.T
	fs  *FS
	rng *rand.Rand
	// semantic dirs created, in creation order (parents before
	// children).
	semDirs []string
	terms   []string
}

func newConsistencyHarness(t *testing.T, seed int64) *consistencyHarness {
	h := &consistencyHarness{
		t:     t,
		fs:    New(vfs.New(), Options{}),
		rng:   rand.New(rand.NewSource(seed)),
		terms: []string{"red", "green", "blue", "round", "flat"},
	}
	// Corpus: 30 files with random term subsets.
	if err := h.fs.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		var content string
		for _, term := range h.terms {
			if h.rng.Intn(2) == 0 {
				content += term + " "
			}
		}
		if err := h.fs.WriteFile(fmt.Sprintf("/data/f%02d.txt", i), []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *consistencyHarness) randTerm() string { return h.terms[h.rng.Intn(len(h.terms))] }

func (h *consistencyHarness) randQuery() string {
	switch h.rng.Intn(4) {
	case 0:
		return h.randTerm()
	case 1:
		return h.randTerm() + " AND " + h.randTerm()
	case 2:
		return h.randTerm() + " OR " + h.randTerm()
	default:
		return h.randTerm() + " AND NOT " + h.randTerm()
	}
}

// step performs one random user action.
func (h *consistencyHarness) step(i int) {
	switch h.rng.Intn(9) {
	case 0: // create a semantic dir at the root
		p := fmt.Sprintf("/sd%d", i)
		if err := h.fs.SemDir(p, h.randQuery()); err == nil {
			h.semDirs = append(h.semDirs, p)
		}
	case 1: // create a semantic child of an existing semantic dir
		if len(h.semDirs) == 0 {
			return
		}
		parent := h.semDirs[h.rng.Intn(len(h.semDirs))]
		p := vfs.Join(parent, fmt.Sprintf("sub%d", i))
		if err := h.fs.SemDir(p, h.randQuery()); err == nil {
			h.semDirs = append(h.semDirs, p)
		}
	case 2: // delete a random link (→ prohibited)
		if len(h.semDirs) == 0 {
			return
		}
		dir := h.semDirs[h.rng.Intn(len(h.semDirs))]
		entries, err := h.fs.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			return
		}
		e := entries[h.rng.Intn(len(entries))]
		if e.Type == vfs.TypeSymlink {
			_ = h.fs.Remove(vfs.Join(dir, e.Name))
		}
	case 3: // add a permanent link to a random file
		if len(h.semDirs) == 0 {
			return
		}
		dir := h.semDirs[h.rng.Intn(len(h.semDirs))]
		target := fmt.Sprintf("/data/f%02d.txt", h.rng.Intn(30))
		_ = h.fs.Symlink(target, vfs.Join(dir, fmt.Sprintf("perm%d", i)))
	case 4: // change a query
		if len(h.semDirs) == 0 {
			return
		}
		dir := h.semDirs[h.rng.Intn(len(h.semDirs))]
		_ = h.fs.SetQuery(dir, h.randQuery())
	case 5: // modify a corpus file, then reindex sometimes
		p := fmt.Sprintf("/data/f%02d.txt", h.rng.Intn(30))
		_ = h.fs.WriteFile(p, []byte(h.randQuery()))
		if h.rng.Intn(3) == 0 {
			if _, err := h.fs.Reindex("/"); err != nil {
				h.t.Fatalf("Reindex: %v", err)
			}
		}
	case 6: // rename a corpus file (classified targets must follow)
		from := fmt.Sprintf("/data/f%02d.txt", h.rng.Intn(30))
		to := fmt.Sprintf("/data/r%02d-%d.txt", h.rng.Intn(30), i)
		_ = h.fs.Rename(from, to)
	case 7: // footnote-1 API: force a permanent link
		if len(h.semDirs) == 0 {
			return
		}
		dir := h.semDirs[h.rng.Intn(len(h.semDirs))]
		target := fmt.Sprintf("/data/f%02d.txt", h.rng.Intn(30))
		_ = h.fs.MarkPermanent(dir, target)
	case 8: // lift a prohibition if one exists
		if len(h.semDirs) == 0 {
			return
		}
		dir := h.semDirs[h.rng.Intn(len(h.semDirs))]
		_, _, proh := h.linkSets(dir)
		for t := range proh {
			_ = h.fs.Unprohibit(dir, t)
			break
		}
	}
}

// linkSets returns (transient, permanent, prohibited) target sets of a
// semantic dir.
func (h *consistencyHarness) linkSets(dir string) (trans, perm, proh map[string]bool) {
	trans, perm, proh = map[string]bool{}, map[string]bool{}, map[string]bool{}
	links, err := h.fs.Links(dir)
	if err != nil {
		h.t.Fatalf("Links(%s): %v", dir, err)
	}
	for _, l := range links {
		switch l.Class {
		case Transient:
			trans[l.Target] = true
		case Permanent:
			perm[l.Target] = true
		case Prohibited:
			proh[l.Target] = true
		}
	}
	return trans, perm, proh
}

// scopeOf reproduces the scope definition independently: for a semantic
// parent, its link targets plus direct regular files; otherwise all
// indexed files under the parent path.
func (h *consistencyHarness) scopeOf(parent string) map[string]bool {
	out := map[string]bool{}
	if h.fs.IsSemantic(parent) {
		trans, perm, _ := h.linkSets(parent)
		for t := range trans {
			out[t] = true
		}
		for t := range perm {
			out[t] = true
		}
		entries, _ := h.fs.ReadDir(parent)
		for _, e := range entries {
			if e.Type == vfs.TypeFile {
				out[vfs.Join(parent, e.Name)] = true
			}
		}
		return out
	}
	bm := h.fs.Index().Snapshot().DocsUnder(parent)
	for _, p := range h.fs.Index().Snapshot().Paths(bm) {
		out[p] = true
	}
	return out
}

// verify asserts the invariants for every semantic directory.
func (h *consistencyHarness) verify(tag string) {
	for _, dir := range h.semDirs {
		if !h.fs.IsSemantic(dir) {
			continue // may have been removed
		}
		trans, perm, proh := h.linkSets(dir)
		scope := h.scopeOf(vfs.Dir(dir))

		// I1: transient ⊆ parent scope.
		for t := range trans {
			if IsRemoteTarget(t) {
				continue
			}
			if !scope[t] {
				h.t.Fatalf("%s: I1 violated in %s: transient %s outside scope", tag, dir, t)
			}
		}
		// I4: prohibited ∩ transient = ∅.
		for t := range proh {
			if trans[t] {
				h.t.Fatalf("%s: I4 violated in %s: prohibited %s is transient", tag, dir, t)
			}
		}
		// Classes are disjoint.
		for t := range perm {
			if trans[t] {
				h.t.Fatalf("%s: %s both transient and permanent in %s", tag, t, dir)
			}
		}
		// The directory's real symlinks mirror the classification.
		entries, err := h.fs.ReadDir(dir)
		if err != nil {
			h.t.Fatalf("%s: ReadDir(%s): %v", tag, dir, err)
		}
		linkCount := 0
		for _, e := range entries {
			if e.Type == vfs.TypeSymlink {
				linkCount++
			}
		}
		if linkCount != len(trans)+len(perm) {
			h.t.Fatalf("%s: %s has %d symlinks but %d classified links",
				tag, dir, linkCount, len(trans)+len(perm))
		}
	}
}

func TestConsistencyRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := newConsistencyHarness(t, seed)
			for i := 0; i < 60; i++ {
				h.step(i)
				h.verify(fmt.Sprintf("step %d", i))
			}
			// After settling everything, the full invariant holds.
			if _, err := h.fs.Reindex("/"); err != nil {
				t.Fatal(err)
			}
			h.verify("final")
			// I2, the completeness half, is CheckConsistency's audit.
			if problems := h.fs.CheckConsistency(); len(problems) != 0 {
				t.Fatalf("audit failed: %v", problems)
			}

			// I7: Sync is idempotent.
			before := map[string][]string{}
			for _, d := range h.semDirs {
				if h.fs.IsSemantic(d) {
					before[d], _ = h.fs.LinkTargets(d)
				}
			}
			if err := h.fs.SyncAll(); err != nil {
				t.Fatal(err)
			}
			for d, want := range before {
				got, _ := h.fs.LinkTargets(d)
				if len(got) != len(want) {
					t.Fatalf("I7 violated: %s changed across idempotent sync", d)
				}
			}
		})
	}
}

// I3: consistency runs never mutate permanent or prohibited sets.
func TestConsistencyPreservesUserSets(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/docs/cherry.txt", "/sel/mine"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/sel/apple1.txt"); err != nil {
		t.Fatal(err)
	}

	snapshot := func() (perm, proh []string) {
		links, _ := fs.Links("/sel")
		for _, l := range links {
			switch l.Class {
			case Permanent:
				perm = append(perm, l.Target)
			case Prohibited:
				proh = append(proh, l.Target)
			}
		}
		return perm, proh
	}
	permBefore, prohBefore := snapshot()

	for i := 0; i < 3; i++ {
		if err := fs.SyncAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Reindex("/"); err != nil {
			t.Fatal(err)
		}
	}
	permAfter, prohAfter := snapshot()
	if len(permBefore) != len(permAfter) || len(prohBefore) != len(prohAfter) {
		t.Fatalf("I3 violated: perm %v→%v, proh %v→%v",
			permBefore, permAfter, prohBefore, prohAfter)
	}
}

// Deep chains: a 5-level hierarchy refines correctly after edits at the
// top.
func TestDeepHierarchyPropagation(t *testing.T) {
	fs := newTestFS(t)
	paths := []string{"/l1", "/l1/l2", "/l1/l2/l3", "/l1/l2/l3/l4"}
	queries := []string{"apple OR banana OR cherry", "apple OR banana", "apple", "apple AND fruit"}
	for i, p := range paths {
		if err := fs.SemDir(p, queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	wantTargets(t, fs, "/l1/l2/l3/l4", "/docs/apple1.txt")
	// Prohibit apple1 at the top: everything below loses it.
	if err := fs.Remove("/l1/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths[1:] {
		for _, target := range targetsOf(t, fs, p) {
			if target == "/docs/apple1.txt" {
				t.Fatalf("%s still holds pruned target", p)
			}
		}
	}
	wantTargets(t, fs, "/l1/l2/l3/l4")
}
