package depgraph

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	g := New()
	g.Add(1)
	g.Add(1) // idempotent
	if !g.Has(1) || g.Has(2) || g.Len() != 1 {
		t.Fatalf("Has/Len wrong after Add")
	}
	g.Remove(1)
	if g.Has(1) || g.Len() != 0 {
		t.Fatal("Remove failed")
	}
	g.Remove(99) // absent: no-op
}

func TestSetDepsAndQueries(t *testing.T) {
	g := New()
	// 3 depends on 1 and 2; 4 depends on 3.
	if err := g.SetDeps(3, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetDeps(4, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if got := g.Deps(3); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("Deps(3) = %v", got)
	}
	if got := g.Dependents(1); !reflect.DeepEqual(got, []uint64{3}) {
		t.Fatalf("Dependents(1) = %v", got)
	}
	if got := g.AffectedBy(1, false); !reflect.DeepEqual(got, []uint64{3, 4}) {
		t.Fatalf("AffectedBy(1) = %v", got)
	}
	if got := g.AffectedBy(4, false); len(got) != 0 {
		t.Fatalf("AffectedBy(4) = %v, want empty", got)
	}
	// Replacing deps drops old edges.
	if err := g.SetDeps(3, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if got := g.Dependents(1); len(got) != 0 {
		t.Fatalf("stale dependents after SetDeps: %v", got)
	}
}

func TestCycleRejection(t *testing.T) {
	g := New()
	if err := g.SetDeps(2, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetDeps(3, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	// 1 → 3 would close the cycle 1 → 3 → 2 → 1.
	err := g.SetDeps(1, []uint64{3})
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle err = %v", err)
	}
	// Graph unchanged by the failed call.
	if got := g.Deps(1); len(got) != 0 {
		t.Fatalf("failed SetDeps mutated graph: %v", got)
	}
	// Self-dependency.
	if err := g.SetDeps(5, []uint64{5}); !errors.Is(err, ErrCycle) {
		t.Fatalf("self-dep err = %v", err)
	}
}

func TestRemoveDetachesEdges(t *testing.T) {
	g := New()
	if err := g.SetDeps(2, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetDeps(3, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	g.Remove(2)
	if got := g.Dependents(1); len(got) != 0 {
		t.Fatalf("Dependents(1) after Remove(2) = %v", got)
	}
	if got := g.Deps(3); len(got) != 0 {
		t.Fatalf("Deps(3) after Remove(2) = %v", got)
	}
	// Removing 2 must not allow cycles through ghosts.
	if err := g.SetDeps(1, []uint64{3}); err != nil {
		t.Fatal(err)
	}
}

// topoAll orders every node of g with an id in [1, max].
func topoAll(g *Graph, max uint64) []uint64 {
	var ids []uint64
	for id := uint64(1); id <= max; id++ {
		if g.Has(id) {
			ids = append(ids, id)
		}
	}
	return g.TopoOf(ids)
}

func TestTopoOfAllNodes(t *testing.T) {
	g := New()
	// Diamond: 4 deps on 2,3; 2 and 3 dep on 1.
	for _, e := range []struct {
		id   uint64
		deps []uint64
	}{{2, []uint64{1}}, {3, []uint64{1}}, {4, []uint64{2, 3}}} {
		if err := g.SetDeps(e.id, e.deps); err != nil {
			t.Fatal(err)
		}
	}
	order := topoAll(g, 4)
	pos := map[uint64]int{}
	for i, id := range order {
		pos[id] = i
	}
	if len(order) != 4 {
		t.Fatalf("TopoOf len = %d", len(order))
	}
	if pos[1] > pos[2] || pos[1] > pos[3] || pos[2] > pos[4] || pos[3] > pos[4] {
		t.Fatalf("TopoOf order invalid: %v", order)
	}
	// Deterministic.
	if !reflect.DeepEqual(order, topoAll(g, 4)) {
		t.Fatal("TopoOf not deterministic")
	}
}

func TestAffectedByDiamondOrder(t *testing.T) {
	g := New()
	// 1 ← 2 ← 4, 1 ← 3 ← 4 (4 depends on both 2 and 3).
	for _, e := range []struct {
		id   uint64
		deps []uint64
	}{{2, []uint64{1}}, {3, []uint64{1}}, {4, []uint64{2, 3}}} {
		if err := g.SetDeps(e.id, e.deps); err != nil {
			t.Fatal(err)
		}
	}
	got := g.AffectedBy(1, false)
	if !reflect.DeepEqual(got, []uint64{2, 3, 4}) {
		t.Fatalf("AffectedBy(1) = %v, want [2 3 4]", got)
	}
}

// Property: SetDeps never admits a cycle — for random edge insertions,
// TopoOf over all nodes returns every node exactly once with dependencies
// first.
func TestPropertyAcyclicInvariant(t *testing.T) {
	f := func(edges []struct{ A, B uint8 }) bool {
		g := New()
		for _, e := range edges {
			id, dep := uint64(e.A%16)+1, uint64(e.B%16)+1
			// Accumulate: new deps = old deps + dep.
			deps := append(g.Deps(id), dep)
			_ = g.SetDeps(id, deps) // may reject; fine
		}
		order := topoAll(g, 16)
		if len(order) != g.Len() {
			return false
		}
		pos := map[uint64]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, id := range order {
			for _, d := range g.Deps(id) {
				if pos[d] >= pos[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AffectedBy(x) is exactly the set of nodes from which x is
// reachable along dependency edges.
func TestPropertyAffectedMatchesReachability(t *testing.T) {
	f := func(edges []struct{ A, B uint8 }, probe uint8) bool {
		g := New()
		for _, e := range edges {
			id, dep := uint64(e.A%12)+1, uint64(e.B%12)+1
			deps := append(g.Deps(id), dep)
			_ = g.SetDeps(id, deps)
		}
		x := uint64(probe%12) + 1
		if !g.Has(x) {
			return true
		}
		affected := map[uint64]bool{}
		for _, id := range g.AffectedBy(x, false) {
			affected[id] = true
		}
		// Reference: BFS over dependents.
		want := map[uint64]bool{}
		queue := []uint64{x}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, d := range g.Dependents(cur) {
				if !want[d] {
					want[d] = true
					queue = append(queue, d)
				}
			}
		}
		return reflect.DeepEqual(affected, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
