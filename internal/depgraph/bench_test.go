package depgraph

import "testing"

// buildChainAndFanout creates a graph shaped like a real volume: one
// deep chain plus many directories depending only on the root node.
func buildChainAndFanout(b *testing.B, chain, fanout int) *Graph {
	b.Helper()
	g := New()
	g.Add(1)
	for i := 2; i <= chain; i++ {
		if err := g.SetDeps(uint64(i), []uint64{uint64(i - 1)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < fanout; i++ {
		if err := g.SetDeps(uint64(1000+i), []uint64{1}); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

func BenchmarkAffectedBy(b *testing.B) {
	g := buildChainAndFanout(b, 20, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.AffectedBy(1, false); len(got) == 0 {
			b.Fatal("no dependents")
		}
	}
}

func BenchmarkTopoOfAllNodes(b *testing.B) {
	g := buildChainAndFanout(b, 20, 500)
	var ids []uint64
	for id := uint64(1); id < 1500; id++ {
		if g.Has(id) {
			ids = append(ids, id)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.TopoOf(ids); len(got) != 520 {
			b.Fatalf("topo = %d", len(got))
		}
	}
}

func BenchmarkSetDepsWithCycleCheck(b *testing.B) {
	g := buildChainAndFanout(b, 50, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rebinding the chain tail exercises the reachability check
		// over the whole chain.
		if err := g.SetDeps(50, []uint64{49}); err != nil {
			b.Fatal(err)
		}
	}
}
