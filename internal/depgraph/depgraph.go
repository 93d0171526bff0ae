// Package depgraph maintains the directed acyclic graph of dependencies
// between semantic directories (§2.5 of the paper).
//
// A directory depends on another when its query references it — either
// implicitly (every semantic directory's query is conjoined with a
// reference to its parent's scope) or explicitly (the user wrote a
// dir: reference in the query). The paper requires this graph to be
// acyclic and consistency updates to run in topological order; this
// package enforces both.
//
// Nodes are identified by the uint64 directory UIDs issued by the
// namemap package. The graph is safe for concurrent use.
package depgraph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrCycle is returned when an edge set would create a dependency
// cycle.
var ErrCycle = errors.New("depgraph: dependency cycle")

// ErrUnknown is returned when an operation names a node that was never
// added.
var ErrUnknown = errors.New("depgraph: unknown node")

// Graph is a DAG of directory dependencies. The zero value is not
// usable; call New.
type Graph struct {
	mu         sync.RWMutex
	deps       map[uint64]map[uint64]bool // node → the nodes it depends on
	dependents map[uint64]map[uint64]bool // node → the nodes that depend on it
	met        graphMetrics
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		deps:       make(map[uint64]map[uint64]bool),
		dependents: make(map[uint64]map[uint64]bool),
	}
}

// Add registers a node with no dependencies. Adding an existing node is
// a no-op.
func (g *Graph) Add(id uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addLocked(id)
}

func (g *Graph) addLocked(id uint64) {
	if _, ok := g.deps[id]; !ok {
		g.deps[id] = make(map[uint64]bool)
		g.dependents[id] = make(map[uint64]bool)
	}
}

// Has reports whether id is a node.
func (g *Graph) Has(id uint64) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.deps[id]
	return ok
}

// Len returns the number of nodes.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.deps)
}

// Remove deletes a node and all edges touching it. Nodes that depended
// on id simply lose that dependency (the caller is expected to have
// rewritten or invalidated their queries).
func (g *Graph) Remove(id uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for dep := range g.deps[id] {
		delete(g.dependents[dep], id)
	}
	for dependent := range g.dependents[id] {
		delete(g.deps[dependent], id)
	}
	delete(g.deps, id)
	delete(g.dependents, id)
}

// SetDeps replaces the dependency set of id. It fails with ErrCycle if
// any new dependency can reach id, leaving the graph unchanged.
// Dependencies that are not yet nodes are added implicitly.
func (g *Graph) SetDeps(id uint64, deps []uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addLocked(id)
	for _, d := range deps {
		if d == id {
			return fmt.Errorf("%w: %d depends on itself", ErrCycle, id)
		}
		g.addLocked(d)
		if g.reachableLocked(d, id) {
			return fmt.Errorf("%w: %d → %d", ErrCycle, id, d)
		}
	}
	for old := range g.deps[id] {
		delete(g.dependents[old], id)
	}
	nd := make(map[uint64]bool, len(deps))
	for _, d := range deps {
		nd[d] = true
		g.dependents[d][id] = true
	}
	g.deps[id] = nd
	return nil
}

// reachableLocked reports whether "to" is reachable from "from" along
// dependency edges. Caller holds g.mu.
func (g *Graph) reachableLocked(from, to uint64) bool {
	if from == to {
		return true
	}
	seen := map[uint64]bool{from: true}
	stack := []uint64{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range g.deps[cur] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// Deps returns the direct dependencies of id, sorted.
func (g *Graph) Deps(id uint64) []uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return sortedKeys(g.deps[id])
}

// Dependents returns the nodes that directly depend on id, sorted.
func (g *Graph) Dependents(id uint64) []uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return sortedKeys(g.dependents[id])
}

// AffectedBy returns every node that transitively depends on id — the
// set whose queries must be re-evaluated when id's link set changes —
// in topological order (dependencies before dependents). When
// includeSelf is true id itself leads the list.
func (g *Graph) AffectedBy(id uint64, includeSelf bool) []uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.topoLocked(g.affectedLocked(id, includeSelf))
}

// affectedLocked collects the transitive dependents of id, and id
// itself when includeSelf is set. Caller holds g.mu.
func (g *Graph) affectedLocked(id uint64, includeSelf bool) map[uint64]bool {
	affected := map[uint64]bool{}
	if includeSelf {
		affected[id] = true
	}
	stack := []uint64{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range g.dependents[cur] {
			if !affected[next] {
				affected[next] = true
				stack = append(stack, next)
			}
		}
	}
	return affected
}

// TopoOf returns the given nodes in topological order of the subgraph
// they induce: only edges between two listed nodes constrain the order.
func (g *Graph) TopoOf(ids []uint64) []uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	subset := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		subset[id] = true
	}
	return g.topoLocked(subset)
}

// TopoLevels returns all nodes partitioned into dependency levels
// (antichains): every node in level i has all of its dependencies in
// levels < i, so the nodes of one level may be evaluated concurrently
// once all earlier levels have committed. Levels are emitted in
// topological order and each level is sorted by id.
func (g *Graph) TopoLevels() [][]uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	all := make(map[uint64]bool, len(g.deps))
	for id := range g.deps {
		all[id] = true
	}
	return g.levelsLocked(all)
}

// AffectedLevels is AffectedBy partitioned into dependency levels, with
// the same antichain guarantee as TopoLevels. When includeSelf is true,
// id itself is part of the subset (as level 0, alone or with other
// roots).
func (g *Graph) AffectedLevels(id uint64, includeSelf bool) [][]uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.levelsLocked(g.affectedLocked(id, includeSelf))
}

// levelsLocked runs layered Kahn over the induced subgraph: level 0 is
// every node with no in-subset dependencies, level i+1 every node whose
// last in-subset dependency sits in level i. Caller holds g.mu.
func (g *Graph) levelsLocked(subset map[uint64]bool) [][]uint64 {
	g.met.recomputes.Add(1)
	indeg := make(map[uint64]int, len(subset))
	for id := range subset {
		n := 0
		for d := range g.deps[id] {
			if subset[d] {
				n++
			}
		}
		indeg[id] = n
	}
	var frontier []uint64
	for id, n := range indeg {
		if n == 0 {
			frontier = append(frontier, id)
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })

	var levels [][]uint64
	for len(frontier) > 0 {
		level := frontier
		g.met.levelWidth.Observe(float64(len(level)))
		levels = append(levels, level)
		frontier = nil
		for _, cur := range level {
			for dep := range g.dependents[cur] {
				if !subset[dep] {
					continue
				}
				indeg[dep]--
				if indeg[dep] == 0 {
					frontier = append(frontier, dep)
				}
			}
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	}
	return levels
}

// topoLocked runs Kahn's algorithm restricted to the given node subset,
// breaking ties by ascending id for determinism. Caller holds g.mu.
func (g *Graph) topoLocked(subset map[uint64]bool) []uint64 {
	g.met.recomputes.Add(1)
	indeg := make(map[uint64]int, len(subset))
	for id := range subset {
		n := 0
		for d := range g.deps[id] {
			if subset[d] {
				n++
			}
		}
		indeg[id] = n
	}
	var ready []uint64
	for id, n := range indeg {
		if n == 0 {
			ready = append(ready, id)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })

	out := make([]uint64, 0, len(subset))
	for len(ready) > 0 {
		cur := ready[0]
		ready = ready[1:]
		out = append(out, cur)
		var unlocked []uint64
		for dep := range g.dependents[cur] {
			if !subset[dep] {
				continue
			}
			indeg[dep]--
			if indeg[dep] == 0 {
				unlocked = append(unlocked, dep)
			}
		}
		sort.Slice(unlocked, func(i, j int) bool { return unlocked[i] < unlocked[j] })
		// Merge keeping overall determinism: append then resort the
		// frontier (frontiers are small).
		ready = append(ready, unlocked...)
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	}
	return out
}

func sortedKeys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
