package hac

import (
	"fmt"
	"sort"

	"hacfs/internal/bitset"
	"hacfs/internal/query"
	"hacfs/internal/vfs"
)

// CheckConsistency audits the volume against the paper's invariants and
// returns a description of every violation found (empty means
// consistent). It verifies, for each semantic directory:
//
//   - I2: the local transient links are exactly the directory's query
//     over the scope its parent provides (no implicit scope when the
//     query carries dir: references), minus prohibited and permanent
//     targets — which also puts every one of them inside that scope
//     (I1). The expected set comes from the reference evaluator
//     query.Eval, not from the planner that produced the links, and is
//     relative to the current index: content that changed since the
//     last Reindex is not looked at (§2.4), but an index that moved
//     without a Sync after it — Index().Add, a file rename — shows up;
//   - I4: no prohibited target is currently linked;
//   - the physical symlinks in the directory match the classification
//     exactly (same names, same targets);
//   - the dependency graph has a node for the directory and an edge to
//     its parent.
//
// It is a diagnostic: it takes the volume lock (shared, so concurrent
// readers proceed) and is not cheap.
func (fs *FS) CheckConsistency() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var problems []string
	report := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	uids := make([]uint64, 0, len(fs.dirs))
	for uid := range fs.dirs {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })

	for _, uid := range uids {
		ds := fs.dirs[uid]
		dirPath, ok := fs.pathOfLocked(uid)
		if !ok {
			report("directory uid %d has no path in the global map", uid)
			continue
		}
		if !fs.graph.Has(uid) {
			report("%s: missing dependency-graph node", dirPath)
		}
		if !ds.semantic {
			continue
		}

		// I1 and I2 (local targets only; remote targets are checked
		// against their namespaces at sync time).
		for _, problem := range fs.auditI2Locked(ds, dirPath) {
			report("%s: I2 violated: %s", dirPath, problem)
		}
		// I4: prohibited ∩ linked = ∅.
		for target := range ds.prohibited {
			if _, linked := ds.class[target]; linked {
				report("%s: I4 violated: %s is both prohibited and linked", dirPath, target)
			}
		}
		// Physical links mirror the classification.
		entries, err := fs.under.ReadDir(dirPath)
		if err != nil {
			report("%s: unreadable: %v", dirPath, err)
			continue
		}
		physical := map[string]string{} // name → target
		for _, e := range entries {
			if e.Type != vfs.TypeSymlink {
				continue
			}
			if target, err := fs.under.Readlink(vfs.Join(dirPath, e.Name)); err == nil {
				physical[e.Name] = target
			}
		}
		for target, name := range ds.linkName {
			got, ok := physical[name]
			switch {
			case !ok:
				report("%s: classified link %s (→ %s) has no symlink", dirPath, name, target)
			case got != target:
				report("%s: symlink %s points to %s, classified as %s", dirPath, name, got, target)
			}
			delete(physical, name)
		}
		for name, target := range physical {
			report("%s: unclassified symlink %s → %s", dirPath, name, target)
		}
	}
	return problems
}

// auditI2Locked compares ds's local transient links with its query
// evaluated naively: after the shared bind step, query.Eval fetches
// every leaf's whole posting list and the parent scope is intersected
// afterwards — the opposite order from the planner's. Every set is
// resolved against the one snapshot the bind pinned, so a merge
// committing mid-audit cannot fabricate a violation. Caller holds fs.mu.
func (fs *FS) auditI2Locked(ds *dirState, dirPath string) []string {
	want := map[string]bool{}
	if ds.ast != nil {
		b, err := fs.bindLocked(ds.ast, "")
		var res *bitset.Segmented
		if err == nil {
			res, err = query.Eval(ds.ast, b.env)
		}
		if err != nil {
			return []string{fmt.Sprintf("query does not evaluate: %v", err)}
		}
		if len(b.env.Refs) == 0 {
			res.And(fs.providedScopeLocalLocked(b.env.Snap, vfs.Dir(dirPath)))
		}
		for _, p := range b.env.Snap.Paths(res) {
			if !ds.prohibited[p] && ds.class[p] != Permanent {
				want[p] = true
			}
		}
	}
	var problems []string
	for target, class := range ds.class {
		if class != Transient || IsRemoteTarget(target) {
			continue
		}
		if !want[target] {
			problems = append(problems, fmt.Sprintf("transient %s is not in the query's result", target))
		}
		delete(want, target)
	}
	for p := range want {
		problems = append(problems, fmt.Sprintf("%s matches the query but is not linked", p))
	}
	sort.Strings(problems)
	return problems
}
