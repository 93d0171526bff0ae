package hac

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/index"
	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs"
)

// pathErr wraps err with the operation and path that failed, so callers
// can recover the path via errors.As(&hacfs.PathError{}) while
// errors.Is against the sentinels keeps working through Unwrap.
func pathErr(op, path string, err error) error {
	return &vfs.PathError{Op: op, Path: path, Err: err}
}

// Sync restores scope consistency (§2.3) for the directory at path and
// everything that directly or indirectly depends on it — the paper's
// ssync command. Directories are re-evaluated one at a time in
// topological order of the dependency DAG (§2.5), under one hold of the
// write lock. Options override the volume defaults for this pass
// (WithVerify, WithContext).
func (fs *FS) Sync(path string, opts ...Option) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return pathErr("ssync", path, err)
	}
	cfg := fs.evalCfg(opts)
	start := time.Now()
	cfg.span, cfg.ctx = fs.obsv.Tracer().StartCtx(cfg.ctx, "hac.Sync")
	cfg.span.Annotate("path", clean)
	fs.mu.Lock()
	info, err := fs.under.Stat(clean)
	if isNotExist(err) {
		var p string
		if p, err = fs.followLocked(clean, err); err == nil {
			info, err = fs.under.Stat(p)
		}
	}
	if err == nil && !info.IsDir() {
		err = pathErr("ssync", path, vfs.ErrNotDir)
	}
	if err != nil {
		fs.mu.Unlock()
		cfg.span.FinishErr(err)
		return err
	}
	uid := fs.registerDirLocked(clean).uid
	err = fs.resyncLocked(fs.graph.AffectedBy(uid, true), cfg)
	fs.mu.Unlock()
	fs.met.syncTotal.Add(1)
	fs.met.syncSeconds.ObserveSince(start)
	cfg.span.FinishErr(err)
	return err
}

// SyncPathContext is Sync with volume-default options and the request
// context threaded through, under the fixed signature that the serving
// layer (remotefs.ContextSyncer) dispatches ssync requests through, so
// a trace propagated from a remote client links into the pass's spans.
func (fs *FS) SyncPathContext(ctx context.Context, path string) error {
	return fs.Sync(path, WithContext(ctx))
}

// SyncAll restores scope consistency for the whole volume: every
// semantic directory, in topological order (see Sync).
func (fs *FS) SyncAll(opts ...Option) error {
	cfg := fs.evalCfg(opts)
	start := time.Now()
	cfg.span, cfg.ctx = fs.obsv.Tracer().StartCtx(cfg.ctx, "hac.SyncAll")
	fs.mu.Lock()
	err := fs.resyncLocked(fs.semanticOrderLocked(), cfg)
	fs.mu.Unlock()
	fs.met.syncTotal.Add(1)
	fs.met.syncSeconds.ObserveSince(start)
	cfg.span.FinishErr(err)
	return err
}

// resyncLocked is the one consistency walker — Sync, SyncAll, mutation
// paths, mounts and the delta pass's fallback all run it: it
// re-evaluates the semantic directories among uids, computing and
// committing each before the next reads its links. uids must list
// dependencies before dependents (depgraph orders them); a mutation
// path passes fs.evalCfg(nil), the volume's standing settings. Caller
// holds fs.mu for writing.
func (fs *FS) resyncLocked(uids []uint64, cfg evalConfig) error {
	for _, uid := range uids {
		ds, ok := fs.dirs[uid]
		if !ok || !ds.semantic {
			continue
		}
		newTargets, err := fs.computeTargetsLocked(ds, cfg)
		if err != nil {
			return err
		}
		if err := fs.commitTargetsLocked(ds, newTargets); err != nil {
			return err
		}
	}
	return nil
}

// dirPlanLocked binds and compiles ds's stored query under the scope
// its parent provides (§2.3) — or under no scope when the query carries
// dir: references (§2.5: "users can choose strict hierarchical
// dependencies, DAG based dependencies, or both"). Caller holds fs.mu.
func (fs *FS) dirPlanLocked(ds *dirState, dirPath string) (*plan.Plan, *index.Snapshot, error) {
	scopePath := vfs.Dir(dirPath)
	if len(query.Refs(ds.ast)) > 0 {
		scopePath = ""
	}
	b, err := fs.bindLocked(ds.ast, scopePath)
	if err != nil {
		return nil, nil, err
	}
	p, err := fs.buildPlan(ds.ast, b)
	return p, b.env.Snap, err
}

// matchLocalLocked answers ds's stored query from the local index: the
// paths of the documents its plan matches. Caller holds fs.mu.
func (fs *FS) matchLocalLocked(ds *dirState, dirPath string, verify bool) ([]string, error) {
	scopeStart := time.Now()
	p, snap, err := fs.dirPlanLocked(ds, dirPath)
	fs.met.phaseScope.ObserveSince(scopeStart)
	if err != nil {
		return nil, err
	}
	evalStart := time.Now()
	defer fs.met.phaseEval.ObserveSince(evalStart)
	local, err := fs.execPlan(p)
	if err != nil {
		return nil, err
	}
	matched := snap.Paths(local)
	if verify {
		// Glimpse-style second level: confirm each candidate by
		// scanning its content for the query terms.
		verifyMatches(fs.under, matched, query.Terms(ds.ast))
	}
	return matched, nil
}

// computeTargetsLocked evaluates ds's query and returns its new
// transient target set, sorted — the read-only half of the paper's
// scope-consistency algorithm:
//
//  1. re-evaluate the query over the scope provided by the parent — the
//     same bind → plan → execute path an ad-hoc Search takes;
//  2. discard results that are permanent or prohibited in ds;
//  3. the remainder is the new transient set (permanent and prohibited
//     sets are never touched).
//
// It mutates nothing; resyncLocked commits the result. Caller holds
// fs.mu (read suffices).
func (fs *FS) computeTargetsLocked(ds *dirState, cfg evalConfig) ([]string, error) {
	dirPath, ok := fs.pathOfLocked(ds.uid)
	if !ok {
		return nil, fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
	}
	fs.met.semdirEvals.Add(1)
	sp := cfg.span.Child("hac.eval")
	sp.Annotate("dir", dirPath)

	var targets []string
	if ds.ast != nil {
		matched, err := fs.matchLocalLocked(ds, dirPath, cfg.verify)
		if err != nil {
			err = pathErr("ssync", dirPath, fmt.Errorf("evaluating query: %w", err))
			sp.FinishErr(err)
			return nil, err
		}
		targets = matched // sorted by Snapshot.Paths
		remoteStart := time.Now()
		remote, err := fs.evalRemoteLocked(cfg.ctx, ds, vfs.Dir(dirPath))
		fs.met.phaseRemote.ObserveSince(remoteStart)
		if err != nil {
			sp.FinishErr(err)
			return nil, err
		}
		if len(remote) > 0 {
			rs := make([]string, 0, len(remote))
			for t := range remote {
				rs = append(rs, t)
			}
			sort.Strings(rs)
			// "remote://…" sorts after every local path, "/…".
			targets = append(targets, rs...)
		}
	}

	// Never add what the user prohibited; never duplicate what the user
	// made permanent.
	if len(ds.prohibited)+len(ds.perm) > 0 {
		kept := targets[:0]
		for _, t := range targets {
			if _, perm := ds.perm[t]; !perm && !ds.prohibited[t] {
				kept = append(kept, t)
			}
		}
		targets = kept
	}
	sp.Annotate("targets", strconv.Itoa(len(targets)))
	sp.Finish()
	return targets, nil
}

// commitTargetsLocked makes targets, sorted, ds's transient set
// (DESIGN.md §8): one linear merge of the old and the new list. A target
// in both keeps its link; one only in the old list is dropped, with its
// name; one only in the new list is added. While the directory's name
// index is unbuilt, that is all: the adds join the links unnamed, and the
// first build names them (view.go) — no map, no name, no substrate call.
// Only a directory whose index is built, so whose names are held, names
// its adds now, each under its base name or the first free ~n in target
// order, against the names held and the physical entries (one ReadDir).
// Caller holds fs.mu for writing.
func (fs *FS) commitTargetsLocked(ds *dirState, targets []string) error {
	dirPath, ok := fs.pathOfLocked(ds.uid)
	if !ok {
		return fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
	}
	commitStart := time.Now()
	old := ds.trans
	var drops, adds []string
	if len(old) == 0 {
		adds = targets
	} else {
		for i, j := 0, 0; i < len(old) || j < len(targets); {
			switch {
			case j == len(targets) || i < len(old) && old[i] < targets[j]:
				drops = append(drops, old[i])
				i++
			case i == len(old) || targets[j] < old[i]:
				adds = append(adds, targets[j])
				j++
			default:
				i++
				j++
			}
		}
	}
	if len(drops)+len(adds) == 0 {
		return nil
	}
	if v := ds.view; v != nil {
		var taken map[string]bool
		if len(adds) > 0 {
			var err error
			if taken, err = fs.takenNamesLocked(dirPath); err != nil {
				return err
			}
		}
		for _, t := range drops {
			delete(v.byName, ds.nameOf(t))
			delete(ds.transName, t)
		}
		ds.nameTrans(v.byName, taken, adds)
		v.entries = nil
	}
	ds.trans = targets
	ds.changed = time.Now()
	fs.bumpScopeEpochLocked(ds.uid)
	fs.met.linksDropped.Add(int64(len(drops)))
	fs.met.linksAdded.Add(int64(len(adds)))
	fs.met.phaseCommit.ObserveSince(commitStart)
	return nil
}

func isNotExist(err error) bool { return errors.Is(err, vfs.ErrNotExist) }

// verifyMatches reads each candidate file and counts occurrences of the
// query terms, mimicking the grep pass of a two-level index like
// Glimpse. The count is returned so the scan has an observable result.
func verifyMatches(fsys vfs.FileSystem, paths []string, terms []string) int {
	total := 0
	for _, p := range paths {
		data, err := fsys.ReadFile(p)
		if err != nil {
			continue
		}
		content := strings.ToLower(string(data))
		for _, t := range terms {
			total += strings.Count(content, t)
		}
	}
	return total
}

// providedScopeLocalLocked returns the local-document scope a directory
// provides (§2.3):
//
//   - a semantic directory provides its current link targets plus the
//     regular files physically inside it;
//   - a syntactic directory (including the root) provides every indexed
//     file in its subtree.
//
// The scope is resolved against snap, so it composes with query results
// evaluated against the same snapshot. Caller holds fs.mu.
func (fs *FS) providedScopeLocalLocked(snap *index.Snapshot, dirPath string) *bitset.Segmented {
	ds, ok := fs.stateAtLocked(dirPath)
	if !ok || !ds.semantic {
		return snap.DocsUnder(dirPath)
	}
	paths := make([]string, 0, len(ds.trans)+len(ds.perm))
	add := func(t string) {
		if IsRemoteTarget(t) {
			return
		}
		if p, ok := fs.resolveToIndexedLocked(t); ok {
			paths = append(paths, p)
		}
	}
	for _, t := range ds.trans {
		add(t)
	}
	for t := range ds.perm {
		add(t)
	}
	if entries, err := fs.under.ReadDir(dirPath); err == nil {
		for _, e := range entries {
			if e.Type == vfs.TypeFile {
				paths = append(paths, vfs.Join(dirPath, e.Name))
			}
		}
	}
	return snap.IDsOf(paths)
}

// resolveToIndexedLocked maps a link target to an indexed document
// path, following symlink chains — view links included: a link in one
// semantic directory may point at a link in another. Caller holds fs.mu.
func (fs *FS) resolveToIndexedLocked(target string) (string, bool) {
	p := target
	for depth := 0; depth < 10; depth++ {
		if _, ok := fs.ix.IDOf(p); ok {
			return p, true
		}
		info, err := fs.lstatLocked(p)
		if err != nil || info.Type != vfs.TypeSymlink {
			return "", false
		}
		next := info.Target
		if !vfs.IsAbs(next) {
			next = vfs.Join(vfs.Dir(p), next)
		}
		p = next
	}
	return "", false
}

// IndexReport summarizes a Reindex run.
type IndexReport struct {
	Added   int
	Updated int
	Removed int
}

// Reindex runs the paper's §2.4 data-consistency pass over the subtree
// at root: every directory is registered in the global map (so it can
// serve as a scope or query reference), the CBA mechanism incrementally
// re-indexes the files, and every semantic directory is re-evaluated
// ("at reindexing time, all scope and data inconsistencies are
// settled"). The file walk reads the substrate, not the HAC layer: the
// links a semantic directory holds are a view with nothing to index, so
// a pass neither lists nor names them. It builds one sealed index
// segment whose document IDs follow walk order.
func (fs *FS) Reindex(root string, opts ...Option) (IndexReport, error) {
	cfg := fs.evalCfg(opts)
	reindexStart := time.Now()
	sp, ctx := fs.obsv.Tracer().StartCtx(cfg.ctx, "hac.Reindex")
	sp.Annotate("root", root)
	defer func() {
		fs.met.reindexTotal.Add(1)
		fs.met.reindexSeconds.ObserveSince(reindexStart)
	}()
	// The index's walk registers each directory as it reaches it — the
	// paper's per-directory structures and global-map entries are part of
	// HAC's indexing cost — so the tree is walked once.
	added, updated, removed, err := fs.ix.SyncTree(fs.under, root, func(dir string) {
		fs.mu.Lock()
		fs.registerDirLocked(dir)
		fs.mu.Unlock()
	})
	rep := IndexReport{Added: added, Updated: updated, Removed: removed}
	if err != nil {
		sp.FinishErr(err)
		return rep, err
	}
	sp.Annotate("added", strconv.Itoa(added))
	sp.Annotate("updated", strconv.Itoa(updated))
	sp.Annotate("removed", strconv.Itoa(removed))
	// Thread the reindex span's context into the consistency pass, so
	// its hac.SyncAll root nests in the same trace.
	err = fs.SyncAll(append(opts[:len(opts):len(opts)], WithContext(ctx))...)
	sp.FinishErr(err)
	return rep, err
}

// Stats reports HAC-layer health counters.
type Stats struct {
	Directories  int // directories with HAC bookkeeping
	SemanticDirs int
	GraphNodes   int
	OpenHandles  int64 // handles opened and not yet closed
}

// Stats returns a snapshot of the layer's counters.
func (fs *FS) Stats() Stats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	s := Stats{
		Directories: len(fs.dirs),
		GraphNodes:  fs.graph.Len(),
		OpenHandles: fs.openHandles.Load(),
	}
	for _, ds := range fs.dirs {
		if ds.semantic {
			s.SemanticDirs++
		}
	}
	return s
}

// MetadataBytes estimates the on-disk footprint of HAC's per-directory
// data structures (queries, link classifications, the global map, the
// dependency graph, and the per-semantic-directory result bitmap of N/8
// bytes) — the paper's "222 KB vs 210 KB" experiment.
func (fs *FS) MetadataBytes() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	total := fs.names.SizeBytes()
	universe := fs.ix.Universe()
	for _, ds := range fs.dirs {
		// The override count depends on the names: unnamed links get
		// theirs. A directory whose links cannot be named (its listing
		// failed) holds no overrides, and a reader naming it may be
		// writing them: they are not read.
		named := fs.nameLinksLocked(ds) == nil
		total += 48 // fixed per-directory record
		total += len(ds.queryText)
		// The transient set is a sorted list: each target and its length.
		for _, t := range ds.trans {
			total += len(t) + 1
		}
		if named {
			for t, name := range ds.transName {
				total += len(t) + len(name) + 8
			}
		}
		for t, name := range ds.perm {
			total += len(t) + len(name) + 8
		}
		for t := range ds.prohibited {
			total += len(t) + 8
		}
		// The compact query-result representation: one bit per indexed
		// file (§4). The paper initializes this structure (to "empty")
		// for every directory at mkdir time, so every registered
		// directory carries the N/8-byte slot.
		total += (universe + 7) / 8
		// One dependency-graph node with its edges.
		total += 16 + 16*len(fs.graph.Deps(ds.uid))
	}
	return total
}
