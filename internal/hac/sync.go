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
// ssync command. Directories are re-evaluated level by level in
// topological order of the dependency DAG (§2.5); within one level
// (an antichain of the DAG) directories are independent and are
// evaluated concurrently by the engine in engine.go. Options override
// the volume defaults for this pass (WithParallelism, WithVerify,
// WithContext).
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
	if err != nil {
		fs.mu.Unlock()
		cfg.span.FinishErr(err)
		return err
	}
	if !info.IsDir() {
		fs.mu.Unlock()
		err = pathErr("ssync", path, vfs.ErrNotDir)
		cfg.span.FinishErr(err)
		return err
	}
	ds := fs.registerDirLocked(clean)
	uid := ds.uid
	fs.mu.Unlock()
	err = fs.syncLevels(fs.graph.AffectedLevels(uid, true), cfg)
	fs.met.syncTotal.Add(1)
	fs.met.syncSeconds.ObserveSince(start)
	cfg.span.FinishErr(err)
	return err
}

// SyncPath is Sync with volume-default options, under the fixed
// signature that the serving layer (remotefs.PathSyncer) dispatches
// ssync requests through.
func (fs *FS) SyncPath(path string) error { return fs.Sync(path) }

// SyncPathContext is SyncPath with the request context threaded
// through (remotefs.ContextSyncer), so a trace propagated from a
// remote client links into the pass's spans.
func (fs *FS) SyncPathContext(ctx context.Context, path string) error {
	return fs.Sync(path, WithContext(ctx))
}

// SyncAll restores scope consistency for the whole volume, level by
// level (see Sync).
func (fs *FS) SyncAll(opts ...Option) error {
	cfg := fs.evalCfg(opts)
	start := time.Now()
	cfg.span, cfg.ctx = fs.obsv.Tracer().StartCtx(cfg.ctx, "hac.SyncAll")
	err := fs.syncLevels(fs.graph.TopoLevels(), cfg)
	fs.met.syncTotal.Add(1)
	fs.met.syncSeconds.ObserveSince(start)
	cfg.span.FinishErr(err)
	return err
}

// resyncLocked is the one walker under every consistency pass that runs
// with the write lock held — mutation paths, the engine's serial and
// generation-fallback branches, the delta pass's fallback: it
// re-evaluates the semantic directories among uids, computing and
// committing each before the next reads its links. uids must list
// dependencies before dependents (depgraph orders them); a mutation
// path passes fs.evalCfg(nil), the volume's standing settings. Caller
// holds fs.mu for writing.
func (fs *FS) resyncLocked(uids []uint64, cfg evalConfig) error {
	fs.gen++ // links are about to move; results the engine staged are stale
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
// transient target set — the read-only half of the paper's
// scope-consistency algorithm:
//
//  1. re-evaluate the query over the scope provided by the parent — the
//     same bind → plan → execute path an ad-hoc Search takes;
//  2. discard results that are permanent or prohibited in ds;
//  3. the remainder is the new transient set (permanent and prohibited
//     sets are never touched).
//
// It mutates nothing, so the engine may run many of these concurrently
// under the read lock. Caller holds fs.mu (read suffices).
func (fs *FS) computeTargetsLocked(ds *dirState, cfg evalConfig) (map[string]bool, error) {
	dirPath, ok := fs.pathOfLocked(ds.uid)
	if !ok {
		return nil, fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
	}
	fs.met.semdirEvals.Add(1)
	sp := cfg.span.Child("hac.eval")
	sp.Annotate("dir", dirPath)

	newTargets := make(map[string]bool)
	if ds.ast != nil {
		matched, err := fs.matchLocalLocked(ds, dirPath, cfg.verify)
		if err != nil {
			err = pathErr("ssync", dirPath, fmt.Errorf("evaluating query: %w", err))
			sp.FinishErr(err)
			return nil, err
		}
		for _, p := range matched {
			newTargets[p] = true
		}
		remoteStart := time.Now()
		remote, err := fs.evalRemoteLocked(cfg.ctx, ds, vfs.Dir(dirPath))
		fs.met.phaseRemote.ObserveSince(remoteStart)
		if err != nil {
			sp.FinishErr(err)
			return nil, err
		}
		for t := range remote {
			newTargets[t] = true
		}
	}

	// Never add what the user prohibited; never duplicate what the user
	// made permanent.
	for t := range ds.prohibited {
		delete(newTargets, t)
	}
	for t, c := range ds.class {
		if c == Permanent {
			delete(newTargets, t)
		}
	}
	sp.Annotate("targets", strconv.Itoa(len(newTargets)))
	sp.Finish()
	return newTargets, nil
}

// commitTargetsLocked diffs newTargets against ds's current transient
// set, mutating the underlying directory to match: drop, repair, add
// (DESIGN.md §8). Each link dropped or added costs one substrate call
// and each link kept one Lstat. Targets are processed in sorted order so
// the substrate mutations — and therefore collision-suffixed link names
// — are deterministic. Caller holds fs.mu for writing.
func (fs *FS) commitTargetsLocked(ds *dirState, newTargets map[string]bool) error {
	dirPath, ok := fs.pathOfLocked(ds.uid)
	if !ok {
		return fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
	}
	commitStart := time.Now()
	var drop []string
	for t, c := range ds.class {
		if c == Transient && !newTargets[t] {
			drop = append(drop, t)
		}
	}
	sort.Strings(drop)
	for _, t := range drop {
		if err := fs.dropLinkLocked(ds, dirPath, t); err != nil {
			return err
		}
	}
	commit := time.Since(commitStart)

	repairStart := time.Now()
	// Crash repair: a fault between an unlink and a relink — a torn
	// rename rewrite, an interrupted commit — can leave a classified
	// target with its physical symlink missing, or (when the fault hit a
	// rename's link-rewrite pass) still pointing at the pre-rename path.
	// A permanent link is never re-derived and a kept transient one is
	// skipped by the adds, so both would stay broken forever. The
	// classification is authoritative: re-create missing symlinks and
	// re-point wrong ones, making every consistency pass also a repair
	// pass. It covers the links classified before this commit only — a
	// link whose Symlink returns nil below, under fs.mu, is known good —
	// and runs before the adds, so a missing link gets its recorded name
	// back before a new target can take that name.
	var repair []string
	for t := range ds.class {
		broken, err := fs.linkBrokenLocked(ds, dirPath, t)
		if err != nil {
			return err
		}
		if broken {
			repair = append(repair, t)
		}
	}
	sort.Strings(repair)
	for _, t := range repair {
		if err := fs.relinkLocked(ds, dirPath, t); err != nil {
			return err
		}
	}
	fs.met.linksRepaired.Add(int64(len(repair)))
	fs.met.phaseRepair.ObserveSince(repairStart)

	addStart := time.Now()
	var add []string
	for t := range newTargets {
		if _, ok := ds.class[t]; !ok {
			add = append(add, t)
		}
	}
	sort.Strings(add)
	for _, t := range add {
		if err := fs.addTransientLocked(ds, dirPath, t); err != nil {
			return err
		}
	}
	if len(drop)+len(add) > 0 {
		fs.bumpScopeEpochLocked(ds.uid)
	}
	fs.met.linksDropped.Add(int64(len(drop)))
	fs.met.linksAdded.Add(int64(len(add)))
	fs.met.phaseCommit.ObserveDuration(commit + time.Since(addStart))
	return nil
}

// dropLinkLocked removes ds's link to t: the symlink, then the
// classification. Caller holds fs.mu for writing.
func (fs *FS) dropLinkLocked(ds *dirState, dirPath, t string) error {
	if name, ok := ds.linkName[t]; ok {
		if err := fs.under.Remove(vfs.Join(dirPath, name)); err != nil && !isNotExist(err) {
			return err
		}
	}
	delete(ds.class, t)
	delete(ds.linkName, t)
	return nil
}

// addTransientLocked materializes a transient link from ds to t. Caller
// holds fs.mu for writing.
func (fs *FS) addTransientLocked(ds *dirState, dirPath, t string) error {
	name, err := fs.materializeLinkLocked(ds, dirPath, t)
	if err != nil {
		return err
	}
	ds.class[t] = Transient
	ds.linkName[t] = name
	return nil
}

// linkBrokenLocked reports whether the symlink behind ds's classified
// target t is missing or points elsewhere; a wrong one is removed so
// relinkLocked can take its place. One Lstat: its Info carries the
// link's target. Caller holds fs.mu for writing.
func (fs *FS) linkBrokenLocked(ds *dirState, dirPath, t string) (bool, error) {
	name, ok := ds.linkName[t]
	if !ok || name == "" {
		return false, nil
	}
	lp := vfs.Join(dirPath, name)
	info, err := fs.under.Lstat(lp)
	switch {
	case isNotExist(err):
		return true, nil
	case err != nil:
		return false, err
	case info.Type == vfs.TypeSymlink && info.Target != t:
		if err := fs.under.Remove(lp); err != nil && !isNotExist(err) {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// relinkLocked re-creates the symlink of ds's classified target t under
// its recorded name, which linkBrokenLocked just found free. Caller
// holds fs.mu for writing.
func (fs *FS) relinkLocked(ds *dirState, dirPath, t string) error {
	return fs.under.Symlink(t, vfs.Join(dirPath, ds.linkName[t]))
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
	var paths []string
	for t := range ds.class {
		if _, _, remote := splitRemoteTarget(t); remote {
			continue
		}
		if p, ok := fs.resolveToIndexedLocked(t); ok {
			paths = append(paths, p)
		}
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
// path, following symlink chains (a link in one semantic directory may
// point at a link in another). Caller holds fs.mu.
func (fs *FS) resolveToIndexedLocked(target string) (string, bool) {
	p := target
	for depth := 0; depth < 10; depth++ {
		if _, ok := fs.ix.IDOf(p); ok {
			return p, true
		}
		info, err := fs.under.Lstat(p)
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
// settled"). The file walk goes through the HAC layer itself, as in
// the paper's Table 3 setup.
//
// Files are read and tokenized by a pool of cfg.parallelism workers
// (WithParallelism, default Options.Parallelism, 0 = NumCPU); index
// insertion stays single-writer in walk order, so document IDs — and
// therefore all downstream bitmaps — are identical to a serial run.
func (fs *FS) Reindex(root string, opts ...Option) (IndexReport, error) {
	cfg := fs.evalCfg(opts)
	reindexStart := time.Now()
	sp, ctx := fs.obsv.Tracer().StartCtx(cfg.ctx, "hac.Reindex")
	sp.Annotate("root", root)
	defer func() {
		fs.met.reindexTotal.Add(1)
		fs.met.reindexSeconds.ObserveSince(reindexStart)
	}()
	var rep IndexReport
	// Register directories first — the paper's per-directory structures
	// and global-map entries are part of HAC's indexing cost.
	err := vfs.Walk(fs, root, func(p string, info vfs.Info) error {
		if info.IsDir() {
			fs.mu.Lock()
			fs.registerDirLocked(p)
			fs.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		sp.FinishErr(err)
		return rep, err
	}
	added, updated, removed, err := fs.ix.SyncTreeParallel(fs, root, cfg.parallelism)
	rep = IndexReport{Added: added, Updated: updated, Removed: removed}
	// The index changed outside fs.mu; bump the generation so any
	// evaluation pass that overlapped the re-index falls back rather
	// than committing results staged against the old index.
	fs.mu.Lock()
	fs.gen++
	fs.mu.Unlock()
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
	AttrHits     int64
	AttrMisses   int64
	OpenHandles  int64
}

// Stats returns a snapshot of the layer's counters.
func (fs *FS) Stats() Stats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	s := Stats{
		Directories: len(fs.dirs),
		GraphNodes:  fs.graph.Len(),
		OpenHandles: fs.fds.open64.Load(),
	}
	for _, ds := range fs.dirs {
		if ds.semantic {
			s.SemanticDirs++
		}
	}
	s.AttrHits, s.AttrMisses = fs.attrs.stats()
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
		total += 48 // fixed per-directory record
		total += len(ds.queryText)
		for t := range ds.class {
			total += len(t) + len(ds.linkName[t]) + 8
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

// SharedMemoryBytes reports the footprint of the attribute cache and
// descriptor table — the structures the paper keeps in per-process
// shared memory (~16 KB per process in §4).
func (fs *FS) SharedMemoryBytes() int {
	return fs.attrs.sizeBytes() + fs.fds.sizeBytes()
}
