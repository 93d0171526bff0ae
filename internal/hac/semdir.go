package hac

import (
	"fmt"
	"sort"
	"time"

	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs"
)

// SemDir ensures a semantic directory at path with the given query —
// the single entry point behind the paper's smkdir. If path does not
// exist the directory is created (and removed again should query
// installation fail, so creation is atomic). If path is an existing
// directory it is converted in place, keeping its contents; existing
// symbolic links are classified permanent (the user put them there).
//
// The query may be empty, in which case the directory starts with no
// transient links and can be given a query later with SetQuery.
// Otherwise the directory is populated immediately: HAC evaluates the
// query over the scope provided by the parent and creates a transient
// symbolic link for every match.
func (fs *FS) SemDir(path, queryStr string) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return pathErr("smkdir", path, err)
	}
	ast, err := fs.parseQueryTimed(queryStr)
	if err != nil {
		return err
	}
	created := false
	if _, lerr := fs.under.Lstat(clean); lerr != nil {
		if !isNotExist(lerr) {
			return lerr
		}
		if err := fs.Mkdir(clean); err != nil {
			return err
		}
		created = true
	} else {
		info, err := fs.under.Stat(clean)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return pathErr("smkdir", path, vfs.ErrNotDir)
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ds := fs.registerDirLocked(clean)
	if err := fs.makeSemanticLocked(ds, clean, ast, !created); err != nil {
		if created {
			// Roll back so smkdir is atomic: demote the directory before
			// releasing the lock (no other goroutine may observe a
			// half-built semantic directory), then remove it.
			ds.semantic = false
			fs.mu.Unlock()
			_ = fs.Remove(clean)
			fs.mu.Lock()
		}
		return err
	}
	return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, true), fs.evalCfg(nil))
}

// makeSemanticLocked promotes ds to semantic (adopting the directory's
// pre-existing symlinks as permanent links when adoptLinks is set) and
// installs the query. Caller holds fs.mu for writing.
func (fs *FS) makeSemanticLocked(ds *dirState, clean string, ast query.Node, adoptLinks bool) error {
	if !ds.semantic {
		ds.semantic = true
		fs.gen++
		if adoptLinks {
			entries, err := fs.under.ReadDir(clean)
			if err != nil {
				return err
			}
			for _, e := range entries {
				if e.Type != vfs.TypeSymlink {
					continue
				}
				lp := vfs.Join(clean, e.Name)
				if target, err := fs.under.Readlink(lp); err == nil {
					ds.setClass(target, Permanent)
					ds.linkName[target] = e.Name
				}
			}
		}
	}
	return fs.installQueryLocked(ds, clean, ast)
}

// MakeSyntactic discards a directory's content-based behavior (the
// paper: CBA features "can be discarded and added at any time"). The
// directory keeps every current link — they become plain symlinks the
// consistency machinery no longer touches — and its query, link
// classifications and prohibitions are dropped. Directories whose
// queries reference it keep working: it now provides scope like any
// syntactic directory. It fails with ErrNotSemantic if the directory is
// not semantic.
func (fs *FS) MakeSyntactic(path string) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return &vfs.PathError{Op: "smkdir", Path: path, Err: err}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return &vfs.PathError{Op: "smkdir", Path: path, Err: ErrNotSemantic}
	}
	fs.gen++
	ds.semantic = false
	ds.ast = nil
	ds.queryText = ""
	ds.class = make(map[string]LinkClass)
	ds.prohibited = make(map[string]bool)
	ds.linkName = make(map[string]string)
	// Keep only the implicit parent dependency so moves stay tracked.
	if err := fs.rebindDepsLocked(ds); err != nil {
		return err
	}
	// The scope it provides changed shape; dependents must adapt.
	fs.bumpScopeEpochLocked(ds.uid)
	return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, false), fs.evalCfg(nil))
}

// SetQuery replaces the query of a semantic directory (the paper's
// srm/squery write path; §2.3 case 4) and restores scope consistency
// for it and everything that depends on it.
func (fs *FS) SetQuery(path, queryStr string) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return &vfs.PathError{Op: "squery", Path: path, Err: err}
	}
	ast, err := fs.parseQueryTimed(queryStr)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return &vfs.PathError{Op: "squery", Path: path, Err: ErrNotSemantic}
	}
	fs.gen++
	if err := fs.installQueryLocked(ds, clean, ast); err != nil {
		return err
	}
	return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, true), fs.evalCfg(nil))
}

// Query returns the canonical query text of a semantic directory (the
// paper's sreadin). Directory references are rendered as dir:#uid; use
// QueryDisplay for a human-readable form.
func (fs *FS) Query(path string) (string, error) {
	clean, err := vfs.Clean(path)
	if err != nil {
		return "", &vfs.PathError{Op: "squery", Path: path, Err: err}
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return "", &vfs.PathError{Op: "squery", Path: path, Err: ErrNotSemantic}
	}
	return ds.queryText, nil
}

// QueryDisplay returns the query with directory references rendered as
// current path names.
func (fs *FS) QueryDisplay(path string) (string, error) {
	clean, err := vfs.Clean(path)
	if err != nil {
		return "", &vfs.PathError{Op: "squery", Path: path, Err: err}
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return "", &vfs.PathError{Op: "squery", Path: path, Err: ErrNotSemantic}
	}
	if ds.ast == nil {
		return "", nil
	}
	// Render on a rebound copy so the stored AST keeps UIDs.
	copyAST, err := query.Parse(ds.queryText)
	if err != nil {
		return ds.queryText, nil
	}
	for _, ref := range query.Refs(copyAST) {
		if p, ok := fs.pathOfLocked(ref.UID); ok {
			ref.Path, ref.UID = p, 0
		}
	}
	return copyAST.String(), nil
}

// ExplainDir returns the executed plan of a semantic directory's stored
// query under the scope its parent provides — what the last consistency
// pass ran to decide the directory's transient links, re-run against
// the current index. The plan is nil when the directory has no query.
func (fs *FS) ExplainDir(path string) (*plan.Plan, error) {
	clean, err := vfs.Clean(path)
	if err != nil {
		return nil, &vfs.PathError{Op: "explain", Path: path, Err: err}
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return nil, &vfs.PathError{Op: "explain", Path: path, Err: ErrNotSemantic}
	}
	if ds.ast == nil {
		return nil, nil
	}
	p, _, err := fs.dirPlanLocked(ds, clean)
	if err != nil {
		return nil, err
	}
	_, err = fs.execPlan(p)
	return p, err
}

// parseQuery parses a possibly empty query string.
func parseQuery(queryStr string) (query.Node, error) {
	if queryStr == "" {
		return nil, nil
	}
	ast, err := query.Parse(queryStr)
	if err == query.ErrEmpty {
		return nil, nil
	}
	return ast, err
}

// parseQueryTimed is parseQuery recording the parse latency into the
// volume's registry.
func (fs *FS) parseQueryTimed(queryStr string) (query.Node, error) {
	start := time.Now()
	ast, err := parseQuery(queryStr)
	fs.met.queryParseSeconds.ObserveSince(start)
	return ast, err
}

// installQueryLocked binds a parsed query to ds: path references are
// resolved to UIDs via the global map, the canonical text is stored,
// and the dependency graph is updated (rejecting cycles). Caller holds
// fs.mu.
func (fs *FS) installQueryLocked(ds *dirState, dirPath string, ast query.Node) error {
	if ast != nil {
		for _, ref := range query.Refs(ast) {
			if ref.UID != 0 {
				if _, ok := fs.pathOfLocked(ref.UID); !ok {
					return fmt.Errorf("%w: dir:#%d", ErrDanglingRef, ref.UID)
				}
				continue
			}
			rp, err := vfs.Clean(ref.Path)
			if err != nil {
				return fmt.Errorf("%w: dir:%s", ErrDanglingRef, ref.Path)
			}
			info, err := fs.under.Stat(rp)
			if err != nil || !info.IsDir() {
				return fmt.Errorf("%w: dir:%s", ErrDanglingRef, ref.Path)
			}
			refDS := fs.registerDirLocked(rp)
			ref.UID = refDS.uid
			ref.Path = ""
		}
	}
	prevAST, prevText := ds.ast, ds.queryText
	ds.ast = ast
	if ast != nil {
		ds.queryText = ast.String()
	} else {
		ds.queryText = ""
	}
	if err := fs.rebindDepsLocked(ds); err != nil {
		ds.ast, ds.queryText = prevAST, prevText
		return err
	}
	return nil
}

// rebindDepsLocked recomputes ds's dependency edges: its parent (the
// implicit hierarchical dependency of §2.3) plus every directory its
// query references (§2.5). Caller holds fs.mu.
func (fs *FS) rebindDepsLocked(ds *dirState) error {
	dirPath, ok := fs.pathOfLocked(ds.uid)
	if !ok {
		return fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
	}
	deps := make([]uint64, 0, 4)
	if dirPath != "/" {
		parent := fs.registerDirLocked(vfs.Dir(dirPath))
		deps = append(deps, parent.uid)
	}
	if ds.ast != nil {
		for _, ref := range query.Refs(ds.ast) {
			deps = append(deps, ref.UID)
		}
	}
	return fs.graph.SetDeps(ds.uid, deps)
}

// SemanticDirs returns the paths of all semantic directories in the
// volume, sorted.
func (fs *FS) SemanticDirs() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for uid, ds := range fs.dirs {
		if !ds.semantic {
			continue
		}
		if p, ok := fs.pathOfLocked(uid); ok {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Links returns the classified links of a semantic directory, sorted by
// target: transient and permanent links with their link names, and
// prohibited targets with empty names.
func (fs *FS) Links(path string) ([]Link, error) {
	clean, err := vfs.Clean(path)
	if err != nil {
		return nil, &vfs.PathError{Op: "slinks", Path: path, Err: err}
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return nil, &vfs.PathError{Op: "slinks", Path: path, Err: ErrNotSemantic}
	}
	out := make([]Link, 0, len(ds.class)+len(ds.prohibited))
	for target, class := range ds.class {
		out = append(out, Link{Name: ds.linkName[target], Target: target, Class: class})
	}
	for target := range ds.prohibited {
		out = append(out, Link{Target: target, Class: Prohibited})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out, nil
}

// LinkTargets returns the targets of the directory's current links
// (transient + permanent), sorted — the scope it provides.
func (fs *FS) LinkTargets(path string) ([]string, error) {
	links, err := fs.Links(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(links))
	for _, l := range links {
		if l.Class != Prohibited {
			out = append(out, l.Target)
		}
	}
	return out, nil
}

// MarkPermanent promotes an existing link to permanent, or creates a
// new permanent link to target. This is one of the paper's "special API
// routines to directly modify the set of permanent and prohibited
// symbolic links" (§2.3, footnote).
func (fs *FS) MarkPermanent(dirPath, target string) error {
	clean, err := vfs.Clean(dirPath)
	if err != nil {
		return &vfs.PathError{Op: "spermanent", Path: dirPath, Err: err}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return &vfs.PathError{Op: "spermanent", Path: dirPath, Err: ErrNotSemantic}
	}
	fs.gen++
	delete(ds.prohibited, target)
	if _, had := ds.class[target]; !had {
		name, err := fs.materializeLinkLocked(ds, clean, target)
		if err != nil {
			return err
		}
		ds.linkName[target] = name
	}
	ds.setClass(target, Permanent)
	fs.bumpScopeEpochLocked(ds.uid)
	return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, false), fs.evalCfg(nil))
}

// MarkProhibited records target as prohibited in the directory,
// removing its link if present. Prohibited targets are never re-added
// by the consistency algorithm.
func (fs *FS) MarkProhibited(dirPath, target string) error {
	clean, err := vfs.Clean(dirPath)
	if err != nil {
		return &vfs.PathError{Op: "sprohibit", Path: dirPath, Err: err}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return &vfs.PathError{Op: "sprohibit", Path: dirPath, Err: ErrNotSemantic}
	}
	fs.gen++
	if name, had := ds.linkName[target]; had {
		if err := fs.under.Remove(vfs.Join(clean, name)); err != nil && !isNotExist(err) {
			return err
		}
		delete(ds.class, target)
		delete(ds.linkName, target)
	}
	ds.prohibited[target] = true
	fs.bumpScopeEpochLocked(ds.uid)
	return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, false), fs.evalCfg(nil))
}

// Unprohibit removes a prohibition; the target becomes eligible to
// return as a transient link at the next consistency pass, which is run
// immediately.
func (fs *FS) Unprohibit(dirPath, target string) error {
	clean, err := vfs.Clean(dirPath)
	if err != nil {
		return &vfs.PathError{Op: "sunprohibit", Path: dirPath, Err: err}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ds, ok := fs.stateAtLocked(clean)
	if !ok || !ds.semantic {
		return &vfs.PathError{Op: "sunprohibit", Path: dirPath, Err: ErrNotSemantic}
	}
	fs.gen++
	delete(ds.prohibited, target)
	fs.bumpScopeEpochLocked(ds.uid)
	return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, true), fs.evalCfg(nil))
}

// materializeLinkLocked creates the symlink for target inside dir,
// choosing a collision-free name, and returns the name. Caller holds
// fs.mu.
func (fs *FS) materializeLinkLocked(ds *dirState, dirPath, target string) (string, error) {
	base := linkBaseName(target)
	name := base
	for n := 2; ; n++ {
		if _, err := fs.under.Lstat(vfs.Join(dirPath, name)); err != nil {
			break // name is free
		}
		name = fmt.Sprintf("%s~%d", base, n)
	}
	if err := fs.under.Symlink(target, vfs.Join(dirPath, name)); err != nil {
		return "", err
	}
	return name, nil
}

// linkBaseName derives a symlink name from a target path or remote
// target.
func linkBaseName(target string) string {
	if ns, rp, ok := splitRemoteTarget(target); ok {
		return ns + "." + vfs.Base(rp)
	}
	return vfs.Base(target)
}
