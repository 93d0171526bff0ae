package hac

import (
	"errors"
	"fmt"

	"hacfs/internal/bitset"
	"hacfs/internal/index"
	"hacfs/internal/query"
	"hacfs/internal/vfs"
)

// Delta scope consistency (DESIGN.md §7): the consistency pass run by
// an auto-synced mutation of one document.
//
// A query's answer for a document depends on that document alone — every
// operator of the query language is a pointwise set operation — and the
// scope a directory provides contains a document or not independently of
// every other document. So when one document d changes, the new
// transient set of a directory differs from the old one in at most d's
// link, provided the sets were consistent before. The pass therefore
// walks the semantic directories once in dependency order and decides,
// for each, only whether d belongs: the directory's query evaluated over
// the one-document universe {d}, scopes answered from the provider's
// already-updated link set, minus prohibited and permanent — and then
// adds, drops or re-checks that one link.
//
// Where membership cannot be read off the directory's own state the
// directory takes the whole-directory evaluation of sync.go instead, and
// so does every directory that reads a directory which did.

// errUndecided reports that a provider's scope cannot be tested for one
// document without resolving symlink chains.
var errUndecided = errors.New("hac: scope membership needs a full evaluation")

// deltaSyncLocked restores scope consistency after the document at path
// was written, replaced, moved there or removed, assuming the volume was
// consistent before. full forces the whole-directory evaluation
// everywhere (several documents changed at once). Remote namespaces are
// not re-queried: a local document cannot change their answers. Caller
// holds fs.mu for writing.
func (fs *FS) deltaSyncLocked(path string, full bool) error {
	fs.met.autoSyncs.Add(1)
	id, indexed := fs.ix.IDOf(path)
	doc := &docEnv{fs: fs, path: path, id: id}
	var fell map[uint64]bool // directories that took the full evaluation
	for _, uid := range fs.semanticOrderLocked() {
		ds := fs.dirs[uid]
		fallback := full
		if fell != nil && !fallback {
			for _, dep := range fs.graph.Deps(uid) {
				fallback = fallback || fell[dep]
			}
		}
		if !fallback {
			err := fs.deltaOneLocked(ds, doc, indexed)
			if err == nil {
				continue
			}
			if !errors.Is(err, errUndecided) {
				return err
			}
		}
		fs.met.autoSyncFallbacks.Add(1)
		if err := fs.resyncLocked([]uint64{uid}, fs.evalCfg(nil)); err != nil {
			return err
		}
		if fell == nil {
			fell = make(map[uint64]bool)
		}
		fell[uid] = true
	}
	return nil
}

// semanticOrderLocked returns every semantic directory, dependencies
// before dependents — the whole-volume order of the passes that run
// under the write lock. Caller holds fs.mu.
func (fs *FS) semanticOrderLocked() []uint64 {
	var sem []uint64
	for uid, ds := range fs.dirs {
		if ds.semantic {
			sem = append(sem, uid)
		}
	}
	if len(sem) == 0 {
		return nil
	}
	return fs.graph.TopoOf(sem)
}

// deltaOneLocked brings ds's link to doc in line with ds's query. It
// returns errUndecided, having changed nothing, when membership needs
// the full evaluation. Caller holds fs.mu for writing.
func (fs *FS) deltaOneLocked(ds *dirState, doc *docEnv, indexed bool) error {
	dirPath, ok := fs.pathOfLocked(ds.uid)
	if !ok {
		return fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
	}
	fs.met.autoSyncChecks.Add(1)
	member := false
	if ds.ast != nil && indexed {
		res, err := query.Eval(ds.ast, doc)
		if err != nil {
			if errors.Is(err, errUndecided) {
				return err
			}
			return pathErr("ssync", dirPath, fmt.Errorf("evaluating query: %w", err))
		}
		member = res.Any()
		// Strict hierarchical scoping, as in computeTargetsLocked.
		if member && len(query.Refs(ds.ast)) == 0 {
			if member, err = fs.inProvidedScopeLocked(vfs.Dir(dirPath), doc.path); err != nil {
				return err
			}
		}
		if member && fs.verify {
			verifyMatches(fs.under, []string{doc.path}, query.Terms(ds.ast))
		}
	}
	class, linked := ds.class[doc.path]
	switch {
	case linked && class == Transient && !member:
		if err := fs.dropLinkLocked(ds, dirPath, doc.path); err != nil {
			return err
		}
		fs.bumpScopeEpochLocked(ds.uid)
		fs.met.linksDropped.Add(1)
	case linked:
		// The link stays (a permanent link is never re-derived); make
		// sure the symlink behind it is still there and still right.
		broken, err := fs.linkBrokenLocked(ds, dirPath, doc.path)
		if err != nil || !broken {
			return err
		}
		if err := fs.relinkLocked(ds, dirPath, doc.path); err != nil {
			return err
		}
		fs.met.linksRepaired.Add(1)
	case member && !ds.prohibited[doc.path]:
		if err := fs.addTransientLocked(ds, dirPath, doc.path); err != nil {
			return err
		}
		fs.bumpScopeEpochLocked(ds.uid)
		fs.met.linksAdded.Add(1)
	}
	return nil
}

// inProvidedScopeLocked reports whether the indexed document at path is
// in the scope the directory at provider provides —
// providedScopeLocalLocked restricted to one document. A syntactic
// directory provides its subtree. A semantic directory provides its
// link targets and the regular files inside it; a target that is not
// itself an indexed document may reach path through a symlink chain,
// which only the full evaluation follows, so that case is
// errUndecided. Caller holds fs.mu.
func (fs *FS) inProvidedScopeLocked(provider, path string) (bool, error) {
	ds, ok := fs.stateAtLocked(provider)
	if !ok || !ds.semantic {
		return vfs.HasPrefix(path, provider), nil
	}
	if _, linked := ds.class[path]; linked {
		return true, nil
	}
	if vfs.Dir(path) == provider {
		if info, err := fs.under.Lstat(path); err == nil && info.Type == vfs.TypeFile {
			return true, nil
		}
	}
	// Transient targets are indexed documents, which resolve to
	// themselves; only a directory that was ever handed a permanent link
	// can hold anything else.
	if ds.everPermanent {
		for t, c := range ds.class {
			if c != Permanent || IsRemoteTarget(t) {
				continue
			}
			if _, ok := fs.ix.IDOf(t); !ok {
				return false, errUndecided
			}
		}
	}
	return false, nil
}

// docEnv evaluates a query over the one-document universe {id}: every
// leaf answers with that singleton or the empty set, so query.Eval —
// the same evaluator the full pass uses — yields {id} exactly when the
// document matches.
type docEnv struct {
	fs   *FS
	path string
	id   index.DocID
}

func (e *docEnv) only(in bool) (*bitset.Segmented, error) {
	if in {
		return bitset.SegmentedOf(e.id), nil
	}
	return bitset.NewSegmented(), nil
}

func (e *docEnv) Term(w string) (*bitset.Segmented, error) {
	return e.only(e.fs.ix.DocHasTerm(e.id, w))
}

func (e *docEnv) Prefix(p string) (*bitset.Segmented, error) {
	return e.only(e.fs.ix.DocHasPrefix(e.id, p))
}

func (e *docEnv) Fuzzy(w string) (*bitset.Segmented, error) {
	return e.only(e.fs.ix.DocHasFuzzy(e.id, w))
}

func (e *docEnv) Universe() (*bitset.Segmented, error) { return e.only(true) }

func (e *docEnv) DirRef(ref *query.DirRef) (*bitset.Segmented, error) {
	p, ok := e.fs.pathOfLocked(ref.UID)
	if !ok {
		return nil, &vfs.PathError{Op: "eval", Path: fmt.Sprintf("dir:#%d", ref.UID), Err: ErrDanglingRef}
	}
	in, err := e.fs.inProvidedScopeLocked(p, e.path)
	if err != nil {
		return nil, err
	}
	return e.only(in)
}
