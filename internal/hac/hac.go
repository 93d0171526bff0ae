// Package hac implements the HAC (Hierarchy And Content) file system of
// Gopal & Manber, OSDI 1999 — the paper's primary contribution.
//
// HAC is a user-level layer over a hierarchical file system (here any
// vfs.FileSystem) that adds content-based access while preserving every
// hierarchical operation:
//
//   - Semantic directories (SemDir) carry a query; HAC keeps the query
//     result as a set and serves it as symbolic links inside the
//     directory.
//   - Every link in a semantic directory is classified transient
//     (query-produced), permanent (user-added) or prohibited
//     (user-deleted; never silently re-added) — §2.3.
//   - The scope-consistency algorithm (Sync) keeps each directory's
//     transient links equal to its query evaluated over the scope
//     provided by its parent, minus prohibited and permanent links,
//     re-evaluating dependents in topological order — §2.3, §2.5.
//   - Data consistency is restored lazily by Reindex — §2.4.
//   - Semantic mount points attach remote query systems so queries
//     whose scope includes the mount import remote results — §3.
//
// FS implements vfs.FileSystem, so applications (and the Andrew
// benchmark) can use a HAC volume exactly like the raw substrate; the
// extra bookkeeping done on each call is precisely the overhead the
// paper's Table 1 measures.
package hac

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/depgraph"
	"hacfs/internal/index"
	"hacfs/internal/namemap"
	"hacfs/internal/obs"
	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Errors specific to the HAC layer.
var (
	ErrNotSemantic  = errors.New("hac: not a semantic directory")
	ErrDependedOn   = errors.New("hac: directory is referenced by other queries")
	ErrDanglingRef  = errors.New("hac: query references a missing directory")
	ErrRemoteTarget = errors.New("hac: target is in a remote namespace")
	ErrNoNamespace  = errors.New("hac: no such mounted namespace")
)

// LinkClass is the §2.3 classification of a symbolic link in a
// semantic directory.
type LinkClass int

// The three link classes.
const (
	Transient LinkClass = iota
	Permanent
	Prohibited
)

func (c LinkClass) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Prohibited:
		return "prohibited"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// Link describes one classified link of a semantic directory. For
// prohibited targets Name is empty (the link no longer exists).
type Link struct {
	Name   string // symlink base name within the directory
	Target string // link target (a path, or a remote target)
	Class  LinkClass
}

// dirState is HAC's per-directory bookkeeping — the "data structures
// that store its query, its query-result, and its set of permanent and
// prohibited symbolic links" the paper creates at mkdir time.
//
// The query result is stored as the paper stores it, a set: trans, the
// transient targets the last consistency pass committed, sorted. Its
// links, and the permanent links, exist only as a view HAC serves
// (view.go): the substrate holds none of a semantic directory's links.
type dirState struct {
	uid       uint64
	semantic  bool
	queryText string     // canonical bound form ("" when no query)
	ast       query.Node // nil when no query

	trans     []string          // transient targets, sorted
	transName map[string]string // transient target → link name, where not linkBaseName(target)
	changed   time.Time         // when a link last changed: the ModTime of the links

	perm       map[string]string // permanent target → link name
	prohibited map[string]bool

	viewMu sync.Mutex // serializes building view under fs.mu's read lock
	view   *linkView  // name index of trans and perm; nil while trans is unnamed (view.go)
}

func newDirState(uid uint64) *dirState {
	return &dirState{
		uid:        uid,
		perm:       make(map[string]string),
		prohibited: make(map[string]bool),
	}
}

// Options configures a HAC file system.
type Options struct {
	// VerifyMatches makes the CBA engine confirm every query match by
	// scanning the file's content, the way Glimpse's second level greps
	// its candidate files. Slower, but the engine cost then matches a
	// standalone Glimpse run (used by the Table 4 experiment).
	VerifyMatches bool
	// Transducers registers attribute extractors at creation, keyed by
	// file extension ("" = every file). Transducers are code and are
	// not part of a saved volume; pass the same set to LoadVolume that
	// the saving volume used, or attribute-term links will be dropped
	// by the load-time reindex.
	Transducers map[string][]index.Transducer
	// Observer receives the volume's metrics and spans. nil selects the
	// process-wide obs.Default(); pass obs.Discard() to disable
	// recording entirely (the hacbench "obs" experiment measures the
	// difference).
	Observer *obs.Observer
	// BlobStore, when set, is the content-addressed store LoadVolume
	// materializes version-4 images into (DESIGN.md §15). Sharing one
	// store across volumes — hacvold passes one per process — stores
	// identical content once no matter how many tenants hold it. nil
	// gives each loaded volume a private store.
	BlobStore *cas.BlobStore
}

// DefaultRemoteTimeout bounds each remote-namespace RPC issued during
// evaluation, so a hung server cannot wedge Sync.
const DefaultRemoteTimeout = 10 * time.Second

// FS is a HAC file system layered over a substrate. It implements
// vfs.FileSystem; semantic functionality is exposed through additional
// methods.
type FS struct {
	under vfs.FileSystem
	ix    *index.Index
	names *namemap.Map
	graph *depgraph.Graph

	// mu is a read/write lock: mutations and consistency passes hold it
	// for writing; Search, Links, Stats and CheckConsistency hold it for
	// reading.
	mu     sync.RWMutex
	dirs   map[uint64]*dirState
	mounts map[string][]Namespace // mount point path → mounted namespaces

	// scopeEpoch counts, per directory UID, how many times the scope the
	// directory provides (its link set) has changed. Search results are
	// cached keyed on these epochs plus the index version; a bump — which
	// propagates through the dependency graph to every transitive
	// dependent — invalidates cached results that read the directory as a
	// scope or dir: reference. Guarded by mu.
	scopeEpoch map[uint64]uint64
	qcache     *plan.Cache // ad-hoc Search result cache

	openHandles atomic.Int64 // handles opened and not yet closed: a leak check
	verify      bool
	autoSync    autoSyncSet

	obsv *obs.Observer // never nil; Discard() when observability is off
	met  *fsMetrics    // pre-resolved handles into obsv's registry

	// saveMu serializes saves, which share save (persist.go). Lock
	// order: saveMu before mu.
	saveMu sync.Mutex
	save   volumeScratch
}

var _ vfs.FileSystem = (*FS)(nil)

// New wraps a substrate file system in a HAC layer with a fresh index.
func New(under vfs.FileSystem, opts Options) *FS {
	return newFS(under, opts, nil)
}

// newFS builds the HAC layer. preIx, when non-nil, is a preloaded index
// (LoadVolume's index section) that arrives with its transducers
// already attached via load options; nil means a fresh empty
// index, onto which Options.Transducers are registered here.
func newFS(under vfs.FileSystem, opts Options, preIx *index.Index) *FS {
	if opts.Observer == nil {
		opts.Observer = obs.Default()
	}
	ix := preIx
	if ix == nil {
		ix = index.New()
	}
	fs := &FS{
		under:      under,
		ix:         ix,
		names:      namemap.New(),
		graph:      depgraph.New(),
		dirs:       make(map[uint64]*dirState),
		mounts:     make(map[string][]Namespace),
		scopeEpoch: make(map[uint64]uint64),
		qcache:     plan.NewCache(plan.DefaultCacheSize),
		verify:     opts.VerifyMatches,
		obsv:       opts.Observer,
		met:        newFSMetrics(opts.Observer),
	}
	fs.ix.SetObserver(opts.Observer)
	fs.graph.SetObserver(opts.Observer)
	fs.registerVolumeGauges(opts.Observer)
	if preIx == nil {
		for ext, ts := range opts.Transducers {
			for _, t := range ts {
				// A fresh index is empty; registration cannot fail.
				_ = fs.ix.RegisterTransducer(ext, t)
			}
		}
	}
	fs.mu.Lock()
	fs.registerDirLocked("/")
	fs.mu.Unlock()
	return fs
}

// NewWith wraps a substrate file system in a HAC layer configured by
// functional options — the preferred constructor. NewWith(u) is
// equivalent to New(u, Options{}); construction-time options are
// WithVerify, WithObserver and WithTransducer.
func NewWith(under vfs.FileSystem, opts ...Option) *FS {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return New(under, c.vol)
}

// Under returns the substrate file system.
func (fs *FS) Under() vfs.FileSystem { return fs.under }

// Index returns the CBA engine indexing this volume.
func (fs *FS) Index() *index.Index { return fs.ix }

// registerDirLocked ensures path has a UID, a dirState and a graph
// node, returning its state. Caller holds fs.mu for writing.
func (fs *FS) registerDirLocked(path string) *dirState {
	uid := fs.names.Register(path)
	ds, ok := fs.dirs[uid]
	if !ok {
		ds = newDirState(uid)
		fs.dirs[uid] = ds
		fs.graph.Add(uid)
	}
	return ds
}

// stateAtLocked returns the dirState for path if one is registered.
func (fs *FS) stateAtLocked(path string) (*dirState, bool) {
	uid, ok := fs.names.UIDOf(path)
	if !ok {
		return nil, false
	}
	ds, ok := fs.dirs[uid]
	return ds, ok
}

// pathOfLocked resolves a UID to its current path.
func (fs *FS) pathOfLocked(uid uint64) (string, bool) {
	return fs.names.PathOf(uid)
}

// bumpScopeEpochLocked records that uid's link set — the scope it
// provides — changed, advancing its epoch and, through the dependency
// graph, the epoch of every transitive dependent (their queries read
// uid's scope, so their cached results are stale too). Caller holds
// fs.mu for writing.
func (fs *FS) bumpScopeEpochLocked(uid uint64) {
	for _, dep := range fs.graph.AffectedBy(uid, true) {
		fs.scopeEpoch[dep]++
	}
}

// IsSemantic reports whether path is a semantic directory.
func (fs *FS) IsSemantic(path string) bool {
	clean, err := vfs.Clean(path)
	if err != nil {
		return false
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ds, ok := fs.stateAtLocked(clean)
	return ok && ds.semantic
}

// ---------------------------------------------------------------------
// vfs.FileSystem implementation: every operation passes through to the
// substrate, plus the HAC bookkeeping whose cost Table 1 measures.
// ---------------------------------------------------------------------

// Mkdir creates a (syntactic) directory. As in the paper, HAC also
// creates and initializes the directory's query structures, registers
// it in the global name map, and adds a node to the dependency graph.
// A view link's name is taken, as a symlink's would be.
func (fs *FS) Mkdir(path string) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return fs.under.Mkdir(path)
	}
	fs.mu.RLock()
	clean, err = fs.canonicalLocked(clean)
	if err == nil {
		if _, _, ok := fs.viewLinkLocked(vfs.Split(clean)); ok {
			err = &vfs.PathError{Op: "mkdir", Path: path, Err: vfs.ErrExist}
		}
	}
	fs.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := fs.under.Mkdir(clean); err != nil {
		return err
	}
	fs.mu.Lock()
	fs.registerDirLocked(clean)
	fs.mu.Unlock()
	return nil
}

// MkdirAll creates a directory and any missing parents. Every link on the
// way, symlink or view link, is followed, and the directories are
// registered under the path they are created at.
func (fs *FS) MkdirAll(path string) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return fs.under.MkdirAll(path)
	}
	fs.mu.RLock()
	clean, err = fs.makePathLocked(clean)
	fs.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := fs.under.MkdirAll(clean); err != nil {
		return err
	}
	fs.mu.Lock()
	// Register every component so any of them can act as a parent or a
	// query reference later; each is a prefix of clean.
	fs.registerDirLocked("/")
	for i := 1; i <= len(clean); i++ {
		if i == len(clean) || clean[i] == '/' {
			fs.registerDirLocked(clean[:i])
		}
	}
	fs.mu.Unlock()
	return nil
}

// Create creates or truncates a file.
func (fs *FS) Create(path string) (vfs.File, error) {
	return fs.OpenFile(path, vfs.ORead|vfs.OWrite|vfs.OCreate|vfs.OTrunc)
}

// Open opens a file for reading.
func (fs *FS) Open(path string) (vfs.File, error) {
	return fs.OpenFile(path, vfs.ORead)
}

// OpenFile opens path with the given flags. A view link is followed as a
// symlink would be: the handle reads and writes its target, and a create
// through one whose target is missing fails with vfs.ErrExist, as through
// a dangling symlink.
func (fs *FS) OpenFile(path string, flag int) (vfs.File, error) {
	clean, err := vfs.Clean(path)
	if err != nil {
		return fs.under.OpenFile(path, flag)
	}
	if flag&vfs.OCreate != 0 {
		fs.mu.RLock()
		clean, err = fs.createPathLocked(clean)
		fs.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	f, err := fs.under.OpenFile(clean, flag)
	// A symlink leading to a view link looks dangling to a substrate
	// create, which reports vfs.ErrExist rather than a missing name.
	if isNotExist(err) || flag&(vfs.OCreate|vfs.OExcl) == vfs.OCreate && errors.Is(err, vfs.ErrExist) {
		fs.mu.RLock()
		p, ferr := fs.followLocked(clean, err)
		fs.mu.RUnlock()
		if err = ferr; err == nil {
			clean = p
			f, err = fs.under.OpenFile(clean, flag)
		}
	}
	if err != nil {
		return nil, err
	}
	fs.openHandles.Add(1)
	return &trackedFile{File: f, fs: fs, path: clean, dirty: flag&vfs.OTrunc != 0}, nil
}

// createPathLocked returns the path a create of clean writes: clean with
// its directory part resolved (canonicalLocked), or the target of the
// view link that names, as a create through a symlink writes its target.
// Caller holds fs.mu.
func (fs *FS) createPathLocked(clean string) (string, error) {
	clean, err := fs.canonicalLocked(clean)
	if err != nil {
		return "", err
	}
	if _, _, ok := fs.viewLinkLocked(vfs.Split(clean)); !ok {
		return clean, nil
	}
	end, err := fs.resolveLocked(clean, true)
	if isNotExist(err) {
		// Nothing is created through a dangling link.
		return "", &vfs.PathError{Op: "open", Path: clean, Err: vfs.ErrExist}
	}
	return end.path, err
}

// ReadFile returns the contents of the file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	f, err := fs.OpenFile(path, vfs.ORead)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	n, err := f.ReadAt(buf, 0)
	if err == io.EOF {
		err = nil
	}
	return buf[:n], err
}

// WriteFile creates or replaces the file at path.
func (fs *FS) WriteFile(path string, data []byte) error {
	f, err := fs.OpenFile(path, vfs.OWrite|vfs.OCreate|vfs.OTrunc)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	// Close runs the auto-sync; hand it the bytes so it need not read
	// them back.
	tf := f.(*trackedFile)
	tf.whole, tf.hasWhole = data, true
	return f.Close()
}

// Symlink creates a symbolic link. When the link is created inside a
// semantic directory, HAC classifies it as a permanent link (§2.3:
// "links that were explicitly added by the user"), which is a view entry
// (view.go), and restores scope consistency for the directories that
// depend on it. A name the directory holds, physically or in the view,
// is taken, as a symlink's would be.
func (fs *FS) Symlink(target, link string) error {
	clean, err := vfs.Clean(link)
	if err != nil {
		return &vfs.PathError{Op: "symlink", Path: link, Err: err}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if clean, err = fs.canonicalLocked(clean); err != nil {
		return err
	}
	dir, base := vfs.Split(clean)
	ds, ok := fs.stateAtLocked(dir)
	if !ok || !ds.semantic {
		return fs.under.Symlink(target, clean)
	}
	if target == "" {
		return &vfs.PathError{Op: "symlink", Path: link, Err: vfs.ErrInvalid}
	}
	if _, _, taken := fs.viewLinkLocked(dir, base); taken {
		return &vfs.PathError{Op: "symlink", Path: link, Err: vfs.ErrExist}
	}
	if _, err := fs.under.Lstat(clean); !isNotExist(err) {
		if err == nil {
			err = &vfs.PathError{Op: "symlink", Path: link, Err: vfs.ErrExist}
		}
		return err
	}
	ds.setPermanent(target, base)
	// The user may be re-adding a link they once deleted; an explicit
	// action overrides the prohibition (§2.3).
	delete(ds.prohibited, target)
	fs.bumpScopeEpochLocked(ds.uid)
	return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, false), fs.evalCfg(nil))
}

// Readlink returns the target of the symlink or view link at path.
func (fs *FS) Readlink(path string) (string, error) {
	target, err := fs.under.Readlink(path)
	if !isNotExist(err) {
		return target, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	info, err := fs.lstatViewLocked(path, err)
	switch {
	case err != nil:
		return "", err
	case info.Type != vfs.TypeSymlink:
		return "", &vfs.PathError{Op: "readlink", Path: path, Err: vfs.ErrInvalid}
	}
	return info.Target, nil
}

// Remove deletes the object at path. Deleting a link from a semantic
// directory marks its target prohibited, so that it "will not
// be implicitly added later without a direct action by the user"
// (§2.3). Deleting a semantic directory referenced by other queries is
// refused.
func (fs *FS) Remove(path string) error { return fs.remove(path, false) }

// RemoveAll deletes path and everything beneath it, with the same
// semantic-directory rules as Remove.
func (fs *FS) RemoveAll(path string) error { return fs.remove(path, true) }

func (fs *FS) remove(path string, recursive bool) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	clean, err = fs.canonicalLocked(clean)
	if err == nil {
		err = fs.removeLocked(clean, recursive)
	}
	fs.mu.Unlock()
	switch {
	case recursive && isNotExist(err):
		return nil // as the substrates' RemoveAll of a missing path
	case err != nil:
		return err
	}
	return fs.autoSyncRemoved(clean, recursive)
}

func (fs *FS) removeLocked(clean string, recursive bool) error {
	dir, base := vfs.Split(clean)

	// A link disappearing from a semantic directory becomes a prohibition.
	// Inspect before the substrate removes anything — and abort on an
	// inspection failure: proceeding could delete a directory that is
	// referenced by other queries, or lose a link's removal.
	info, lerr := fs.under.Lstat(clean)
	switch {
	case isNotExist(lerr):
		// A link has nothing on the substrate to remove: its removal is
		// the prohibition alone.
		if ds, t, ok := fs.viewLinkLocked(dir, base); ok {
			ds.dropLink(t)
			ds.prohibited[t] = true
			fs.bumpScopeEpochLocked(ds.uid)
			return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, false), fs.evalCfg(nil))
		}
	case lerr != nil:
		return lerr
	case info.Type == vfs.TypeDir:
		// A semantic directory's links keep it from being empty, as
		// symlinks would.
		if ds, ok := fs.stateAtLocked(clean); ok && !recursive && ds.semantic && ds.hasLinks() {
			return &vfs.PathError{Op: "remove", Path: clean, Err: vfs.ErrNotEmpty}
		}
		// Removing a directory subtree must not orphan queries that
		// reference directories inside it.
		if err := fs.checkRemovableLocked(clean); err != nil {
			return err
		}
	}

	var err error
	if recursive {
		err = fs.under.RemoveAll(clean)
	} else {
		err = fs.under.Remove(clean)
	}
	if err != nil {
		return err
	}

	// Drop bookkeeping for removed directories. UIDs are never reused,
	// so no later directory can inherit a dropped scope epoch.
	for _, uid := range fs.names.RemoveSubtree(clean) {
		fs.graph.Remove(uid)
		delete(fs.dirs, uid)
		delete(fs.scopeEpoch, uid)
	}
	return nil
}

// checkRemovableLocked fails if any directory in the subtree at clean
// is referenced by a query outside that subtree. Only a semantic
// directory's query references directories; the offender reported is the
// least referenced path, then the least referencing one.
func (fs *FS) checkRemovableLocked(clean string) error {
	var ref, by string
	for _, ds := range fs.dirs {
		if !ds.semantic {
			continue
		}
		dp, ok := fs.pathOfLocked(ds.uid)
		if !ok || vfs.HasPrefix(dp, clean) {
			continue
		}
		for _, dep := range fs.graph.Deps(ds.uid) {
			p, ok := fs.pathOfLocked(dep)
			if ok && vfs.HasPrefix(p, clean) && (by == "" || p < ref || p == ref && dp < by) {
				ref, by = p, dp
			}
		}
	}
	if by != "" {
		return fmt.Errorf("%w: %s referenced by query of %s", ErrDependedOn, ref, by)
	}
	return nil
}

// Rename moves oldPath to newPath. HAC updates the global UID→path map
// (§2.5) — so queries referencing renamed directories stay valid — and
// re-establishes scope consistency for any semantic directory whose
// parent changed. Moving a link out of or into a semantic directory
// reclassifies it: a prohibition where it left, a permanent link where
// it arrived (moveLinkLocked).
func (fs *FS) Rename(oldPath, newPath string) error {
	oldClean, err := vfs.Clean(oldPath)
	if err != nil {
		return err
	}
	newClean, err := vfs.Clean(newPath)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if oldClean, err = fs.canonicalLocked(oldClean); err != nil {
		return err
	}
	if newClean, err = fs.canonicalLocked(newClean); err != nil {
		return err
	}
	oldDir, oldBase := vfs.Split(oldClean)
	newDir, newBase := vfs.Split(newClean)

	// Inspect the source before the substrate moves it, and abort on an
	// inspection failure as removeLocked does: a directory taken for a
	// file would move without its names and index entries following, and
	// a link taken for a file without its reclassification. A missing
	// source is left to the substrate's Rename to report — unless it is a
	// view link.
	info, statErr := fs.under.Lstat(oldClean)
	switch {
	case isNotExist(statErr):
		if ds, t, ok := fs.viewLinkLocked(oldDir, oldBase); ok {
			return fs.moveLinkLocked(t, oldClean, newClean, ds)
		}
	case statErr != nil:
		return statErr
	case info.Type == vfs.TypeSymlink:
		if ds, ok := fs.stateAtLocked(newDir); ok && ds.semantic {
			return fs.moveLinkLocked(info.Target, oldClean, newClean, nil)
		}
	case info.Type == vfs.TypeDir && oldClean != newClean:
		// A link or a semantic directory's links refuse a directory as
		// symlinks would.
		if _, _, ok := fs.viewLinkLocked(newDir, newBase); ok {
			return &vfs.PathError{Op: "rename", Path: newPath, Err: vfs.ErrNotDir}
		}
		if ds, ok := fs.stateAtLocked(newClean); ok && ds.semantic && ds.hasLinks() {
			return &vfs.PathError{Op: "rename", Path: newPath, Err: vfs.ErrNotEmpty}
		}
	}

	if err := fs.under.Rename(oldClean, newClean); err != nil {
		return err
	}
	if oldClean == newClean {
		// Renaming onto itself moved nothing; nothing HAC keeps changes.
		return nil
	}
	if info.Type == vfs.TypeSymlink {
		// A symlink outside the semantic directories is no link HAC keeps.
		return nil
	}

	autoSynced := fs.autoSync.covers(oldClean) || fs.autoSync.covers(newClean)
	// A link the move wrote over is gone. The file branch below re-syncs
	// its directory; a directory cannot replace a link.
	overwritten := fs.dropOverwrittenLinkLocked(newDir, newBase, "")

	if statErr == nil && info.Type == vfs.TypeDir {
		// One global-map update instead of rewriting queries (§2.5).
		fs.names.Rename(oldClean, newClean)
		fs.ix.RenamePrefix(oldClean, newClean)
		// Classified links elsewhere follow the renamed subtree: HAC
		// observed the rename, so the user's permanent links and
		// prohibitions keep tracking the same documents instead of
		// dangling until they notice.
		fs.rewriteTargetsLocked(oldClean, newClean)
		// If a semantic directory changed parents its scope changed;
		// re-establish consistency from it downward.
		var moved *dirState
		if vfs.Dir(oldClean) != vfs.Dir(newClean) {
			if ds, ok := fs.stateAtLocked(newClean); ok && ds.semantic {
				if err := fs.rebindDepsLocked(ds); err != nil {
					return err
				}
				moved = ds
			}
		}
		// Under an auto-sync prefix the documents' new paths take effect
		// on path-scoped queries now: many moved at once, so every
		// directory takes the whole-directory evaluation.
		if autoSynced {
			return fs.deltaSyncLocked(newClean, true)
		}
		if moved != nil {
			return fs.resyncLocked(fs.graph.AffectedBy(moved.uid, true), fs.evalCfg(nil))
		}
		return nil
	}

	// Regular file moved: the index follows immediately; link targets
	// pointing at the file are rewritten for the same reason as above.
	// Content re-checks remain lazy (§2.4) — except under an auto-sync
	// prefix, where the one moved document's links are settled now.
	fs.ix.RenamePath(oldClean, newClean)
	fs.rewriteTargetsLocked(oldClean, newClean)
	if overwritten != nil {
		fs.bumpScopeEpochLocked(overwritten.uid)
		if err := fs.resyncLocked(fs.graph.AffectedBy(overwritten.uid, false), fs.evalCfg(nil)); err != nil {
			return err
		}
	}
	if autoSynced {
		return fs.deltaSyncLocked(newClean, false)
	}
	return nil
}

// moveLinkLocked renames the link oldClean, to t, onto newClean, replacing
// what is there as a rename would. from is the semantic directory whose
// view holds the link, or nil for a physical symlink, which is removed. A
// link the user moved is the user's own (§2.3), even at another name in
// the same directory: where it leaves a view its target is prohibited,
// and where it arrives it is a permanent link in a semantic directory and
// a symlink in any other — the one move that writes a symlink. Caller
// holds fs.mu for writing.
func (fs *FS) moveLinkLocked(t, oldClean, newClean string, from *dirState) error {
	if oldClean == newClean {
		return nil
	}
	newDir, newBase := vfs.Split(newClean)
	to, ok := fs.stateAtLocked(newDir)
	if ok && !to.semantic {
		to = nil
	}
	info, err := fs.under.Lstat(newClean)
	switch {
	case err == nil && info.Type == vfs.TypeDir:
		return &vfs.PathError{Op: "rename", Path: newClean, Err: vfs.ErrIsDir}
	case err == nil:
		if err := fs.under.Remove(newClean); err != nil {
			return err
		}
	case !isNotExist(err):
		return err
	}
	if to == nil {
		if err := fs.under.Symlink(t, newClean); err != nil {
			return err
		}
	}
	if from == nil {
		if err := fs.under.Remove(oldClean); err != nil {
			return err
		}
	}
	var resync []uint64
	if from != nil {
		from.dropLink(t)
		from.prohibited[t] = true
		resync = append(resync, from.uid)
	}
	if to != nil {
		fs.dropOverwrittenLinkLocked(newDir, newBase, t)
		to.setPermanent(t, newBase)
		delete(to.prohibited, t)
		if to != from {
			resync = append(resync, to.uid)
		}
	}
	for _, uid := range resync {
		fs.bumpScopeEpochLocked(uid)
		if err := fs.resyncLocked(fs.graph.AffectedBy(uid, false), fs.evalCfg(nil)); err != nil {
			return err
		}
	}
	return nil
}

// dropOverwrittenLinkLocked records that a rename replaced the entry
// name of the directory at dirPath. A link of a semantic directory there
// — other than one to keep, the moved link's own target — was deleted by
// the user and becomes a prohibition, as in Remove (§2.3); so no two
// classified targets ever share a link name. It returns the directory it
// changed, or nil. Caller holds fs.mu for writing.
func (fs *FS) dropOverwrittenLinkLocked(dirPath, name, keep string) *dirState {
	ds, t, ok := fs.viewLinkLocked(dirPath, name)
	if !ok || t == keep {
		return nil
	}
	ds.dropLink(t)
	ds.prohibited[t] = true
	return ds
}

// rewriteTargetsLocked updates every classified link target at or under
// oldPrefix to the corresponding path under newPrefix; a link keeps its
// name. Prohibitions follow too: the user prohibited the document, not its
// path. A link or prohibition already at a path an entry moves onto named
// the document the rename wrote over; it is displaced — the link dropped,
// the prohibition lifted — so the moved entry is the only one left there.
// Caller holds fs.mu.
func (fs *FS) rewriteTargetsLocked(oldPrefix, newPrefix string) {
	moved := func(t string) (string, bool) {
		if IsRemoteTarget(t) || !vfs.HasPrefix(t, oldPrefix) {
			return "", false
		}
		return newPrefix + t[len(oldPrefix):], true
	}
	type move struct{ old, new string }
	for _, ds := range fs.dirs {
		if !ds.semantic {
			continue
		}
		var transMoves, permMoves, prohMoves []move
		for _, t := range ds.trans {
			if n, ok := moved(t); ok {
				transMoves = append(transMoves, move{t, n})
			}
		}
		for t := range ds.perm {
			if n, ok := moved(t); ok {
				permMoves = append(permMoves, move{t, n})
			}
		}
		for t := range ds.prohibited {
			if n, ok := moved(t); ok {
				prohMoves = append(prohMoves, move{t, n})
			}
		}
		changed := len(transMoves)+len(permMoves) > 0
		for _, ms := range [3][]move{transMoves, permMoves, prohMoves} {
			for _, m := range ms {
				if _, linked := ds.linked(m.new); linked {
					ds.dropLink(m.new)
					changed = true
				}
				delete(ds.prohibited, m.new)
			}
		}
		if len(transMoves) > 0 {
			// A moved link keeps its name: unnamed links are named
			// first, at their old targets. Links that cannot be named
			// (the listing failed) move unnamed.
			var names []string
			if fs.nameLinksLocked(ds) == nil {
				names = make([]string, len(transMoves))
				for i, m := range transMoves {
					names[i] = ds.nameOf(m.old)
					delete(ds.transName, m.old)
				}
			}
			for i, t := range ds.trans {
				if n, ok := moved(t); ok {
					ds.trans[i] = n
				}
			}
			sort.Strings(ds.trans)
			for i, name := range names {
				t := transMoves[i].new
				if name != linkBaseName(t) {
					ds.setTransName(t, name)
				}
				if ds.view != nil {
					ds.view.byName[name] = t
					ds.view.entries = nil
				}
			}
		}
		for _, m := range permMoves {
			name := ds.perm[m.old]
			delete(ds.perm, m.old)
			ds.perm[m.new] = name
			if ds.view != nil {
				ds.view.byName[name] = m.new
				ds.view.entries = nil
			}
		}
		for _, m := range prohMoves {
			delete(ds.prohibited, m.old)
			ds.prohibited[m.new] = true
		}
		if changed {
			ds.changed = time.Now()
			fs.bumpScopeEpochLocked(ds.uid)
		}
	}
}

// Stat returns metadata for path. The substrate answers first — Lstat,
// then Stat if that found a symlink — and the view only where it reports
// a name missing.
func (fs *FS) Stat(path string) (vfs.Info, error) {
	clean, err := vfs.Clean(path)
	if err != nil {
		return vfs.Info{}, &vfs.PathError{Op: "stat", Path: path, Err: err}
	}
	info, err := fs.under.Lstat(clean)
	switch {
	case err == nil && info.Type != vfs.TypeSymlink:
		return info, nil
	case err == nil:
		info, err = fs.under.Stat(clean)
	case isNotExist(err):
		err = &vfs.PathError{Op: "stat", Path: clean, Err: vfs.ErrNotExist}
	}
	if !isNotExist(err) {
		return info, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	p, err := fs.followLocked(clean, err)
	if err != nil {
		return vfs.Info{}, err
	}
	return fs.under.Stat(p)
}

// Lstat returns metadata without following a final symlink; a view
// link answers as a symlink with no size and no inode number, last
// modified when its directory's transient set last changed.
func (fs *FS) Lstat(path string) (vfs.Info, error) {
	info, err := fs.under.Lstat(path)
	if !isNotExist(err) {
		return info, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lstatViewLocked(path, err)
}

// ReadDir lists a directory: its substrate entries and, for a semantic
// directory, its view links, in name order. The substrate is listed under
// fs.mu, so the first listing of a directory whose links are unnamed
// names them against it: one ReadDir.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	clean, cerr := vfs.Clean(path)
	if cerr != nil {
		return fs.under.ReadDir(path)
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	entries, err := fs.under.ReadDir(path)
	if isNotExist(err) {
		if clean, err = fs.followLocked(clean, err); err == nil {
			entries, err = fs.under.ReadDir(clean)
		}
	}
	if err != nil {
		return nil, err
	}
	return fs.withViewLocked(clean, entries)
}
