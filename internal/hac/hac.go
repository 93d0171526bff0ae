// Package hac implements the HAC (Hierarchy And Content) file system of
// Gopal & Manber, OSDI 1999 — the paper's primary contribution.
//
// HAC is a user-level layer over a hierarchical file system (here any
// vfs.FileSystem) that adds content-based access while preserving every
// hierarchical operation:
//
//   - Semantic directories (SemDir) carry a query; HAC materializes
//     the query result as symbolic links inside the directory.
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
	"sync"
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
type dirState struct {
	uid       uint64
	semantic  bool
	queryText string     // canonical bound form ("" when no query)
	ast       query.Node // nil when no query

	// Link bookkeeping, all keyed by target.
	class      map[string]LinkClass // transient and permanent links
	prohibited map[string]bool
	linkName   map[string]string // target → symlink base name

	// everPermanent is set once the directory has been handed a
	// permanent link and never cleared: only then can class hold a target
	// that is not an indexed document (delta.go scans for those).
	everPermanent bool
}

// setClass classifies target, keeping everPermanent true to its name.
// Every write of a Permanent class goes through it.
func (ds *dirState) setClass(target string, c LinkClass) {
	ds.class[target] = c
	ds.everPermanent = ds.everPermanent || c == Permanent
}

func newDirState(uid uint64) *dirState {
	return &dirState{
		uid:        uid,
		class:      make(map[string]LinkClass),
		prohibited: make(map[string]bool),
		linkName:   make(map[string]string),
	}
}

// targets returns all linked targets (transient + permanent), which is
// the scope this directory provides (§2.3), in map form.
func (ds *dirState) targets() map[string]bool {
	out := make(map[string]bool, len(ds.class))
	for t := range ds.class {
		out[t] = true
	}
	return out
}

// Options configures a HAC file system.
type Options struct {
	// AttrCacheSize bounds the attribute cache (default 4096 entries).
	AttrCacheSize int
	// VerifyMatches makes the CBA engine confirm every query match by
	// scanning the file's content, the way Glimpse's second level greps
	// its candidate files. Slower, but the engine cost then matches a
	// standalone Glimpse run (used by the Table 4 experiment).
	VerifyMatches bool
	// Parallelism is the default worker count for Reindex tokenization
	// and within-level query re-evaluation (see engine.go). 0 selects
	// runtime.NumCPU(); 1 keeps every pass serial. Per-pass overrides
	// are available via WithParallelism.
	Parallelism int
	// RemoteTimeout bounds each dial/RPC issued to a mounted remote
	// namespace during evaluation, so a hung server cannot wedge Sync.
	// 0 selects the 10s default; negative disables the bound.
	RemoteTimeout time.Duration
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

// DefaultRemoteTimeout bounds remote-namespace RPCs when
// Options.RemoteTimeout is zero.
const DefaultRemoteTimeout = 10 * time.Second

// FS is a HAC file system layered over a substrate. It implements
// vfs.FileSystem; semantic functionality is exposed through additional
// methods.
type FS struct {
	under vfs.FileSystem
	ix    *index.Index
	names *namemap.Map
	graph *depgraph.Graph

	// mu is a read/write lock: mutations and link commits hold it for
	// writing; Search, Links, Stats, CheckConsistency and the engine's
	// evaluation phase hold it for reading, so readers no longer
	// serialize behind re-evaluation. gen is bumped by every mutation
	// under the write lock; the engine uses it to detect interleaved
	// mutations between its evaluation and commit phases (engine.go).
	mu     sync.RWMutex
	gen    uint64
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

	attrs         *attrCache
	fds           *fdTable
	verify        bool
	par           int // default evaluation parallelism (0 = NumCPU)
	remoteTimeout time.Duration
	autoSync      autoSyncSet

	obsv *obs.Observer // never nil; Discard() when observability is off
	met  *fsMetrics    // pre-resolved handles into obsv's registry
}

var _ vfs.FileSystem = (*FS)(nil)

// New wraps a substrate file system in a HAC layer with a fresh index.
func New(under vfs.FileSystem, opts Options) *FS {
	return newFS(under, opts, nil)
}

// newFS builds the HAC layer. preIx, when non-nil, is a preloaded index
// (LoadVolume's index section) that arrives with its transducers and
// tokenizer already attached via load options; nil means a fresh empty
// index, onto which Options.Transducers are registered here.
func newFS(under vfs.FileSystem, opts Options, preIx *index.Index) *FS {
	if opts.AttrCacheSize <= 0 {
		opts.AttrCacheSize = 4096
	}
	if opts.RemoteTimeout == 0 {
		opts.RemoteTimeout = DefaultRemoteTimeout
	}
	if opts.Observer == nil {
		opts.Observer = obs.Default()
	}
	ix := preIx
	if ix == nil {
		ix = index.New()
	}
	fs := &FS{
		under:         under,
		ix:            ix,
		names:         namemap.New(),
		graph:         depgraph.New(),
		dirs:          make(map[uint64]*dirState),
		mounts:        make(map[string][]Namespace),
		scopeEpoch:    make(map[uint64]uint64),
		qcache:        plan.NewCache(plan.DefaultCacheSize),
		attrs:         newAttrCache(opts.AttrCacheSize),
		fds:           newFDTable(),
		verify:        opts.VerifyMatches,
		par:           opts.Parallelism,
		remoteTimeout: opts.RemoteTimeout,
		obsv:          opts.Observer,
		met:           newFSMetrics(opts.Observer),
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
// WithParallelism, WithVerify, WithAttrCacheSize, WithRemoteTimeout and
// WithTransducer.
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
		fs.gen++
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

// resolvePath is HAC's user-space path resolution. The paper's HAC is a
// user-level library that "intercepts all file system calls" and "uses
// this name space to resolve the users' path names": before an
// operation reaches the substrate, HAC walks the directory components,
// consulting its own global name map and validating each prefix — the
// same mechanism that gives every user-level file system in Table 2 its
// overhead. The substrate remains authoritative for errors, so failures
// here are ignored.
func (fs *FS) resolvePath(p string) {
	clean, err := vfs.Clean(p)
	if err != nil {
		return
	}
	dir, _ := vfs.Split(clean)
	if dir == "/" {
		return
	}
	cur := "/"
	for _, c := range splitComponents(dir) {
		cur = vfs.Join(cur, c)
		fs.names.UIDOf(cur) // HAC name-space lookup
		if _, err := fs.under.Lstat(cur); err != nil {
			return
		}
	}
}

// Mkdir creates a (syntactic) directory. As in the paper, HAC also
// creates and initializes the directory's query structures, registers
// it in the global name map, and adds a node to the dependency graph.
func (fs *FS) Mkdir(path string) error {
	fs.resolvePath(path)
	if err := fs.under.Mkdir(path); err != nil {
		return err
	}
	clean, _ := vfs.Clean(path)
	fs.mu.Lock()
	fs.registerDirLocked(clean)
	fs.mu.Unlock()
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(path string) error {
	if err := fs.under.MkdirAll(path); err != nil {
		return err
	}
	clean, _ := vfs.Clean(path)
	fs.mu.Lock()
	// Register every component so any of them can act as a parent or a
	// query reference later.
	p := "/"
	fs.registerDirLocked(p)
	for _, c := range splitComponents(clean) {
		p = vfs.Join(p, c)
		fs.registerDirLocked(p)
	}
	fs.mu.Unlock()
	return nil
}

func splitComponents(clean string) []string {
	if clean == "/" {
		return nil
	}
	var out []string
	for _, c := range splitSlash(clean) {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

func splitSlash(p string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			out = append(out, p[start:i])
			start = i + 1
		}
	}
	return out
}

// Create creates or truncates a file. HAC additionally initializes the
// file's attribute-cache entry and descriptor-table slot (the Copy
// phase overhead of Table 1).
func (fs *FS) Create(path string) (vfs.File, error) {
	return fs.OpenFile(path, vfs.ORead|vfs.OWrite|vfs.OCreate|vfs.OTrunc)
}

// Open opens a file for reading.
func (fs *FS) Open(path string) (vfs.File, error) {
	return fs.OpenFile(path, vfs.ORead)
}

// OpenFile opens path with the given flags, tracking the handle in the
// descriptor table and keeping the attribute cache coherent.
func (fs *FS) OpenFile(path string, flag int) (vfs.File, error) {
	fs.resolvePath(path)
	f, err := fs.under.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	clean, _ := vfs.Clean(path)
	if flag&(vfs.OWrite|vfs.OTrunc) != 0 {
		fs.attrs.invalidate(clean)
	}
	fs.fds.open()
	if info, err := f.Stat(); err == nil {
		fs.attrs.put(clean, info)
	}
	return &trackedFile{File: f, fs: fs, path: clean, dirty: flag&vfs.OTrunc != 0}, nil
}

// ReadFile returns the contents of the file at path. As in the paper,
// the read goes through HAC's descriptor table and per-file
// bookkeeping (a measured overhead in the Andrew Copy and Read
// phases).
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

// WriteFile creates or replaces the file at path, initializing the
// descriptor-table slot and attribute-cache entry for the new file as
// the paper's HAC does on every create.
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
// "links that were explicitly added by the user") and restores scope
// consistency for the directories that depend on it.
func (fs *FS) Symlink(target, link string) error {
	fs.resolvePath(link)
	clean, cerr := vfs.Clean(link)
	if cerr != nil {
		return &vfs.PathError{Op: "symlink", Path: link, Err: cerr}
	}
	dir, base := vfs.Split(clean)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.gen++
	if ds, ok := fs.stateAtLocked(dir); ok && ds.semantic {
		// If the target already had a (transient) link under another
		// name, the user's new link supersedes it; drop the old one so
		// the directory holds a single link per target. The removal
		// comes first: if creating the new symlink then fails, the old
		// one is still classified and the Sync repair pass (sync.go)
		// rematerializes it. The reverse order could fail with the new
		// symlink on disk but unclassified — a state no repair pass can
		// distinguish from a user link that was never registered.
		if old, had := ds.linkName[target]; had && old != base {
			if err := fs.under.Remove(vfs.Join(dir, old)); err != nil && !isNotExist(err) {
				return err
			}
		}
		if err := fs.under.Symlink(target, clean); err != nil {
			return err
		}
		ds.setClass(target, Permanent)
		ds.linkName[target] = base
		// The user may be re-adding a link they once deleted; an
		// explicit action overrides the prohibition (§2.3).
		delete(ds.prohibited, target)
		fs.bumpScopeEpochLocked(ds.uid)
		return fs.resyncLocked(fs.graph.AffectedBy(ds.uid, false), fs.evalCfg(nil))
	}
	return fs.under.Symlink(target, clean)
}

// Readlink returns the target of the symlink at path.
func (fs *FS) Readlink(path string) (string, error) {
	return fs.under.Readlink(path)
}

// Remove deletes the object at path. Deleting a symbolic link from a
// semantic directory marks its target prohibited, so that it "will not
// be implicitly added later without a direct action by the user"
// (§2.3). Deleting a semantic directory referenced by other queries is
// refused.
func (fs *FS) Remove(path string) error {
	fs.resolvePath(path)
	clean, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	err = fs.removeLocked(clean, false)
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	return fs.autoSyncRemoved(clean, false)
}

// RemoveAll deletes path and everything beneath it, with the same
// semantic-directory rules as Remove.
func (fs *FS) RemoveAll(path string) error {
	fs.resolvePath(path)
	clean, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	err = fs.removeLocked(clean, true)
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	return fs.autoSyncRemoved(clean, true)
}

func (fs *FS) removeLocked(clean string, recursive bool) error {
	fs.gen++
	dir, base := vfs.Split(clean)
	_ = base

	// A symlink disappearing from a semantic directory becomes a
	// prohibition. Inspect before the substrate removes it — and abort
	// on an inspection failure: proceeding would delete the link without
	// recording the prohibition (or skip the referenced-by check below),
	// silently losing §2.3 state on a transient substrate fault.
	var prohibitIn *dirState
	var prohibitTarget string
	info, lerr := fs.under.Lstat(clean)
	if lerr != nil && !isNotExist(lerr) {
		return lerr
	}
	if lerr == nil && info.Type == vfs.TypeSymlink {
		if ds, ok := fs.stateAtLocked(dir); ok && ds.semantic {
			target, rerr := fs.under.Readlink(clean)
			if rerr != nil {
				return rerr
			}
			prohibitIn = ds
			prohibitTarget = target
		}
	}

	// Removing a directory subtree must not orphan queries that
	// reference directories inside it.
	if lerr == nil && info.Type == vfs.TypeDir {
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
	fs.attrs.invalidatePrefix(clean)

	if prohibitIn != nil {
		if _, had := prohibitIn.class[prohibitTarget]; had {
			delete(prohibitIn.class, prohibitTarget)
			delete(prohibitIn.linkName, prohibitTarget)
			prohibitIn.prohibited[prohibitTarget] = true
		} else {
			// An unclassified (pre-existing) link: still record the
			// explicit deletion.
			prohibitIn.prohibited[prohibitTarget] = true
		}
		fs.bumpScopeEpochLocked(prohibitIn.uid)
		return fs.resyncLocked(fs.graph.AffectedBy(prohibitIn.uid, false), fs.evalCfg(nil))
	}

	// Drop bookkeeping for removed directories.
	for _, uid := range fs.names.RemoveSubtree(clean) {
		fs.graph.Remove(uid)
		delete(fs.dirs, uid)
	}
	return nil
}

// checkRemovableLocked fails if any directory in the subtree at clean
// is referenced by a query outside that subtree.
func (fs *FS) checkRemovableLocked(clean string) error {
	for _, p := range fs.names.Paths() {
		if !vfs.HasPrefix(p, clean) {
			continue
		}
		uid, _ := fs.names.UIDOf(p)
		for _, dep := range fs.graph.Dependents(uid) {
			dp, ok := fs.pathOfLocked(dep)
			if !ok {
				continue
			}
			if !vfs.HasPrefix(dp, clean) {
				return fmt.Errorf("%w: %s referenced by query of %s", ErrDependedOn, p, dp)
			}
		}
	}
	return nil
}

// Rename moves oldPath to newPath. HAC updates the global UID→path map
// (§2.5) — so queries referencing renamed directories stay valid — and
// re-establishes scope consistency for any semantic directory whose
// parent changed. Moving a symlink between semantic directories
// reclassifies it: a prohibition where it left, a permanent link where
// it arrived.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.resolvePath(oldPath)
	fs.resolvePath(newPath)
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
	fs.gen++

	info, statErr := fs.under.Lstat(oldClean)

	// Moving a symlink: capture its target and the directories involved.
	var linkTarget string
	isLink := statErr == nil && info.Type == vfs.TypeSymlink
	if isLink {
		if t, err := fs.under.Readlink(oldClean); err == nil {
			linkTarget = t
		}
	}

	if err := fs.under.Rename(oldClean, newClean); err != nil {
		return err
	}
	fs.attrs.invalidatePrefix(oldClean)
	fs.attrs.invalidatePrefix(newClean)

	oldDir, _ := vfs.Split(oldClean)
	newDir, newBase := vfs.Split(newClean)
	autoSynced := fs.autoSync.covers(oldClean) || fs.autoSync.covers(newClean)

	if isLink {
		var resync []uint64
		if ds, ok := fs.stateAtLocked(oldDir); ok && ds.semantic && linkTarget != "" {
			if _, had := ds.class[linkTarget]; had {
				delete(ds.class, linkTarget)
				delete(ds.linkName, linkTarget)
				ds.prohibited[linkTarget] = true
				resync = append(resync, ds.uid)
			}
		}
		if ds, ok := fs.stateAtLocked(newDir); ok && ds.semantic && linkTarget != "" {
			ds.setClass(linkTarget, Permanent)
			ds.linkName[linkTarget] = newBase
			delete(ds.prohibited, linkTarget)
			resync = append(resync, ds.uid)
		}
		for _, uid := range resync {
			fs.bumpScopeEpochLocked(uid)
			if err := fs.resyncLocked(fs.graph.AffectedBy(uid, false), fs.evalCfg(nil)); err != nil {
				return err
			}
		}
		return nil
	}

	if statErr == nil && info.Type == vfs.TypeDir {
		// One global-map update instead of rewriting queries (§2.5).
		fs.names.Rename(oldClean, newClean)
		fs.ix.RenamePrefix(oldClean, newClean)
		// Classified links elsewhere follow the renamed subtree: HAC
		// observed the rename, so the user's permanent links and
		// prohibitions keep tracking the same documents instead of
		// dangling until they notice.
		if err := fs.rewriteTargetsLocked(oldClean, newClean); err != nil {
			return err
		}
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
	if err := fs.rewriteTargetsLocked(oldClean, newClean); err != nil {
		return err
	}
	if autoSynced {
		return fs.deltaSyncLocked(newClean, false)
	}
	return nil
}

// rewriteTargetsLocked updates every classified link target at or under
// oldPrefix to the corresponding path under newPrefix, re-pointing the
// physical symlinks. Prohibitions follow too: the user prohibited the
// document, not its path. Caller holds fs.mu.
func (fs *FS) rewriteTargetsLocked(oldPrefix, newPrefix string) error {
	for _, ds := range fs.dirs {
		if !ds.semantic {
			continue
		}
		dirPath, ok := fs.pathOfLocked(ds.uid)
		if !ok {
			continue
		}
		type move struct{ old, new string }
		var moves []move
		for t := range ds.class {
			if !IsRemoteTarget(t) && vfs.HasPrefix(t, oldPrefix) {
				moves = append(moves, move{t, newPrefix + t[len(oldPrefix):]})
			}
		}
		for _, m := range moves {
			class := ds.class[m.old]
			name := ds.linkName[m.old]
			delete(ds.class, m.old)
			delete(ds.linkName, m.old)
			ds.class[m.new] = class
			if name == "" {
				continue
			}
			ds.linkName[m.new] = name
			lp := vfs.Join(dirPath, name)
			if err := fs.under.Remove(lp); err != nil && !isNotExist(err) {
				return err
			}
			if err := fs.under.Symlink(m.new, lp); err != nil {
				return err
			}
		}
		var prohMoves []move
		for t := range ds.prohibited {
			if !IsRemoteTarget(t) && vfs.HasPrefix(t, oldPrefix) {
				prohMoves = append(prohMoves, move{t, newPrefix + t[len(oldPrefix):]})
			}
		}
		for _, m := range prohMoves {
			delete(ds.prohibited, m.old)
			ds.prohibited[m.new] = true
		}
		if len(moves) > 0 {
			fs.bumpScopeEpochLocked(ds.uid)
		}
	}
	return nil
}

// Stat returns metadata for path, consulting the attribute cache first
// (the paper's shared-memory attribute cache, which speeds the Scan
// phase of the Andrew benchmark).
func (fs *FS) Stat(path string) (vfs.Info, error) {
	clean, err := vfs.Clean(path)
	if err != nil {
		return vfs.Info{}, &vfs.PathError{Op: "stat", Path: path, Err: err}
	}
	if info, ok := fs.attrs.get(clean); ok {
		return info, nil
	}
	fs.resolvePath(clean)
	info, err := fs.under.Stat(clean)
	if err != nil {
		return vfs.Info{}, err
	}
	fs.attrs.put(clean, info)
	return info, nil
}

// Lstat returns metadata without following a final symlink. Results are
// not cached (the cache stores followed attributes).
func (fs *FS) Lstat(path string) (vfs.Info, error) {
	return fs.under.Lstat(path)
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.resolvePath(path)
	return fs.under.ReadDir(path)
}
