package cas

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/vfs"
)

// FS is a copy-on-write hierarchical file system whose file contents
// live in a shared BlobStore. The tree is an immutable base plus a
// mutable overlay, tracked per node with a generation stamp: nodes
// carrying the FS's current generation are the overlay and may be
// mutated in place; every other node belongs to a sealed base and is
// copied (shallowly — children are shared) the first time a mutation
// reaches it. Sealing the overlay into a new base — Snapshot, Clone —
// is therefore O(1): bump the generation and share the root.
//
// FS implements the full vfs.FileSystem surface with MemFS semantics
// (POSIX rename rules, lazy symlink resolution, syntactic mount
// points), so hac, the index and FaultFS-based model checks run on it
// unchanged.
type FS struct {
	store *BlobStore

	mu     sync.RWMutex
	root   *inode
	gen    uint64
	nextID uint64
	now    func() time.Time
	mounts map[uint64]vfs.FileSystem // directory inode id → mounted fs
	// dirtyFiles tracks overlay file inodes whose content currently
	// lives in an unhashed buffer (open-handle write sessions). They
	// are flushed into the store before any manifest materializes.
	dirtyFiles map[*inode]bool
	stats      vfs.Stats
	// manifestLen is the entry count of the last manifest, the next
	// one's capacity: a tree changes little between two manifests.
	manifestLen int
	tree        treeScratch
}

var _ vfs.FileSystem = (*FS)(nil)

// generations are allocated process-wide so that no two FS instances —
// in particular a clone and its source — can ever share a current
// generation and mistake each other's sealed nodes for overlay.
var genCounter atomic.Uint64

// inode is one node of the COW tree. A node whose gen matches the
// owning FS's current generation is mutable overlay; all others are
// frozen. Because mutation always copies the path from the root down,
// an overlay node's ancestors are all overlay — equivalently, a frozen
// directory's subtree is entirely frozen.
type inode struct {
	id      uint64
	gen     uint64
	typ     vfs.NodeType
	name    string
	modTime time.Time

	children map[string]*inode // directories

	// File content is either sealed (hasHash: content under hash in the
	// store) or a dirty buffer (hasDirty). owned marks a sealed hash
	// whose store reference belongs to this FS's live overlay — the
	// reference is released when the content is overwritten or the file
	// removed. Hashes inherited from a frozen base are not owned: their
	// references pin the base.
	hash    Hash
	size    int64
	hasHash bool
	owned   bool
	// opens counts the handles open on the node. An overlay file removed
	// from the tree while one is open keeps its content, as an unlinked
	// file does, until the last of them closes; unlinked marks it, and a
	// handle's private copy (chandle.ensureMutable).
	opens    atomic.Int32
	dirty    []byte
	hasDirty bool
	unlinked bool

	target string // symlinks
}

func (n *inode) isDir() bool { return n.typ == vfs.TypeDir }

func (n *inode) info() vfs.Info {
	inf := vfs.Info{Name: n.name, Ino: n.id, Type: n.typ, ModTime: n.modTime}
	switch n.typ {
	case vfs.TypeFile:
		if n.hasDirty {
			inf.Size = int64(len(n.dirty))
		} else {
			inf.Size = n.size
		}
	case vfs.TypeSymlink:
		inf.Target = n.target
	}
	return inf
}

// New returns an empty file system backed by store (a fresh private
// store when nil).
func New(store *BlobStore) *FS {
	if store == nil {
		store = NewStore()
	}
	fs := &FS{
		store:      store,
		gen:        genCounter.Add(1),
		now:        time.Now,
		mounts:     make(map[uint64]vfs.FileSystem),
		dirtyFiles: make(map[*inode]bool),
	}
	fs.root = &inode{
		id:       fs.allocID(),
		gen:      fs.gen,
		typ:      vfs.TypeDir,
		name:     "/",
		children: make(map[string]*inode),
		modTime:  fs.now(),
	}
	return fs
}

// Of unwraps layering — a HAC volume, vfs.FaultFS, anything else
// exposing Under() — down to the content-addressed substrate beneath
// fsys, or nil when there is none.
func Of(fsys vfs.FileSystem) *FS {
	for {
		if c, ok := fsys.(*FS); ok {
			return c
		}
		u, ok := fsys.(interface{ Under() vfs.FileSystem })
		if !ok {
			return nil
		}
		fsys = u.Under()
	}
}

// Store returns the blob store backing this file system.
func (fs *FS) Store() *BlobStore { return fs.store }

// SetClock replaces the time source, for deterministic tests.
func (fs *FS) SetClock(now func() time.Time) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.now = now
}

// Stats returns a snapshot of the operation counters.
func (fs *FS) Stats() vfs.StatsSnapshot { return fs.stats.Snapshot() }

func (fs *FS) allocID() uint64 {
	fs.nextID++
	return fs.nextID
}

func pe(op, path string, err error) error {
	return &vfs.PathError{Op: op, Path: path, Err: err}
}

// walkTarget is the outcome of a path walk: the node reached, or a
// delegation into a mounted file system.
type walkTarget struct {
	n     *inode   // the target; nil when delegated
	trail []*inode // root … target, when the walk was asked to record it
	fs    vfs.FileSystem
	rest  string
}

// walkMode says which symlinks a walk follows and what a mount on the
// way means.
type walkMode int

const (
	// literal follows no symlink, and a mount point before the last
	// component is vfs.ErrCrossMount: the path names this file system's
	// own node (Mount, Unmount, manifest replay).
	literal walkMode = iota
	// followDirs follows every symlink but a final one (Lstat, Readlink).
	followDirs
	// followAll follows a final symlink too.
	followAll
)

// What a walk records besides the target: nothing, or the trail of nodes
// from the root to it, which a mutation copies on write (cow).
const (
	nodeOnly  = false
	withTrail = true
)

const maxSymlinkDepth = 40

// walk resolves p, mirroring MemFS.walk exactly (symlink restart
// semantics, mount delegation). It reads the clean path's components in
// place: it allocates only to splice a followed symlink's target into
// the rest of the path, and for the trail when record asks for it.
// Caller holds fs.mu.
func (fs *FS) walk(p string, mode walkMode, record bool) (walkTarget, error) {
	clean, err := vfs.Clean(p)
	if err != nil {
		return walkTarget{}, err
	}
	// rest is the part of the path still to resolve: "" or a "/" before
	// each component.
	rest := clean
	if rest == "/" {
		rest = ""
	}
	cur := fs.root
	var trail []*inode
	if record {
		trail = append(make([]*inode, 0, 8), cur)
	}
	depth := 0
	for {
		if m, ok := fs.mounts[cur.id]; ok {
			switch {
			case mode != literal:
				if rest == "" {
					rest = "/"
				}
				rest, _ = vfs.Clean(rest)
				return walkTarget{fs: m, rest: rest}, nil
			case rest != "":
				return walkTarget{}, vfs.ErrCrossMount
			}
		}
		if rest == "" {
			return walkTarget{n: cur, trail: trail}, nil
		}
		if !cur.isDir() {
			return walkTarget{}, vfs.ErrNotDir
		}
		name, after := rest[1:], ""
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name, after = name[:i], name[i:]
		}
		child, ok := cur.children[name]
		if !ok {
			return walkTarget{}, vfs.ErrNotExist
		}
		if child.typ == vfs.TypeSymlink && (mode == followAll || mode == followDirs && after != "") {
			depth++
			if depth > maxSymlinkDepth {
				return walkTarget{}, vfs.ErrLoop
			}
			t := child.target
			if t == "" {
				return walkTarget{}, vfs.ErrInvalid
			}
			// An absolute target restarts at the root; a relative one
			// resolves from the link's directory, the current node, as in
			// MemFS.
			if vfs.IsAbs(t) {
				cur = fs.root
				trail = trail[:min(len(trail), 1)]
			}
			if t = strings.Trim(t, "/"); t != "" {
				after = "/" + t + after
			}
			rest = after
			continue
		}
		cur = child
		if record {
			trail = append(trail, cur)
		}
		rest = after
	}
}

// walkParent resolves the directory containing p, recording its trail.
// Caller holds fs.mu.
func (fs *FS) walkParent(p string) (t walkTarget, base string, err error) {
	clean, err := vfs.Clean(p)
	if err != nil {
		return walkTarget{}, "", err
	}
	if clean == "/" {
		return walkTarget{}, "", vfs.ErrInvalid
	}
	dirPath, base := vfs.Split(clean)
	t, err = fs.walk(dirPath, followAll, withTrail)
	if err != nil {
		return walkTarget{}, "", err
	}
	if t.fs != nil {
		return walkTarget{fs: t.fs, rest: vfs.Join(t.rest, base)}, "", nil
	}
	if !t.n.isDir() {
		return walkTarget{}, "", vfs.ErrNotDir
	}
	if m, ok := fs.mounts[t.n.id]; ok {
		return walkTarget{fs: m, rest: "/" + base}, "", nil
	}
	return t, base, nil
}

// copyNode makes an overlay copy of a frozen node: same identity,
// current generation, shared children and content. The copy does not
// own its hash reference — that stays with the frozen base.
func (fs *FS) copyNode(n *inode) *inode {
	c := &inode{
		id:      n.id,
		gen:     fs.gen,
		typ:     n.typ,
		name:    n.name,
		modTime: n.modTime,
		hash:    n.hash,
		size:    n.size,
		hasHash: n.hasHash,
		target:  n.target,
	}
	if n.children != nil {
		c.children = make(map[string]*inode, len(n.children))
		for k, v := range n.children {
			c.children[k] = v
		}
	}
	return c
}

// cow makes every node on the trail overlay (copying frozen ones and
// relinking the copies) and returns the now-mutable final node. Caller
// holds fs.mu for writing.
func (fs *FS) cow(trail []*inode) *inode {
	if trail[0].gen != fs.gen {
		c := fs.copyNode(trail[0])
		fs.root = c
		trail[0] = c
	}
	for i := 1; i < len(trail); i++ {
		if trail[i].gen != fs.gen {
			c := fs.copyNode(trail[i])
			trail[i-1].children[c.name] = c
			trail[i] = c
		}
	}
	return trail[len(trail)-1]
}

// content returns the current bytes of a file node (store-backed or
// dirty buffer). The slice must not be modified. Caller holds fs.mu.
func (fs *FS) content(n *inode) []byte {
	if n.hasDirty {
		return n.dirty
	}
	if !n.hasHash {
		return nil
	}
	data, ok := fs.store.Get(n.hash)
	if !ok {
		// Unreachable unless the store was externally corrupted; treat
		// as empty rather than panic.
		return nil
	}
	return data
}

// dropContent releases an overlay node's content: the owned store
// reference if sealed, the dirty-set entry if buffered. Caller holds
// fs.mu for writing; n must be overlay.
func (fs *FS) dropContent(n *inode) {
	if n.owned && n.hasHash {
		fs.store.Unref(n.hash)
	}
	n.hash, n.hasHash, n.owned = Hash{}, false, false
	if n.hasDirty {
		n.dirty, n.hasDirty = nil, false
		delete(fs.dirtyFiles, n)
	}
}

// setContent replaces an overlay file node's content with data, sealed
// into the store immediately. Caller holds fs.mu for writing.
func (fs *FS) setContent(n *inode, data []byte) {
	fs.dropContent(n)
	h, _ := fs.store.Put(data)
	n.hash, n.hasHash, n.owned = h, true, true
	n.size = int64(len(data))
	n.modTime = fs.now()
}

// truncate gives n an empty dirty buffer: the write session a create or
// a truncating open starts, which the handle's Close — or a manifest
// before it — seals into the store, so that a file closed unwritten has
// content too. Caller holds fs.mu for writing; n must be overlay.
func (fs *FS) truncate(n *inode) {
	fs.dropContent(n)
	n.dirty, n.hasDirty = nil, true
	fs.dirtyFiles[n] = true
	n.size = 0
	n.modTime = fs.now()
}

// flush seals one dirty node's buffer into the store. Caller holds
// fs.mu for writing; n must be overlay and dirty.
func (fs *FS) flush(n *inode) {
	data := n.dirty
	n.dirty, n.hasDirty = nil, false
	delete(fs.dirtyFiles, n)
	h, _ := fs.store.Put(data)
	n.hash, n.hasHash, n.owned = h, true, true
	n.size = int64(len(data))
}

// flushAll seals every dirty buffer. Caller holds fs.mu for writing.
func (fs *FS) flushAll() {
	for n := range fs.dirtyFiles {
		fs.flush(n)
	}
}

// releaseOverlay walks the overlay rooted at n releasing owned content
// references — the bookkeeping half of removing a subtree. Frozen
// subtrees are skipped wholesale: their references belong to sealed
// bases. A file a handle has open keeps its content, in the store once
// however many handles share it, until the last one closes (chandle.Close).
// Caller holds fs.mu for writing.
func (fs *FS) releaseOverlay(n *inode) {
	if n.gen != fs.gen {
		return
	}
	switch n.typ {
	case vfs.TypeFile:
		if n.opens.Load() > 0 {
			n.unlinked = true
			delete(fs.dirtyFiles, n) // no manifest names it any more
			return
		}
		fs.dropContent(n)
	case vfs.TypeDir:
		for _, c := range n.children {
			fs.releaseOverlay(c)
		}
	}
}

// ---------------------------------------------------------------------
// vfs.FileSystem
// ---------------------------------------------------------------------

// Mkdir creates a directory. The parent must exist.
func (fs *FS) Mkdir(p string) error {
	fs.stats.Mkdirs.Add(1)
	fs.mu.Lock()
	t, base, err := fs.walkParent(p)
	if err != nil {
		fs.mu.Unlock()
		return pe("mkdir", p, err)
	}
	if t.fs != nil {
		fs.mu.Unlock()
		return t.fs.Mkdir(t.rest)
	}
	defer fs.mu.Unlock()
	if _, ok := t.n.children[base]; ok {
		return pe("mkdir", p, vfs.ErrExist)
	}
	dir := fs.cow(t.trail)
	dir.children[base] = &inode{
		id:       fs.allocID(),
		gen:      fs.gen,
		typ:      vfs.TypeDir,
		name:     base,
		children: make(map[string]*inode),
		modTime:  fs.now(),
	}
	dir.modTime = fs.now()
	return nil
}

// MkdirAll creates a directory and any missing parents. It succeeds if
// the directory already exists.
func (fs *FS) MkdirAll(p string) error {
	clean, err := vfs.Clean(p)
	if err != nil {
		return pe("mkdir", p, err)
	}
	if clean == "/" {
		return nil
	}
	// Every prefix is a slice of clean, ending before a "/" or at its end.
	for i := 1; i <= len(clean); i++ {
		if i < len(clean) && clean[i] != '/' {
			continue
		}
		prefix := clean[:i]
		fs.mu.RLock()
		t, err := fs.walk(prefix, followAll, nodeOnly)
		fs.mu.RUnlock()
		switch {
		case err == nil && t.fs != nil:
			return t.fs.MkdirAll(vfs.Join(t.rest, clean[i:]))
		case err == nil && t.n.isDir():
			continue
		case err == nil:
			return pe("mkdir", prefix, vfs.ErrNotDir)
		default:
			if mkErr := fs.Mkdir(prefix); mkErr != nil {
				return mkErr
			}
		}
	}
	return nil
}

// Create creates or truncates a file and opens it for reading and
// writing.
func (fs *FS) Create(p string) (vfs.File, error) {
	return fs.OpenFile(p, vfs.ORead|vfs.OWrite|vfs.OCreate|vfs.OTrunc)
}

// Open opens a file for reading.
func (fs *FS) Open(p string) (vfs.File, error) {
	return fs.OpenFile(p, vfs.ORead)
}

// OpenFile opens p with the given flags.
func (fs *FS) OpenFile(p string, flag int) (vfs.File, error) {
	fs.stats.Opens.Add(1)
	if flag&(vfs.ORead|vfs.OWrite) == 0 {
		return nil, pe("open", p, vfs.ErrInvalid)
	}
	if flag&(vfs.OCreate|vfs.OTrunc) == 0 {
		// Such an open changes nothing: a shared lock, and no trail.
		fs.mu.RLock()
		t, err := fs.walk(p, followAll, nodeOnly)
		var h *chandle
		if err == nil && t.fs == nil && !t.n.isDir() {
			h = fs.newHandle(t.n, p, flag)
		}
		fs.mu.RUnlock()
		switch {
		case err != nil:
			return nil, pe("open", p, err)
		case t.fs != nil:
			return t.fs.OpenFile(t.rest, flag)
		case h == nil:
			return nil, pe("open", p, vfs.ErrIsDir)
		}
		return h, nil
	}
	fs.mu.Lock()
	t, err := fs.walk(p, followAll, withTrail)
	if err == nil && t.fs != nil {
		fs.mu.Unlock()
		return t.fs.OpenFile(t.rest, flag)
	}
	if err != nil {
		if err != vfs.ErrNotExist || flag&vfs.OCreate == 0 {
			fs.mu.Unlock()
			return nil, pe("open", p, err)
		}
		pt, base, perr := fs.walkParent(p)
		if perr != nil {
			fs.mu.Unlock()
			return nil, pe("open", p, perr)
		}
		if pt.fs != nil {
			fs.mu.Unlock()
			return pt.fs.OpenFile(pt.rest, flag)
		}
		if _, exists := pt.n.children[base]; exists {
			// The final component is a dangling symlink; refuse.
			fs.mu.Unlock()
			return nil, pe("open", p, vfs.ErrExist)
		}
		dir := fs.cow(pt.trail)
		n := &inode{
			id:   fs.allocID(),
			gen:  fs.gen,
			typ:  vfs.TypeFile,
			name: base,
		}
		fs.truncate(n)
		dir.children[base] = n
		dir.modTime = fs.now()
		h := fs.newHandle(n, p, flag)
		fs.mu.Unlock()
		return h, nil
	}
	n := t.n
	if n.isDir() {
		fs.mu.Unlock()
		return nil, pe("open", p, vfs.ErrIsDir)
	}
	if flag&vfs.OExcl != 0 && flag&vfs.OCreate != 0 {
		fs.mu.Unlock()
		return nil, pe("open", p, vfs.ErrExist)
	}
	if flag&vfs.OTrunc != 0 {
		if flag&vfs.OWrite == 0 {
			fs.mu.Unlock()
			return nil, pe("open", p, vfs.ErrInvalid)
		}
		n = fs.cow(t.trail)
		fs.truncate(n)
	}
	h := fs.newHandle(n, p, flag)
	fs.mu.Unlock()
	return h, nil
}

// ReadFile returns the contents of the file at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	fs.stats.Reads.Add(1)
	fs.mu.RLock()
	t, err := fs.walk(p, followAll, nodeOnly)
	if err != nil {
		fs.mu.RUnlock()
		return nil, pe("read", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		return t.fs.ReadFile(t.rest)
	}
	defer fs.mu.RUnlock()
	if t.n.isDir() {
		return nil, pe("read", p, vfs.ErrIsDir)
	}
	data := fs.content(t.n)
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Reclaimable returns the unique bytes that overwriting or removing the
// content of the file at p (following symlinks) would return to the
// store: its size when this volume's live overlay holds the store's only
// reference to that content, else 0 — a frozen base or another file
// still holds it, the content is an unsealed buffer, or p is no sealed
// regular file of this volume.
func (fs *FS) Reclaimable(p string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	t, err := fs.walk(p, followAll, nodeOnly)
	if err != nil || t.fs != nil {
		return 0
	}
	n := t.n
	if n.gen != fs.gen || n.typ != vfs.TypeFile || !n.owned || !n.hasHash || !fs.store.sole(n.hash) {
		return 0
	}
	return n.size
}

// WriteFile creates or replaces the file at p with data, sealing the
// content into the blob store immediately (one Put; a dedup hit costs
// no storage).
func (fs *FS) WriteFile(p string, data []byte) error {
	fs.stats.Writes.Add(1)
	fs.mu.Lock()
	t, err := fs.walk(p, followAll, withTrail)
	if err == nil && t.fs != nil {
		fs.mu.Unlock()
		return t.fs.WriteFile(t.rest, data)
	}
	if err == nil {
		n := t.n
		if n.isDir() {
			fs.mu.Unlock()
			return pe("write", p, vfs.ErrIsDir)
		}
		n = fs.cow(t.trail)
		fs.setContent(n, data)
		fs.mu.Unlock()
		return nil
	}
	if err != vfs.ErrNotExist {
		fs.mu.Unlock()
		return pe("open", p, err)
	}
	pt, base, perr := fs.walkParent(p)
	if perr != nil {
		fs.mu.Unlock()
		return pe("open", p, perr)
	}
	if pt.fs != nil {
		fs.mu.Unlock()
		return pt.fs.WriteFile(pt.rest, data)
	}
	if _, exists := pt.n.children[base]; exists {
		fs.mu.Unlock()
		return pe("open", p, vfs.ErrExist)
	}
	dir := fs.cow(pt.trail)
	n := &inode{
		id:      fs.allocID(),
		gen:     fs.gen,
		typ:     vfs.TypeFile,
		name:    base,
		modTime: fs.now(),
	}
	dir.children[base] = n
	dir.modTime = fs.now()
	fs.setContent(n, data)
	fs.mu.Unlock()
	return nil
}

// Symlink creates a symbolic link at link pointing to target. The
// target is stored verbatim and resolved lazily, so dangling links are
// legal.
func (fs *FS) Symlink(target, link string) error {
	fs.stats.Symlinks.Add(1)
	if target == "" {
		return pe("symlink", link, vfs.ErrInvalid)
	}
	fs.mu.Lock()
	t, base, err := fs.walkParent(link)
	if err != nil {
		fs.mu.Unlock()
		return pe("symlink", link, err)
	}
	if t.fs != nil {
		fs.mu.Unlock()
		return t.fs.Symlink(target, t.rest)
	}
	defer fs.mu.Unlock()
	if _, ok := t.n.children[base]; ok {
		return pe("symlink", link, vfs.ErrExist)
	}
	dir := fs.cow(t.trail)
	dir.children[base] = &inode{
		id:      fs.allocID(),
		gen:     fs.gen,
		typ:     vfs.TypeSymlink,
		name:    base,
		target:  target,
		modTime: fs.now(),
	}
	dir.modTime = fs.now()
	return nil
}

// Readlink returns the target of the symlink at p.
func (fs *FS) Readlink(p string) (string, error) {
	fs.mu.RLock()
	t, err := fs.walk(p, followDirs, nodeOnly)
	if err != nil {
		fs.mu.RUnlock()
		return "", pe("readlink", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		return t.fs.Readlink(t.rest)
	}
	defer fs.mu.RUnlock()
	if t.n.typ != vfs.TypeSymlink {
		return "", pe("readlink", p, vfs.ErrInvalid)
	}
	return t.n.target, nil
}

// Remove deletes the object at p. Directories must be empty. Symlinks
// are removed, not followed. Mount points cannot be removed.
func (fs *FS) Remove(p string) error {
	fs.stats.Removes.Add(1)
	fs.mu.Lock()
	t, base, err := fs.walkParent(p)
	if err != nil {
		fs.mu.Unlock()
		return pe("remove", p, err)
	}
	if t.fs != nil {
		fs.mu.Unlock()
		return t.fs.Remove(t.rest)
	}
	defer fs.mu.Unlock()
	n, ok := t.n.children[base]
	if !ok {
		return pe("remove", p, vfs.ErrNotExist)
	}
	if _, mounted := fs.mounts[n.id]; mounted {
		return pe("remove", p, vfs.ErrBusy)
	}
	if n.isDir() && len(n.children) > 0 {
		return pe("remove", p, vfs.ErrNotEmpty)
	}
	dir := fs.cow(t.trail)
	fs.releaseOverlay(n)
	delete(dir.children, base)
	dir.modTime = fs.now()
	return nil
}

// RemoveAll deletes the object at p and, for directories, everything
// beneath it. Removing a non-existent path is not an error. Subtrees
// containing mount points are refused.
func (fs *FS) RemoveAll(p string) error {
	fs.stats.Removes.Add(1)
	clean, err := vfs.Clean(p)
	if err != nil {
		return pe("removeall", p, err)
	}
	if clean == "/" {
		return pe("removeall", p, vfs.ErrInvalid)
	}
	fs.mu.Lock()
	t, base, err := fs.walkParent(clean)
	if err != nil {
		fs.mu.Unlock()
		if err == vfs.ErrNotExist {
			return nil
		}
		return pe("removeall", p, err)
	}
	if t.fs != nil {
		fs.mu.Unlock()
		return t.fs.RemoveAll(t.rest)
	}
	defer fs.mu.Unlock()
	n, ok := t.n.children[base]
	if !ok {
		return nil
	}
	if fs.subtreeHasMount(n) {
		return pe("removeall", p, vfs.ErrBusy)
	}
	dir := fs.cow(t.trail)
	fs.releaseOverlay(n)
	delete(dir.children, base)
	dir.modTime = fs.now()
	return nil
}

func (fs *FS) subtreeHasMount(n *inode) bool {
	if _, ok := fs.mounts[n.id]; ok {
		return true
	}
	for _, c := range n.children {
		if c.isDir() && fs.subtreeHasMount(c) {
			return true
		}
	}
	return false
}

// Rename moves the object at oldPath to newPath, following POSIX rules:
// an existing empty directory or file at newPath is replaced; a
// directory cannot be moved into its own subtree; renames may not cross
// mount points.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.stats.Renames.Add(1)
	fs.mu.Lock()
	defer fs.mu.Unlock()

	ot, oldBase, err := fs.walkParent(oldPath)
	if err != nil {
		return pe("rename", oldPath, err)
	}
	nt, newBase, err := fs.walkParent(newPath)
	if err != nil {
		return pe("rename", newPath, err)
	}
	if ot.fs != nil || nt.fs != nil {
		if ot.fs != nil && ot.fs == nt.fs {
			m := ot.fs
			fs.mu.Unlock()
			err := m.Rename(ot.rest, nt.rest)
			fs.mu.Lock()
			return err
		}
		return pe("rename", oldPath, vfs.ErrCrossMount)
	}
	src, ok := ot.n.children[oldBase]
	if !ok {
		return pe("rename", oldPath, vfs.ErrNotExist)
	}
	if _, mounted := fs.mounts[src.id]; mounted {
		return pe("rename", oldPath, vfs.ErrBusy)
	}
	// Refuse to move a directory under itself: the destination parent
	// trail must not pass through src.
	if src.isDir() {
		for _, d := range nt.trail {
			if d.id == src.id {
				return pe("rename", newPath, vfs.ErrInvalid)
			}
		}
	}
	if dst, exists := nt.n.children[newBase]; exists {
		if dst == src || dst.id == src.id {
			return nil // rename to itself
		}
		switch {
		case dst.isDir() && !src.isDir():
			return pe("rename", newPath, vfs.ErrIsDir)
		case !dst.isDir() && src.isDir():
			return pe("rename", newPath, vfs.ErrNotDir)
		case dst.isDir() && len(dst.children) > 0:
			return pe("rename", newPath, vfs.ErrNotEmpty)
		}
		if _, mounted := fs.mounts[dst.id]; mounted {
			return pe("rename", newPath, vfs.ErrBusy)
		}
	}
	oldDir := fs.cow(ot.trail)
	// Re-walking may be needed: cow of the old trail can have replaced
	// nodes on the new trail (shared ancestors). Re-resolve the new
	// parent against the updated overlay before linking.
	nt2, newBase2, err := fs.walkParent(newPath)
	if err != nil || nt2.fs != nil {
		return pe("rename", newPath, vfs.ErrInvalid)
	}
	newDir := fs.cow(nt2.trail)
	if dst, exists := newDir.children[newBase2]; exists {
		if fs.subtreeHasMount(dst) {
			return pe("rename", newPath, vfs.ErrBusy)
		}
		fs.releaseOverlay(dst)
	}
	// The moved node itself must become overlay so its name can change
	// without disturbing sealed bases.
	moved := src
	if moved.gen != fs.gen {
		moved = fs.copyNode(src)
	}
	delete(oldDir.children, oldBase)
	oldDir.modTime = fs.now()
	moved.name = newBase2
	moved.modTime = fs.now()
	newDir.children[newBase2] = moved
	return nil
}

// Stat returns metadata for p, following symlinks.
func (fs *FS) Stat(p string) (vfs.Info, error) {
	fs.stats.Stats.Add(1)
	fs.mu.RLock()
	t, err := fs.walk(p, followAll, nodeOnly)
	if err != nil {
		fs.mu.RUnlock()
		return vfs.Info{}, pe("stat", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		return t.fs.Stat(t.rest)
	}
	defer fs.mu.RUnlock()
	return t.n.info(), nil
}

// Lstat returns metadata for p without following a final symlink.
func (fs *FS) Lstat(p string) (vfs.Info, error) {
	fs.stats.Stats.Add(1)
	fs.mu.RLock()
	t, err := fs.walk(p, followDirs, nodeOnly)
	if err != nil {
		fs.mu.RUnlock()
		return vfs.Info{}, pe("lstat", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		return t.fs.Lstat(t.rest)
	}
	defer fs.mu.RUnlock()
	return t.n.info(), nil
}

// ReadDir lists the directory at p in name order.
func (fs *FS) ReadDir(p string) ([]vfs.DirEntry, error) {
	fs.stats.ReadDirs.Add(1)
	fs.mu.RLock()
	t, err := fs.walk(p, followAll, nodeOnly)
	if err != nil {
		fs.mu.RUnlock()
		return nil, pe("readdir", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		return t.fs.ReadDir(t.rest)
	}
	defer fs.mu.RUnlock()
	if !t.n.isDir() {
		return nil, pe("readdir", p, vfs.ErrNotDir)
	}
	n := t.n
	out := make([]vfs.DirEntry, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, vfs.DirEntry{Name: c.name, Type: c.typ, Ino: c.id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ---------------------------------------------------------------------
// Mounts (MemFS-compatible syntactic mount points)
// ---------------------------------------------------------------------

// Mount attaches m at the directory p; subsequent lookups under p are
// served by m.
func (fs *FS) Mount(p string, m vfs.FileSystem) error {
	if m == nil || m == vfs.FileSystem(fs) {
		return pe("mount", p, vfs.ErrInvalid)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, err := fs.walk(p, literal, nodeOnly)
	if err != nil {
		return pe("mount", p, err)
	}
	n := t.n
	if !n.isDir() {
		return pe("mount", p, vfs.ErrNotDir)
	}
	if _, ok := fs.mounts[n.id]; ok {
		return pe("mount", p, vfs.ErrBusy)
	}
	fs.mounts[n.id] = m
	return nil
}

// Unmount detaches the file system mounted at p.
func (fs *FS) Unmount(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, err := fs.walk(p, literal, nodeOnly)
	if err != nil {
		return pe("unmount", p, err)
	}
	if _, ok := fs.mounts[t.n.id]; !ok {
		return pe("unmount", p, vfs.ErrInvalid)
	}
	delete(fs.mounts, t.n.id)
	return nil
}

// ---------------------------------------------------------------------
// Sealing: snapshots, clones, manifests
// ---------------------------------------------------------------------

// Snap is a sealed, immutable image of an FS at one instant: the root
// of a frozen tree sharing the blob store. Taking one is O(1).
type Snap struct {
	root  *inode
	store *BlobStore
	taken time.Time
}

// Taken returns when the snapshot was sealed.
func (s *Snap) Taken() time.Time { return s.taken }

// seal flushes dirty buffers and retires the current overlay: every
// node becomes frozen because the FS moves to a fresh generation.
// Caller holds fs.mu for writing. Returns the sealed root.
func (fs *FS) seal() *inode {
	fs.flushAll()
	fs.gen = genCounter.Add(1)
	return fs.root
}

// Snapshot seals the current overlay into a new immutable base and
// returns it. Cost is O(dirty open handles), not O(tree): the tree is
// shared, not walked. Subsequent mutations copy their path from the
// root down.
func (fs *FS) Snapshot() *Snap {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	root := fs.seal()
	return &Snap{root: root, store: fs.store, taken: fs.now()}
}

// Clone seals the overlay and returns an independent FS sharing the
// sealed tree and the blob store. Like Snapshot, cost is O(1) in tree
// size; the two file systems then diverge copy-on-write.
func (fs *FS) Clone() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	root := fs.seal()
	return &FS{
		store:      fs.store,
		root:       root,
		gen:        genCounter.Add(1),
		nextID:     fs.nextID,
		now:        fs.now,
		mounts:     make(map[uint64]vfs.FileSystem),
		dirtyFiles: make(map[*inode]bool),
	}
}

// Restore rewinds the file system to a previously taken snapshot.
// Owned overlay content is released; the snapshot tree is shared, so
// this too is O(overlay), not O(tree).
func (fs *FS) Restore(s *Snap) error {
	if s == nil || s.store != fs.store {
		return pe("restore", "/", vfs.ErrInvalid)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.releaseOverlay(fs.root)
	for n := range fs.dirtyFiles {
		delete(fs.dirtyFiles, n)
	}
	fs.root = s.root
	fs.gen = genCounter.Add(1)
	return nil
}

// Manifest materializes the tree description: every node, sorted by
// path, with file content referenced by hash. Dirty buffers are sealed
// first, so the manifest's hashes are always resolvable in the store.
// Mounted subtrees are not descended into (the mount point appears as
// an ordinary directory): a mount is not part of the volume.
func (fs *FS) Manifest() *Manifest {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.flushAll()
	return fs.manifestLocked()
}

// Flush seals every open handle's dirty buffer into the store, as a
// manifest would, without building one.
func (fs *FS) Flush() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.flushAll()
}

// CASManifest and CASBlobs expose the manifest-diff replication surface
// (remotefs.BlobSource) on a bare content-addressed file system, so one
// can be served and mirrored without a HAC layer on top. CASBlobs
// returns contents for the requested hashes in order; a hash absent
// from the store fails the whole batch with vfs.ErrNotExist.

func (fs *FS) CASManifest() (*Manifest, error) { return fs.Manifest(), nil }

func (fs *FS) CASBlobs(hashes []Hash) ([][]byte, error) {
	out := make([][]byte, 0, len(hashes))
	for _, h := range hashes {
		data, ok := fs.store.Get(h)
		if !ok {
			return nil, &vfs.PathError{Op: "blobs", Path: h.String(), Err: vfs.ErrNotExist}
		}
		out = append(out, data)
	}
	return out, nil
}

// Blob is one content blob of a volume image: its hash and content.
type Blob struct {
	Hash Hash
	Data []byte
}

// AppendImage takes one atomic view of the volume for image writers: it
// appends the encoded manifest (Manifest.AppendBinary's bytes) to
// manifest, and to blobs the content of every distinct blob the manifest
// references, in the order it first references them. Returning the data
// slices (not the store) keeps them valid even if a concurrent writer
// later drops the last reference — the garbage collector retains the
// buffers for the caller. A referenced blob the store does not hold is
// an error. Once manifest and blobs have room for the tree, a call
// allocates nothing per node: callers that save repeatedly pass the
// previous call's buffers back in.
func (fs *FS) AppendImage(manifest []byte, blobs []Blob) ([]byte, []Blob, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.flushAll()
	if fs.tree.seen == nil {
		fs.tree.seen = make(map[Hash]struct{})
	}
	seen := fs.tree.seen
	defer clear(seen)
	head := len(manifest)
	manifest = appendManifestHead(manifest, 0)
	first, count := len(blobs), 0
	fs.eachNodeLocked(&fs.tree, func(path []byte, n *inode) {
		count++
		manifest = appendEntry(manifest, path, n.typ, n.hash, n.size, n.target, n.modTime)
		if n.typ != vfs.TypeFile {
			return
		}
		if _, dup := seen[n.hash]; !dup {
			seen[n.hash] = struct{}{}
			blobs = append(blobs, Blob{Hash: n.hash})
		}
	})
	binary.BigEndian.PutUint32(manifest[head+5:], uint32(count))
	fs.manifestLen = count
	if h, ok := fs.store.fill(blobs[first:]); !ok {
		return manifest, blobs, fmt.Errorf("cas: manifest references blob %s absent from the store", h.Short())
	}
	return manifest, blobs, nil
}

// manifestLocked materializes the tree description; caller holds fs.mu
// for writing with dirty buffers already flushed. Its walk scratch is
// its own: a manifest allocates per entry anyway, and a volume that is
// only ever asked for manifests keeps none of it.
func (fs *FS) manifestLocked() *Manifest {
	m := &Manifest{Entries: make([]Entry, 0, max(64, fs.manifestLen))}
	fs.eachNodeLocked(new(treeScratch), func(path []byte, n *inode) {
		e := Entry{Path: string(path), Type: n.typ, ModTime: n.modTime}
		switch n.typ {
		case vfs.TypeFile:
			e.Hash, e.Size = n.hash, n.size
		case vfs.TypeSymlink:
			e.Target = n.target
		}
		m.Entries = append(m.Entries, e)
	})
	fs.manifestLen = len(m.Entries)
	return m
}

// treeScratch is what AppendImage keeps on the FS from one image to the
// next: the walk's path and the ordered entries of each directory on it
// (eachNodeLocked), and the blobs the image has listed.
type treeScratch struct {
	path []byte
	dirs [][]dirEntry
	seen map[Hash]struct{}
}

// dirEntry is one run of a directory's part of the manifest: a child
// itself, or (within) everything beneath a directory child.
type dirEntry struct {
	name   string
	n      *inode
	within bool
}

// cmpDirEntry orders a directory's runs as their paths sort: a child by
// its name, the run within a directory child by its name and a '/'. A
// file "docs.txt" thus falls between the directory "docs" and
// "docs/a", as it does in path order.
func cmpDirEntry(a, b dirEntry) int {
	n := min(len(a.name), len(b.name))
	if c := strings.Compare(a.name[:n], b.name[:n]); c != 0 {
		return c
	}
	return cmp.Compare(a.keyByte(n), b.keyByte(n))
}

// keyByte is the i-th byte of e's sort key, -1 past its end.
func (e dirEntry) keyByte(i int) int {
	switch {
	case i < len(e.name):
		return int(e.name[i])
	case i == len(e.name) && e.within:
		return '/'
	}
	return -1
}

// eachNodeLocked visits every node of the tree in manifest order (path
// order: every directory before what it holds) with its path, which is
// valid only during the call, walking in t's storage. Mounted subtrees
// are not descended into: a mount is not part of the volume. Caller
// holds fs.mu for writing.
func (fs *FS) eachNodeLocked(t *treeScratch, visit func(path []byte, n *inode)) {
	t.path = append(t.path[:0], '/')
	visit(t.path, fs.root)
	if _, mounted := fs.mounts[fs.root.id]; !mounted {
		fs.visitWithinLocked(t, fs.root, 0, visit)
	}
}

// visitWithinLocked visits everything beneath directory n, whose path is
// t.path.
func (fs *FS) visitWithinLocked(t *treeScratch, n *inode, depth int, visit func(path []byte, n *inode)) {
	if len(t.dirs) == depth {
		t.dirs = append(t.dirs, nil)
	}
	runs := t.dirs[depth][:0]
	for name, child := range n.children {
		runs = append(runs, dirEntry{name: name, n: child})
		if _, mounted := fs.mounts[child.id]; child.isDir() && !mounted {
			runs = append(runs, dirEntry{name: name, n: child, within: true})
		}
	}
	slices.SortFunc(runs, cmpDirEntry)
	t.dirs[depth] = runs
	dir := len(t.path)
	for _, r := range runs {
		if dir > 1 {
			t.path = append(t.path, '/')
		}
		t.path = append(t.path, r.name...)
		if r.within {
			fs.visitWithinLocked(t, r.n, depth+1, visit)
		} else {
			visit(t.path, r.n)
		}
		t.path = t.path[:dir]
	}
	clear(runs)
}

// FromManifest materializes a file system from a manifest whose blobs
// are all present in store. The new FS's overlay owns one store
// reference per file. Missing blobs are an error naming the first
// absent hash.
func FromManifest(m *Manifest, store *BlobStore) (*FS, error) {
	if store == nil {
		store = NewStore()
	}
	fs := New(store)
	if len(m.Entries) == 0 || m.Entries[0].Path != "/" || m.Entries[0].Type != vfs.TypeDir {
		return nil, pe("manifest", "/", vfs.ErrInvalid)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// On failure, release the references already taken — the half-built
	// tree is discarded, and a shared store must not keep its blobs
	// pinned by a manifest that never materialized.
	var taken []Hash
	fail := func(path string, err error) (*FS, error) {
		for _, h := range taken {
			store.Unref(h)
		}
		return nil, pe("manifest", path, err)
	}
	fs.root.modTime = m.Entries[0].ModTime
	for _, e := range m.Entries[1:] {
		// Replay must not reinterpret paths: the parent is walked
		// literally, following no symlink.
		clean, err := vfs.Clean(e.Path)
		if err == nil && clean == "/" {
			err = vfs.ErrInvalid
		}
		if err != nil {
			return fail(e.Path, err)
		}
		dirPath, base := vfs.Split(clean)
		t, err := fs.walk(dirPath, literal, nodeOnly)
		if err != nil {
			return fail(e.Path, err)
		}
		dir := t.n
		if !dir.isDir() {
			return fail(e.Path, vfs.ErrNotDir)
		}
		if _, dup := dir.children[base]; dup {
			return fail(e.Path, vfs.ErrExist)
		}
		n := &inode{
			id:      fs.allocID(),
			gen:     fs.gen,
			typ:     e.Type,
			name:    base,
			modTime: e.ModTime,
		}
		switch e.Type {
		case vfs.TypeDir:
			n.children = make(map[string]*inode)
		case vfs.TypeSymlink:
			if e.Target == "" {
				return fail(e.Path, vfs.ErrInvalid)
			}
			n.target = e.Target
		case vfs.TypeFile:
			if !store.Ref(e.Hash) {
				return fail(e.Path, vfs.ErrNotExist)
			}
			taken = append(taken, e.Hash)
			n.hash, n.hasHash, n.owned = e.Hash, true, true
			n.size = store.Size(e.Hash)
		default:
			return fail(e.Path, vfs.ErrInvalid)
		}
		dir.children[base] = n
	}
	return fs, nil
}

// Release drops every store reference the live overlay owns and resets
// the tree to an empty root. A volume loader that materialized a tree
// and then failed a later stage calls this so a shared store is left
// exactly as the load found it. References held by sealed snapshots are
// unaffected.
func (fs *FS) Release() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.releaseOverlay(fs.root)
	for n := range fs.dirtyFiles {
		delete(fs.dirtyFiles, n)
	}
	fs.root = &inode{
		id:       fs.root.id,
		gen:      fs.gen,
		typ:      vfs.TypeDir,
		name:     "/",
		modTime:  fs.now(),
		children: make(map[string]*inode),
	}
}

// ReplaceWithManifest atomically replaces the entire tree with the one
// the manifest describes (all blobs must already be in the store) —
// the receiving half of manifest-diff sync. The previous overlay's
// owned references are released; the new overlay owns one reference per
// file.
func (fs *FS) ReplaceWithManifest(m *Manifest) error {
	fresh, err := FromManifest(m, fs.store)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.releaseOverlay(fs.root)
	for n := range fs.dirtyFiles {
		delete(fs.dirtyFiles, n)
	}
	fs.root = fresh.root
	fs.gen = fresh.gen
	fs.nextID = fresh.nextID
	return nil
}
