package vfs

import (
	"slices"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory hierarchical file system. It plays the role the
// native UNIX file system played in the paper: the substrate all
// user-level layers (HAC, Jade-style, Pseudo-style) interpose on.
//
// MemFS is safe for concurrent use. The tree lock is a read/write
// lock: lookups and reads (Stat, ReadFile, ReadDir, …) share it, so
// they proceed concurrently; structural mutations take it exclusively.
type MemFS struct {
	mu      sync.RWMutex
	root    *node
	nextIno uint64
	now     func() time.Time
	mounts  map[uint64]FileSystem // directory ino → mounted file system
	stats   Stats
}

var _ FileSystem = (*MemFS)(nil)

// New returns an empty file system containing only the root directory.
func New() *MemFS {
	fs := &MemFS{
		now:    time.Now,
		mounts: make(map[uint64]FileSystem),
	}
	fs.root = &node{
		ino:      fs.allocIno(),
		typ:      TypeDir,
		name:     "/",
		children: make(map[string]*node),
		modTime:  fs.now(),
	}
	return fs
}

// SetClock replaces the time source, for deterministic tests.
func (fs *MemFS) SetClock(now func() time.Time) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.now = now
}

// Stats returns a snapshot of the operation counters.
func (fs *MemFS) Stats() StatsSnapshot { return fs.stats.snapshot() }

func (fs *MemFS) allocIno() uint64 {
	fs.nextIno++
	return fs.nextIno
}

// target is the outcome of a path walk: either a local node, or a
// delegation into a mounted file system with the remaining path.
type walkTarget struct {
	n    *node
	fs   FileSystem
	rest string
}

const maxSymlinkDepth = 40

// walk resolves p. When followLast is false the final component is not
// dereferenced if it is a symlink. The caller must hold fs.mu.
func (fs *MemFS) walk(p string, followLast bool) (walkTarget, error) {
	clean, err := Clean(p)
	if err != nil {
		return walkTarget{}, err
	}
	comps := components(clean)
	cur := fs.root
	depth := 0
	i := 0
	for {
		// Arriving at a mounted directory hands the remaining path to
		// the mounted file system (the paper's syntactic mount point).
		if m, ok := fs.mounts[cur.ino]; ok {
			return walkTarget{fs: m, rest: "/" + Join(comps[i:]...)}, nil
		}
		if i == len(comps) {
			return walkTarget{n: cur}, nil
		}
		if !cur.isDir() {
			return walkTarget{}, ErrNotDir
		}
		child, ok := cur.children[comps[i]]
		if !ok {
			return walkTarget{}, ErrNotExist
		}
		if child.typ == TypeSymlink && (i < len(comps)-1 || followLast) {
			depth++
			if depth > maxSymlinkDepth {
				return walkTarget{}, ErrLoop
			}
			t := child.target
			if t == "" {
				return walkTarget{}, ErrInvalid
			}
			rest := comps[i+1:]
			if IsAbs(t) {
				cur = fs.root
				comps = append(components(t), rest...)
			} else {
				comps = append(components("/"+t), rest...)
			}
			i = 0
			continue
		}
		cur = child
		i++
	}
}

// walkParent resolves the directory containing p and returns it along
// with the base name. When the directory routes into a mounted file
// system, the delegation target includes the base. The caller must hold
// fs.mu.
func (fs *MemFS) walkParent(p string) (dir *node, base string, deleg walkTarget, err error) {
	clean, err := Clean(p)
	if err != nil {
		return nil, "", walkTarget{}, err
	}
	if clean == "/" {
		return nil, "", walkTarget{}, ErrInvalid
	}
	dirPath, base := Split(clean)
	t, err := fs.walk(dirPath, true)
	if err != nil {
		return nil, "", walkTarget{}, err
	}
	if t.fs != nil {
		return nil, "", walkTarget{fs: t.fs, rest: Join(t.rest, base)}, nil
	}
	if !t.n.isDir() {
		return nil, "", walkTarget{}, ErrNotDir
	}
	// The parent directory may itself be a mount point.
	if m, ok := fs.mounts[t.n.ino]; ok {
		return nil, "", walkTarget{fs: m, rest: "/" + base}, nil
	}
	return t.n, base, walkTarget{}, nil
}

// Mkdir creates a directory. The parent must exist.
func (fs *MemFS) Mkdir(p string) error {
	fs.stats.Mkdirs.Add(1)
	fs.mu.Lock()
	dir, base, deleg, err := fs.walkParent(p)
	if err != nil {
		fs.mu.Unlock()
		return pe("mkdir", p, err)
	}
	if deleg.fs != nil {
		fs.mu.Unlock()
		return deleg.fs.Mkdir(deleg.rest)
	}
	defer fs.mu.Unlock()
	if _, ok := dir.children[base]; ok {
		return pe("mkdir", p, ErrExist)
	}
	fs.addChild(dir, &node{
		ino:      fs.allocIno(),
		typ:      TypeDir,
		name:     base,
		children: make(map[string]*node),
		modTime:  fs.now(),
	})
	return nil
}

// MkdirAll creates a directory and any missing parents. It succeeds if
// the directory already exists.
func (fs *MemFS) MkdirAll(p string) error {
	clean, err := Clean(p)
	if err != nil {
		return pe("mkdir", p, err)
	}
	if clean == "/" {
		return nil
	}
	// Walk down creating as needed; delegate on mounts.
	comps := components(clean)
	for i := 1; i <= len(comps); i++ {
		prefix := "/" + Join(comps[:i]...)
		fs.mu.Lock()
		t, err := fs.walk(prefix, true)
		fs.mu.Unlock()
		switch {
		case err == nil && t.fs != nil:
			return t.fs.MkdirAll(Join(t.rest, Join(comps[i:]...)))
		case err == nil && t.n.isDir():
			continue
		case err == nil:
			return pe("mkdir", prefix, ErrNotDir)
		default:
			if mkErr := fs.Mkdir(prefix); mkErr != nil {
				return mkErr
			}
		}
	}
	return nil
}

// addChild links child into dir and bumps dir's modification time.
// Caller holds fs.mu.
func (fs *MemFS) addChild(dir, child *node) {
	child.parent = dir
	dir.children[child.name] = child
	dir.modTime = fs.now()
}

// removeChild unlinks child from dir. Caller holds fs.mu.
func (fs *MemFS) removeChild(dir *node, name string) {
	delete(dir.children, name)
	dir.modTime = fs.now()
}

// Create creates or truncates a file and opens it for reading and
// writing.
func (fs *MemFS) Create(p string) (File, error) {
	return fs.OpenFile(p, ORead|OWrite|OCreate|OTrunc)
}

// Open opens a file for reading.
func (fs *MemFS) Open(p string) (File, error) {
	return fs.OpenFile(p, ORead)
}

// OpenFile opens p with the given flags.
func (fs *MemFS) OpenFile(p string, flag int) (File, error) {
	fs.stats.Opens.Add(1)
	if flag&(ORead|OWrite) == 0 {
		return nil, pe("open", p, ErrInvalid)
	}
	fs.mu.Lock()
	t, err := fs.walk(p, true)
	if err == nil && t.fs != nil {
		fs.mu.Unlock()
		return t.fs.OpenFile(t.rest, flag)
	}
	if err != nil {
		if err != ErrNotExist || flag&OCreate == 0 {
			fs.mu.Unlock()
			return nil, pe("open", p, err)
		}
		// Create path: parent must exist.
		dir, base, deleg, perr := fs.walkParent(p)
		if perr != nil {
			fs.mu.Unlock()
			return nil, pe("open", p, perr)
		}
		if deleg.fs != nil {
			fs.mu.Unlock()
			return deleg.fs.OpenFile(deleg.rest, flag)
		}
		if _, exists := dir.children[base]; exists {
			// The final component is a dangling symlink; refuse.
			fs.mu.Unlock()
			return nil, pe("open", p, ErrExist)
		}
		n := &node{
			ino:     fs.allocIno(),
			typ:     TypeFile,
			name:    base,
			modTime: fs.now(),
		}
		fs.addChild(dir, n)
		fs.mu.Unlock()
		return fs.newHandle(n, p, flag), nil
	}
	n := t.n
	if n.isDir() {
		fs.mu.Unlock()
		return nil, pe("open", p, ErrIsDir)
	}
	if flag&OExcl != 0 && flag&OCreate != 0 {
		fs.mu.Unlock()
		return nil, pe("open", p, ErrExist)
	}
	if flag&OTrunc != 0 {
		if flag&OWrite == 0 {
			fs.mu.Unlock()
			return nil, pe("open", p, ErrInvalid)
		}
		n.data = nil
		n.modTime = fs.now()
	}
	fs.mu.Unlock()
	return fs.newHandle(n, p, flag), nil
}

// ReadFile returns the contents of the file at p.
func (fs *MemFS) ReadFile(p string) ([]byte, error) {
	fs.stats.Reads.Add(1)
	fs.mu.RLock()
	t, err := fs.walk(p, true)
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
		return nil, pe("read", p, ErrIsDir)
	}
	out := make([]byte, len(t.n.data))
	copy(out, t.n.data)
	return out, nil
}

// WriteFile creates or replaces the file at p with data.
func (fs *MemFS) WriteFile(p string, data []byte) error {
	fs.stats.Writes.Add(1)
	f, err := fs.OpenFile(p, OWrite|OCreate|OTrunc)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Symlink creates a symbolic link at link pointing to target. The target
// is stored verbatim and resolved lazily, so dangling links are legal.
func (fs *MemFS) Symlink(target, link string) error {
	fs.stats.Symlinks.Add(1)
	if target == "" {
		return pe("symlink", link, ErrInvalid)
	}
	fs.mu.Lock()
	dir, base, deleg, err := fs.walkParent(link)
	if err != nil {
		fs.mu.Unlock()
		return pe("symlink", link, err)
	}
	if deleg.fs != nil {
		fs.mu.Unlock()
		return deleg.fs.Symlink(target, deleg.rest)
	}
	defer fs.mu.Unlock()
	if _, ok := dir.children[base]; ok {
		return pe("symlink", link, ErrExist)
	}
	fs.addChild(dir, &node{
		ino:     fs.allocIno(),
		typ:     TypeSymlink,
		name:    base,
		target:  target,
		modTime: fs.now(),
	})
	return nil
}

// Readlink returns the target of the symlink at p.
func (fs *MemFS) Readlink(p string) (string, error) {
	fs.mu.RLock()
	t, err := fs.walk(p, false)
	if err != nil {
		fs.mu.RUnlock()
		return "", pe("readlink", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		return t.fs.Readlink(t.rest)
	}
	defer fs.mu.RUnlock()
	if t.n.typ != TypeSymlink {
		return "", pe("readlink", p, ErrInvalid)
	}
	return t.n.target, nil
}

// Remove deletes the object at p. Directories must be empty. Symlinks
// are removed, not followed. Mount points cannot be removed.
func (fs *MemFS) Remove(p string) error {
	fs.stats.Removes.Add(1)
	fs.mu.Lock()
	dir, base, deleg, err := fs.walkParent(p)
	if err != nil {
		fs.mu.Unlock()
		return pe("remove", p, err)
	}
	if deleg.fs != nil {
		fs.mu.Unlock()
		return deleg.fs.Remove(deleg.rest)
	}
	defer fs.mu.Unlock()
	n, ok := dir.children[base]
	if !ok {
		return pe("remove", p, ErrNotExist)
	}
	if _, mounted := fs.mounts[n.ino]; mounted {
		return pe("remove", p, ErrBusy)
	}
	if n.isDir() && len(n.children) > 0 {
		return pe("remove", p, ErrNotEmpty)
	}
	fs.removeChild(dir, base)
	return nil
}

// RemoveAll deletes the object at p and, for directories, everything
// beneath it. Removing a non-existent path is not an error. Subtrees
// containing mount points are refused.
func (fs *MemFS) RemoveAll(p string) error {
	fs.stats.Removes.Add(1)
	clean, err := Clean(p)
	if err != nil {
		return pe("removeall", p, err)
	}
	if clean == "/" {
		return pe("removeall", p, ErrInvalid)
	}
	fs.mu.Lock()
	dir, base, deleg, err := fs.walkParent(clean)
	if err != nil {
		fs.mu.Unlock()
		if err == ErrNotExist {
			return nil
		}
		return pe("removeall", p, err)
	}
	if deleg.fs != nil {
		fs.mu.Unlock()
		return deleg.fs.RemoveAll(deleg.rest)
	}
	defer fs.mu.Unlock()
	n, ok := dir.children[base]
	if !ok {
		return nil
	}
	if fs.subtreeHasMount(n) {
		return pe("removeall", p, ErrBusy)
	}
	fs.removeChild(dir, base)
	return nil
}

func (fs *MemFS) subtreeHasMount(n *node) bool {
	if _, ok := fs.mounts[n.ino]; ok {
		return true
	}
	for _, c := range n.children {
		if c.isDir() && fs.subtreeHasMount(c) {
			return true
		}
	}
	return false
}

// Rename moves the object at oldPath to newPath. Following POSIX
// rename: an existing empty directory or file at newPath is replaced;
// a directory cannot be moved into its own subtree; renames may not
// cross mount points.
func (fs *MemFS) Rename(oldPath, newPath string) error {
	fs.stats.Renames.Add(1)
	fs.mu.Lock()
	defer fs.mu.Unlock()

	oldDir, oldBase, oldDeleg, err := fs.walkParent(oldPath)
	if err != nil {
		return pe("rename", oldPath, err)
	}
	newDir, newBase, newDeleg, err := fs.walkParent(newPath)
	if err != nil {
		return pe("rename", newPath, err)
	}
	if oldDeleg.fs != nil || newDeleg.fs != nil {
		if oldDeleg.fs != nil && oldDeleg.fs == newDeleg.fs {
			m := oldDeleg.fs
			fs.mu.Unlock()
			err := m.Rename(oldDeleg.rest, newDeleg.rest)
			fs.mu.Lock()
			return err
		}
		return pe("rename", oldPath, ErrCrossMount)
	}
	src, ok := oldDir.children[oldBase]
	if !ok {
		return pe("rename", oldPath, ErrNotExist)
	}
	if _, mounted := fs.mounts[src.ino]; mounted {
		return pe("rename", oldPath, ErrBusy)
	}
	// Refuse to move a directory under itself.
	if src.isDir() {
		for d := newDir; d != nil; d = d.parent {
			if d == src {
				return pe("rename", newPath, ErrInvalid)
			}
		}
	}
	if dst, exists := newDir.children[newBase]; exists {
		if dst == src {
			return nil // rename to itself
		}
		switch {
		case dst.isDir() && !src.isDir():
			return pe("rename", newPath, ErrIsDir)
		case !dst.isDir() && src.isDir():
			return pe("rename", newPath, ErrNotDir)
		case dst.isDir() && len(dst.children) > 0:
			return pe("rename", newPath, ErrNotEmpty)
		}
		if _, mounted := fs.mounts[dst.ino]; mounted {
			return pe("rename", newPath, ErrBusy)
		}
		fs.removeChild(newDir, newBase)
	}
	fs.removeChild(oldDir, oldBase)
	src.name = newBase
	fs.addChild(newDir, src)
	src.modTime = fs.now()
	return nil
}

// Stat returns metadata for p, following symlinks.
func (fs *MemFS) Stat(p string) (Info, error) {
	fs.stats.Stats.Add(1)
	fs.mu.RLock()
	t, err := fs.walk(p, true)
	if err != nil {
		fs.mu.RUnlock()
		return Info{}, pe("stat", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		return t.fs.Stat(t.rest)
	}
	defer fs.mu.RUnlock()
	return t.n.info(), nil
}

// Lstat returns metadata for p without following a final symlink.
func (fs *MemFS) Lstat(p string) (Info, error) {
	fs.stats.Stats.Add(1)
	fs.mu.RLock()
	t, err := fs.walk(p, false)
	if err != nil {
		fs.mu.RUnlock()
		return Info{}, pe("lstat", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		if t.rest == "/" {
			return MountRoot(t.fs, Base(p))
		}
		return t.fs.Lstat(t.rest)
	}
	defer fs.mu.RUnlock()
	return t.n.info(), nil
}

// ReadDir lists the directory at p in name order, each entry its
// Lstat answer.
func (fs *MemFS) ReadDir(p string) ([]DirEntry, error) {
	fs.stats.ReadDirs.Add(1)
	fs.mu.RLock()
	t, err := fs.walk(p, true)
	if err != nil {
		fs.mu.RUnlock()
		return nil, pe("readdir", p, err)
	}
	if t.fs != nil {
		fs.mu.RUnlock()
		return t.fs.ReadDir(t.rest)
	}
	if !t.n.isDir() {
		fs.mu.RUnlock()
		return nil, pe("readdir", p, ErrNotDir)
	}
	kids := make([]*node, 0, len(t.n.children))
	for _, c := range t.n.children {
		kids = append(kids, c)
	}
	slices.SortFunc(kids, func(a, b *node) int { return strings.Compare(a.name, b.name) })
	out := make([]DirEntry, len(kids))
	var mounted []Mounted
	for i, c := range kids {
		out[i] = c.info()
		if m, ok := fs.mounts[c.ino]; ok {
			mounted = append(mounted, Mounted{Index: i, FS: m})
		}
	}
	fs.mu.RUnlock()
	if err := FillMounted(out, mounted); err != nil {
		return nil, err
	}
	return out, nil
}

// Mount attaches m at the directory p; subsequent lookups under p are
// served by m. The directory's previous contents become invisible until
// Unmount, as with UNIX mounts.
func (fs *MemFS) Mount(p string, m FileSystem) error {
	if m == nil || m == FileSystem(fs) {
		return pe("mount", p, ErrInvalid)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookupNoMount(p)
	if err != nil {
		return pe("mount", p, err)
	}
	if !n.isDir() {
		return pe("mount", p, ErrNotDir)
	}
	if _, ok := fs.mounts[n.ino]; ok {
		return pe("mount", p, ErrBusy)
	}
	fs.mounts[n.ino] = m
	return nil
}

// lookupNoMount resolves p strictly within this file system: crossing an
// intermediate mount point is an error and a final mount point resolves
// to the local directory underneath it. Symlinks are not followed. Used
// by Mount and Unmount, whose targets must be local. Caller holds fs.mu.
func (fs *MemFS) lookupNoMount(p string) (*node, error) {
	clean, err := Clean(p)
	if err != nil {
		return nil, err
	}
	cur := fs.root
	for _, c := range components(clean) {
		if _, ok := fs.mounts[cur.ino]; ok {
			return nil, ErrCrossMount
		}
		if !cur.isDir() {
			return nil, ErrNotDir
		}
		next, ok := cur.children[c]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// Unmount detaches the file system mounted at p.
func (fs *MemFS) Unmount(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookupNoMount(p)
	if err != nil {
		return pe("unmount", p, err)
	}
	if _, ok := fs.mounts[n.ino]; !ok {
		return pe("unmount", p, ErrInvalid)
	}
	delete(fs.mounts, n.ino)
	return nil
}
