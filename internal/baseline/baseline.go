// Package baseline re-implements, in simplified form, the two
// user-level file systems the paper compares HAC against in Table 2:
//
//   - Jade (Rao & Peterson): a logical name space resolved in user
//     space on top of physical file systems. JadeFS reproduces the
//     mechanism that costs Jade its overhead — per-component pathname
//     resolution through a user-level logical-name table with a
//     directory cache.
//
//   - Pseudo-file-systems (Welch & Ousterhout, Sprite): every operation
//     is forwarded as a message to a user-level server process. PseudoFS
//     reproduces that shape — each call is marshalled into a request,
//     handed to a server goroutine over a channel, executed there, and
//     the reply marshalled back.
//
// Both implement vfs.FileSystem, so the Andrew harness measures them
// exactly as it measures HAC and the raw substrate.
package baseline

import (
	"sync"

	"hacfs/internal/vfs"
)

// JadeFS layers a user-level logical name space over a substrate.
// Every path is resolved component by component against the logical
// prefix table and validated against the substrate, with a small
// resolution cache — the Jade mechanism.
type JadeFS struct {
	under vfs.FileSystem

	mu sync.Mutex
	// logical prefix → physical prefix; the identity mapping for "/" is
	// always present, and users may graft other file systems in.
	table map[string]string
	// resolution cache: logical directory → physical directory.
	cache    map[string]string
	cacheCap int
}

var _ vfs.FileSystem = (*JadeFS)(nil)

// NewJade returns a Jade-style layer over under. Resolution caching is
// off by default — Jade resolves every pathname in user space; call
// EnableCache to add a per-directory resolution cache.
func NewJade(under vfs.FileSystem) *JadeFS {
	return &JadeFS{
		under: under,
		table: map[string]string{"/": "/"},
	}
}

// EnableCache turns on the per-directory resolution cache with the
// given capacity.
func (j *JadeFS) EnableCache(capacity int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cacheCap = capacity
	j.cache = make(map[string]string, capacity)
}

// Graft maps the logical prefix onto a physical prefix, like attaching
// another file system to Jade's logical name space.
func (j *JadeFS) Graft(logical, physical string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.table[logical] = physical
	if j.cache != nil {
		j.cache = make(map[string]string, j.cacheCap)
	}
}

// resolve maps a logical path to a physical one: its directory through
// resolveDir, then its base name.
func (j *JadeFS) resolve(logical string) (string, error) {
	clean, err := vfs.Clean(logical)
	if err != nil {
		return "", err
	}
	dir, base := vfs.Split(clean)
	phys, err := j.resolveDir(dir)
	if err != nil || base == "" {
		return phys, err
	}
	return vfs.Join(phys, base), nil
}

// resolveDir maps a clean logical directory to a physical one, walking
// components through the prefix table. Intermediate directories are
// validated against the substrate (that is where Jade pays its
// overhead); results are cached per directory.
func (j *JadeFS) resolveDir(dir string) (string, error) {
	j.mu.Lock()
	if j.cache != nil {
		if phys, ok := j.cache[dir]; ok {
			j.mu.Unlock()
			return phys, nil
		}
	}
	j.mu.Unlock()

	// Longest-prefix match in the logical table.
	j.mu.Lock()
	bestLogical, bestPhysical := "/", "/"
	for lp, pp := range j.table {
		if vfs.HasPrefix(dir, lp) && len(lp) > len(bestLogical) {
			bestLogical, bestPhysical = lp, pp
		}
	}
	j.mu.Unlock()

	// Per-component validation from the graft point down.
	rest := dir[len(bestLogical):]
	phys := bestPhysical
	for _, c := range splitComponents(rest) {
		phys = vfs.Join(phys, c)
		if _, err := j.under.Lstat(phys); err != nil {
			return "", err
		}
	}
	j.mu.Lock()
	if j.cache != nil {
		if len(j.cache) >= j.cacheCap {
			for k := range j.cache {
				delete(j.cache, k)
				break
			}
		}
		j.cache[dir] = phys
	}
	j.mu.Unlock()
	return phys, nil
}

// invalidate drops cache entries under a logical path after mutations.
func (j *JadeFS) invalidate(logical string) {
	clean, err := vfs.Clean(logical)
	if err != nil {
		return
	}
	j.mu.Lock()
	for k := range j.cache {
		if vfs.HasPrefix(k, clean) {
			delete(j.cache, k)
		}
	}
	j.mu.Unlock()
}

func splitComponents(p string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			if i > start {
				out = append(out, p[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// Mkdir creates a directory.
func (j *JadeFS) Mkdir(path string) error {
	p, err := j.resolve(path)
	if err != nil {
		return err
	}
	return j.under.Mkdir(p)
}

// MkdirAll creates a directory and missing parents.
func (j *JadeFS) MkdirAll(path string) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return err
	}
	// Component-wise so each level passes through resolution.
	cur := "/"
	for _, c := range splitComponents(clean) {
		cur = vfs.Join(cur, c)
		p, err := j.resolve(cur)
		if err != nil {
			return err
		}
		if mkErr := j.under.Mkdir(p); mkErr != nil {
			if _, statErr := j.under.Stat(p); statErr != nil {
				return mkErr
			}
		}
	}
	return nil
}

// Create creates or truncates a file.
func (j *JadeFS) Create(path string) (vfs.File, error) {
	p, err := j.resolve(path)
	if err != nil {
		return nil, err
	}
	return j.under.Create(p)
}

// Open opens a file for reading.
func (j *JadeFS) Open(path string) (vfs.File, error) {
	p, err := j.resolve(path)
	if err != nil {
		return nil, err
	}
	return j.under.Open(p)
}

// OpenFile opens a file with flags.
func (j *JadeFS) OpenFile(path string, flag int) (vfs.File, error) {
	p, err := j.resolve(path)
	if err != nil {
		return nil, err
	}
	return j.under.OpenFile(p, flag)
}

// ReadFile reads a whole file.
func (j *JadeFS) ReadFile(path string) ([]byte, error) {
	p, err := j.resolve(path)
	if err != nil {
		return nil, err
	}
	return j.under.ReadFile(p)
}

// WriteFile writes a whole file.
func (j *JadeFS) WriteFile(path string, data []byte) error {
	p, err := j.resolve(path)
	if err != nil {
		return err
	}
	return j.under.WriteFile(p, data)
}

// Symlink creates a symbolic link.
func (j *JadeFS) Symlink(target, link string) error {
	p, err := j.resolve(link)
	if err != nil {
		return err
	}
	return j.under.Symlink(target, p)
}

// Readlink reads a symbolic link.
func (j *JadeFS) Readlink(path string) (string, error) {
	p, err := j.resolve(path)
	if err != nil {
		return "", err
	}
	return j.under.Readlink(p)
}

// Remove deletes one object.
func (j *JadeFS) Remove(path string) error {
	p, err := j.resolve(path)
	if err != nil {
		return err
	}
	j.invalidate(path)
	return j.under.Remove(p)
}

// RemoveAll deletes a subtree.
func (j *JadeFS) RemoveAll(path string) error {
	p, err := j.resolve(path)
	if err != nil {
		return err
	}
	j.invalidate(path)
	return j.under.RemoveAll(p)
}

// Rename moves an object.
func (j *JadeFS) Rename(oldPath, newPath string) error {
	po, err := j.resolve(oldPath)
	if err != nil {
		return err
	}
	pn, err := j.resolve(newPath)
	if err != nil {
		return err
	}
	j.invalidate(oldPath)
	j.invalidate(newPath)
	return j.under.Rename(po, pn)
}

// Stat returns metadata, following symlinks.
func (j *JadeFS) Stat(path string) (vfs.Info, error) {
	p, err := j.resolve(path)
	if err != nil {
		return vfs.Info{}, err
	}
	return j.under.Stat(p)
}

// Lstat returns metadata without following a final symlink.
func (j *JadeFS) Lstat(path string) (vfs.Info, error) {
	p, err := j.resolve(path)
	if err != nil {
		return vfs.Info{}, err
	}
	return j.under.Lstat(p)
}

// ReadDir lists a directory. The directory itself is resolved, as the
// names in it are, so a graft point lists its graft and each entry
// stays the child's Lstat answer.
func (j *JadeFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	clean, err := vfs.Clean(path)
	if err != nil {
		return nil, err
	}
	p, err := j.resolveDir(clean)
	if err != nil {
		return nil, err
	}
	return j.under.ReadDir(p)
}
