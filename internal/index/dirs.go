package index

import (
	gopath "path"

	"hacfs/internal/bitset"
)

// Composite path-prefix × term index. Each segment keeps, for every
// proper ancestor directory of its document paths (the root "/"
// excluded — it would mirror the whole segment), the compressed set of
// local slots beneath it. A dir:-scoped lookup then intersects one
// container with one posting container instead of scanning every doc
// entry's path, and a segment whose dirs map lacks the scope root is
// skipped wholesale — the "scope-first pruning" the planner's cost
// model depends on (DESIGN.md §11).
//
// Maintenance mirrors the docs slice: slots are added at commit, moved
// on rename, and left in place on tombstone (the dead set filters
// them at query time, exactly as it filters postings).

// eachAncestorDir visits every proper ancestor directory of path except
// "/": for "/a/b/c.txt" it visits "/a" then "/a/b".
func eachAncestorDir(path string, fn func(dir string)) {
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			fn(path[:i])
		}
	}
}

// dirsAdd records that local lives at path. Caller holds ix.mu.
func (s *segment) dirsAdd(path string, local uint32) {
	eachAncestorDir(path, func(dir string) {
		c, ok := s.dirs[dir]
		if !ok {
			c = bitset.NewContainer()
			s.dirs[dir] = c
		}
		c.Add(local)
	})
}

// dirsRemove drops local from path's ancestor containers. Caller holds
// ix.mu.
func (s *segment) dirsRemove(path string, local uint32) {
	eachAncestorDir(path, func(dir string) {
		if c, ok := s.dirs[dir]; ok {
			c.Remove(local)
			if !c.Any() {
				delete(s.dirs, dir)
			}
		}
	})
}

// dirsRename moves local between ancestor chains. Caller holds ix.mu.
func (s *segment) dirsRename(oldPath, newPath string, local uint32) {
	if oldPath == newPath {
		return
	}
	s.dirsRemove(oldPath, local)
	s.dirsAdd(newPath, local)
}

// packDirs re-selects the cheapest representation for every container;
// called once when a segment seals or installs, after which the map is
// read-mostly.
func (s *segment) packDirs() {
	for _, c := range s.dirs {
		c.Pack()
	}
}

// underLocked returns the local slots of s beneath root (alive or
// dead; the caller applies the dead mask), or nil when none. For a
// non-"/" root this is one map probe plus, when the root itself names
// an indexed file, one byPath check. The returned container is shared;
// callers must clone before mutating. Caller holds ix.mu.
func (ix *Index) underLocked(s *segment, root string) *bitset.Container {
	c := s.dirs[root]
	// vfs.HasPrefix(p, root) also matches p == root: a file path used as
	// a scope selects the file itself.
	if id, ok := ix.byPath[root]; ok {
		if rs, local, ok := ix.resolveLocked(id); ok && rs == s {
			self := bitset.ContainerOf(local)
			if c != nil {
				self.Or(c)
			}
			return self
		}
	}
	return c
}

// DocsUnderCount returns how many live documents lie beneath root,
// without materializing the set — the planner's selectivity probe for
// scope pushdown.
func (ix *Index) DocsUnderCount(root string) int {
	root = gopath.Clean(root)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if root == "/" {
		return ix.liveDocs
	}
	n := 0
	ix.eachSegmentLocked(func(s *segment) {
		if c := ix.underLocked(s, root); c != nil {
			if s.deadCount == 0 {
				n += c.Len()
			} else {
				live := c.Clone()
				live.AndNot(s.dead)
				n += live.Len()
			}
		}
	})
	return n
}
