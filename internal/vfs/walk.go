package vfs

import (
	"errors"
	"sort"
)

// SkipDir can be returned by a WalkFunc to skip the current directory's
// contents.
var SkipDir = errors.New("skip this directory")

// WalkFunc is called once per visited object. Symlinks are reported but
// never followed, so walks terminate even on cyclic link structures.
type WalkFunc func(path string, info Info) error

// Walk traverses the tree rooted at root in depth-first, name-sorted
// order, calling fn for every object including root itself. It works on
// any FileSystem, crossing syntactic mount points transparently
// (ReadDir on a mount point lists the mounted file system).
//
// Walk lstats root only. Every other object's Info is its entry in its
// directory's listing, which the ReadDir contract makes its Lstat answer
// in name order, so a walk costs one ReadDir per directory and nothing
// per file. A directory removed or replaced by a file between its
// parent's listing and its own is skipped; one replaced by a symlink to
// a directory is listed through the link, as ReadDir follows it. Any
// other failure ends the walk, because a walk that silently omits an
// existing entry makes incremental consumers (index.SyncTree) treat the
// entry as deleted.
func Walk(fsys FileSystem, root string, fn WalkFunc) error {
	info, err := fsys.Lstat(root)
	if err != nil {
		return err
	}
	clean, err := Clean(root)
	if err != nil {
		return err
	}
	if err := fn(root, info); err != nil || info.Type != TypeDir {
		if err == SkipDir {
			return nil
		}
		return err
	}
	entries, err := fsys.ReadDir(clean)
	if err != nil {
		return err
	}
	return walkDir(fsys, clean, entries, fn)
}

// walkDir visits the listing entries of the clean directory dir and
// descends into the subdirectories among them.
func walkDir(fsys FileSystem, dir string, entries []DirEntry, fn WalkFunc) error {
	prefix := dir + "/"
	if dir == "/" {
		prefix = dir
	}
	for _, e := range entries {
		p := prefix + e.Name
		err := fn(p, e)
		if err == SkipDir || err == nil && e.Type != TypeDir {
			continue
		}
		if err != nil {
			return err
		}
		children, err := fsys.ReadDir(p)
		if errors.Is(err, ErrNotExist) || errors.Is(err, ErrNotDir) {
			continue // removed or replaced by a file since dir was listed
		}
		if err != nil {
			return err
		}
		if err := walkDir(fsys, p, children, fn); err != nil {
			return err
		}
	}
	return nil
}

// Files returns the paths of all regular files under root, sorted.
func Files(fsys FileSystem, root string) ([]string, error) {
	var out []string
	err := Walk(fsys, root, func(p string, info Info) error {
		if info.Type == TypeFile {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// CopyFile copies one file's contents within or across file systems.
func CopyFile(src FileSystem, srcPath string, dst FileSystem, dstPath string) error {
	data, err := src.ReadFile(srcPath)
	if err != nil {
		return err
	}
	return dst.WriteFile(dstPath, data)
}

// CopyTree replicates the tree rooted at srcPath in src under dstPath in
// dst, copying directories, files, and symlinks (targets verbatim).
func CopyTree(src FileSystem, srcPath string, dst FileSystem, dstPath string) error {
	return Walk(src, srcPath, func(p string, info Info) error {
		rel := p[len(srcPath):]
		target := Join(dstPath, rel)
		switch info.Type {
		case TypeDir:
			return dst.MkdirAll(target)
		case TypeSymlink:
			return dst.Symlink(info.Target, target)
		default:
			return CopyFile(src, p, dst, target)
		}
	})
}
