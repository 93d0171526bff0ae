// Package vfs implements the hierarchical file system substrate that HAC
// is layered on. The paper built HAC as a user-level library over SunOS;
// here the role of SunOS is played by MemFS, an in-memory POSIX-like
// tree with directories, regular files, symbolic links, rename, and
// syntactic mount points.
//
// Everything above this package talks to the FileSystem interface, so
// the raw substrate ("UNIX" in the paper's tables), the HAC layer, and
// the Jade/Pseudo baseline layers are interchangeable under the Andrew
// benchmark.
//
// All paths are absolute, slash-separated, and interpreted relative to
// the file system root; callers that need a working directory (such as
// the hacsh shell) join it before calling in.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// NodeType distinguishes the three kinds of file system objects.
type NodeType uint8

// The node types.
const (
	TypeFile NodeType = iota
	TypeDir
	TypeSymlink
)

// String returns a short human-readable type name.
func (t NodeType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("NodeType(%d)", uint8(t))
	}
}

// Sentinel errors, comparable with errors.Is.
var (
	ErrNotExist    = errors.New("file does not exist")
	ErrExist       = errors.New("file already exists")
	ErrNotDir      = errors.New("not a directory")
	ErrIsDir       = errors.New("is a directory")
	ErrNotEmpty    = errors.New("directory not empty")
	ErrInvalid     = errors.New("invalid argument")
	ErrLoop        = errors.New("too many levels of symbolic links")
	ErrCrossMount  = errors.New("operation crosses a mount point")
	ErrClosed      = errors.New("file already closed")
	ErrReadOnly    = errors.New("file handle not open for writing")
	ErrWriteOnly   = errors.New("file handle not open for reading")
	ErrBusy        = errors.New("resource busy")
	ErrUnsupported = errors.New("operation not supported")
	// ErrQuotaExceeded rejects a write that would push a tenant's volume
	// past its configured byte or document quota (DESIGN.md §12). The
	// serving layer wraps it in a *PathError naming the write.
	ErrQuotaExceeded = errors.New("tenant quota exceeded")
	// ErrBackpressure rejects a request at admission because the tenant
	// already has its configured maximum of requests in flight; clients
	// should back off and retry.
	ErrBackpressure = errors.New("tenant over in-flight limit, retry later")
	// ErrShuttingDown rejects a request admitted while the server drains
	// for shutdown.
	ErrShuttingDown = errors.New("server shutting down")
	// ErrCorruptVolume marks a persisted image — a volume, an index, or
	// one index segment block — that is truncated, bit-flipped,
	// version-skewed or otherwise undecodable. It lives here so both the
	// hac and index layers can wrap the same sentinel without an import
	// cycle; hac.ErrCorruptVolume aliases it.
	ErrCorruptVolume = errors.New("corrupt volume image")
	// ErrShardUnavailable marks a cluster operation that could not reach
	// any replica of a required index shard (DESIGN.md §14). The
	// coordinator wraps it in a *PathError naming the shard; a search run
	// in partial-result mode suppresses it and annotates the plan
	// instead.
	ErrShardUnavailable = errors.New("index shard unavailable")
)

// PathError records the operation and path that caused an error, in the
// style of os.PathError.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap supports errors.Is on the underlying sentinel.
func (e *PathError) Unwrap() error { return e.Err }

func pe(op, path string, err error) error { return &PathError{Op: op, Path: path, Err: err} }

// Info describes a file system object, as returned by Stat and Lstat.
type Info struct {
	Name    string    // base name
	Ino     uint64    // stable node identifier, unique within one MemFS
	Type    NodeType  // file, dir or symlink
	Size    int64     // content length for files, 0 otherwise
	ModTime time.Time // last modification time
	Target  string    // symlink target (Lstat only)
}

// IsDir reports whether the object is a directory.
func (i Info) IsDir() bool { return i.Type == TypeDir }

// DirEntry is one entry of a directory listing: the entry's Lstat
// answer (see FileSystem.ReadDir). It is an alias, so the two are one
// type.
type DirEntry = Info

// File is an open file handle. Handles are not safe for concurrent use;
// the file system underneath is.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	io.ReaderAt
	io.WriterAt
	// Truncate changes the file size.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
	// Stat returns current metadata for the open file.
	Stat() (Info, error)
}

// Open flags, a minimal POSIX-like subset.
const (
	ORead   = 1 << iota // open for reading
	OWrite              // open for writing
	OCreate             // create if missing
	OTrunc              // truncate on open
	OAppend             // writes always append
	OExcl               // with OCreate: fail if the file exists
)

// FileSystem is the operation set shared by the raw substrate, the HAC
// layer and the baseline layers. It is deliberately the surface the
// paper's HAC library interposes on.
type FileSystem interface {
	Mkdir(path string) error
	MkdirAll(path string) error
	Create(path string) (File, error)
	Open(path string) (File, error)
	OpenFile(path string, flag int) (File, error)
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte) error
	Symlink(target, link string) error
	Readlink(path string) (string, error)
	Remove(path string) error
	RemoveAll(path string) error
	Rename(oldPath, newPath string) error
	Stat(path string) (Info, error)
	Lstat(path string) (Info, error)
	// ReadDir lists the directory at path, following symlinks. Entries
	// are in name order, and each one equals Lstat(Join(path,
	// entry.Name)) as the listing's moment saw it, so a tree walk reads
	// one listing per directory and no Lstat per object (Walk). A mount
	// point's entry is the mounted file system's root under the mount
	// point's name (MountRoot).
	ReadDir(path string) ([]DirEntry, error)
}

// MountRoot is the Lstat answer for a syntactic mount point named
// name: the mounted file system's root, under the mount point's name.
func MountRoot(m FileSystem, name string) (Info, error) {
	info, err := m.Lstat("/")
	info.Name = name
	return info, err
}

// Mounted marks the entry at Index of a listing as a mount point of FS.
type Mounted struct {
	Index int
	FS    FileSystem
}

// FillMounted replaces each marked entry of a listing with its
// MountRoot. A lister calls it after releasing its own lock, so the
// mounted file system answers outside it.
func FillMounted(entries []DirEntry, at []Mounted) error {
	for _, m := range at {
		info, err := MountRoot(m.FS, entries[m.Index].Name)
		if err != nil {
			return err
		}
		entries[m.Index] = info
	}
	return nil
}

// node is one object in the tree. Access is guarded by the owning
// MemFS's mutex.
type node struct {
	ino     uint64
	typ     NodeType
	name    string
	parent  *node
	modTime time.Time

	children map[string]*node // directories
	data     []byte           // regular files
	target   string           // symlinks
}

func (n *node) isDir() bool { return n.typ == TypeDir }

func (n *node) info() Info {
	inf := Info{
		Name:    n.name,
		Ino:     n.ino,
		Type:    n.typ,
		ModTime: n.modTime,
	}
	switch n.typ {
	case TypeFile:
		inf.Size = int64(len(n.data))
	case TypeSymlink:
		inf.Target = n.target
	}
	return inf
}

// path reconstructs the absolute path of n by walking parents.
func (n *node) path() string {
	if n.parent == nil {
		return "/"
	}
	var parts []string
	for cur := n; cur.parent != nil; cur = cur.parent {
		parts = append(parts, cur.name)
	}
	buf := make([]byte, 0, 64)
	for i := len(parts) - 1; i >= 0; i-- {
		buf = append(buf, '/')
		buf = append(buf, parts[i]...)
	}
	return string(buf)
}
