package cas

import (
	"io"

	"hacfs/internal/vfs"
)

// chandle is an open file on a cas.FS node. Reads see the node's
// current content (sealed or buffered); the first write through a
// handle converts the node's content to a mutable buffer that is
// sealed back into the store on Close or at the next manifest
// materialization.
type chandle struct {
	fs     *FS
	n      *inode
	name   string
	flag   int
	off    int64
	closed bool
}

// newHandle opens a handle on n. Caller holds fs.mu, so that no removal
// releases n's content before the handle counts.
func (fs *FS) newHandle(n *inode, name string, flag int) *chandle {
	n.opens.Add(1)
	return &chandle{fs: fs, n: n, name: name, flag: flag}
}

// rebind moves the handle onto node n.
func (h *chandle) rebind(n *inode) {
	h.n.opens.Add(-1)
	n.opens.Add(1)
	h.n = n
}

var _ vfs.File = (*chandle)(nil)

func (h *chandle) Name() string { return h.name }

func (h *chandle) checkOpen() error {
	if h.closed {
		return pe("file", h.name, vfs.ErrClosed)
	}
	return nil
}

// ensureMutable makes the handle's node writable under the current
// overlay. A node sealed since the handle opened is re-resolved by
// path and copied-on-write; if the path no longer leads to it (renamed
// or removed after a seal) the handle degrades to a private copy, like
// writing an unlinked file. An unlinked node is in no tree: it is
// written in place. Caller holds fs.mu for writing.
func (h *chandle) ensureMutable() *inode {
	fs := h.fs
	if h.n.unlinked || h.n.gen == fs.gen {
		return h.n
	}
	if t, err := fs.walk(h.name, followAll, withTrail); err == nil && t.fs == nil && t.n.id == h.n.id {
		h.rebind(fs.cow(t.trail))
		return h.n
	}
	c := fs.copyNode(h.n)
	c.unlinked = true
	h.rebind(c)
	return h.n
}

// beginWrite prepares the node's dirty buffer. Caller holds fs.mu for
// writing.
func (h *chandle) beginWrite() *inode {
	n := h.ensureMutable()
	if !n.hasDirty {
		data := h.fs.content(n)
		buf := make([]byte, len(data))
		copy(buf, data)
		if n.owned && n.hasHash {
			h.fs.store.Unref(n.hash)
		}
		n.hash, n.hasHash, n.owned = Hash{}, false, false
		n.dirty, n.hasDirty = buf, true
		if !n.unlinked {
			h.fs.dirtyFiles[n] = true
		}
	}
	return n
}

// Read reads from the current offset.
func (h *chandle) Read(p []byte) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	if h.flag&vfs.ORead == 0 {
		return 0, pe("read", h.name, vfs.ErrWriteOnly)
	}
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	data := h.fs.content(h.n)
	if h.off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[h.off:])
	h.off += int64(n)
	return n, nil
}

// ReadAt reads len(p) bytes at offset off without moving the handle
// offset.
func (h *chandle) ReadAt(p []byte, off int64) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	if h.flag&vfs.ORead == 0 {
		return 0, pe("read", h.name, vfs.ErrWriteOnly)
	}
	if off < 0 {
		return 0, pe("read", h.name, vfs.ErrInvalid)
	}
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	data := h.fs.content(h.n)
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write writes at the current offset (or at the end with OAppend),
// extending the file as needed.
func (h *chandle) Write(p []byte) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	if h.flag&vfs.OWrite == 0 {
		return 0, pe("write", h.name, vfs.ErrReadOnly)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n := h.beginWrite()
	if h.flag&vfs.OAppend != 0 {
		h.off = int64(len(n.dirty))
	}
	h.writeAtLocked(n, p, h.off)
	h.off += int64(len(p))
	return len(p), nil
}

// WriteAt writes at offset off without moving the handle offset.
func (h *chandle) WriteAt(p []byte, off int64) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	if h.flag&vfs.OWrite == 0 {
		return 0, pe("write", h.name, vfs.ErrReadOnly)
	}
	if off < 0 {
		return 0, pe("write", h.name, vfs.ErrInvalid)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n := h.beginWrite()
	h.writeAtLocked(n, p, off)
	return len(p), nil
}

// writeAtLocked performs the copy into the dirty buffer; caller holds
// fs.mu.
func (h *chandle) writeAtLocked(n *inode, p []byte, off int64) {
	end := off + int64(len(p))
	if end > int64(len(n.dirty)) {
		grown := make([]byte, end)
		copy(grown, n.dirty)
		n.dirty = grown
	}
	copy(n.dirty[off:], p)
	n.modTime = h.fs.now()
}

// Seek implements io.Seeker.
func (h *chandle) Seek(offset int64, whence int) (int64, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = h.off
	case io.SeekEnd:
		base = int64(len(h.fs.content(h.n)))
	default:
		return 0, pe("seek", h.name, vfs.ErrInvalid)
	}
	next := base + offset
	if next < 0 {
		return 0, pe("seek", h.name, vfs.ErrInvalid)
	}
	h.off = next
	return next, nil
}

// Truncate resizes the file, zero-filling on growth.
func (h *chandle) Truncate(size int64) error {
	if err := h.checkOpen(); err != nil {
		return err
	}
	if h.flag&vfs.OWrite == 0 {
		return pe("truncate", h.name, vfs.ErrReadOnly)
	}
	if size < 0 {
		return pe("truncate", h.name, vfs.ErrInvalid)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n := h.beginWrite()
	switch {
	case size <= int64(len(n.dirty)):
		n.dirty = n.dirty[:size]
	default:
		grown := make([]byte, size)
		copy(grown, n.dirty)
		n.dirty = grown
	}
	n.modTime = h.fs.now()
	return nil
}

// Stat returns current metadata for the open node.
func (h *chandle) Stat() (vfs.Info, error) {
	if err := h.checkOpen(); err != nil {
		return vfs.Info{}, err
	}
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	return h.n.info(), nil
}

// Close seals any buffered writes back into the store and releases the
// handle. The last handle on an unlinked node releases its content.
// Double close returns ErrClosed.
func (h *chandle) Close() error {
	if h.closed {
		return pe("close", h.name, vfs.ErrClosed)
	}
	h.closed = true
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	// Only overlay buffers in the tree are sealed; an unlinked node's
	// content dies with its last handle, and a node frozen since the last
	// write was already flushed by the seal.
	n := h.n
	if !n.unlinked && n.gen == h.fs.gen && n.hasDirty {
		h.fs.flush(n)
	}
	if n.opens.Add(-1) == 0 && n.unlinked {
		h.fs.dropContent(n)
	}
	return nil
}
