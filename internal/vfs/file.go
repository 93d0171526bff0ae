package vfs

import "io"

// handle is an open file on a MemFS node. A node removed while a handle
// is open keeps its content for the handle, as an unlinked file does.
type handle struct {
	fs     *MemFS
	n      *node
	name   string
	flag   int
	off    int64
	closed bool
}

func (fs *MemFS) newHandle(n *node, name string, flag int) *handle {
	return &handle{fs: fs, n: n, name: name, flag: flag}
}

var _ File = (*handle)(nil)

func (h *handle) Name() string { return h.name }

func (h *handle) checkOpen() error {
	if h.closed {
		return pe("file", h.name, ErrClosed)
	}
	return nil
}

// Read reads from the current offset.
func (h *handle) Read(p []byte) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	if h.flag&ORead == 0 {
		return 0, pe("read", h.name, ErrWriteOnly)
	}
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	if h.off >= int64(len(h.n.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.n.data[h.off:])
	h.off += int64(n)
	return n, nil
}

// ReadAt reads len(p) bytes at offset off without moving the handle
// offset.
func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	if h.flag&ORead == 0 {
		return 0, pe("read", h.name, ErrWriteOnly)
	}
	if off < 0 {
		return 0, pe("read", h.name, ErrInvalid)
	}
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	if off >= int64(len(h.n.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.n.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write writes at the current offset (or at the end with OAppend),
// extending the file as needed.
func (h *handle) Write(p []byte) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	if h.flag&OWrite == 0 {
		return 0, pe("write", h.name, ErrReadOnly)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.flag&OAppend != 0 {
		h.off = int64(len(h.n.data))
	}
	h.writeAtLocked(p, h.off)
	h.off += int64(len(p))
	return len(p), nil
}

// WriteAt writes at offset off without moving the handle offset.
func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	if h.flag&OWrite == 0 {
		return 0, pe("write", h.name, ErrReadOnly)
	}
	if off < 0 {
		return 0, pe("write", h.name, ErrInvalid)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.writeAtLocked(p, off)
	return len(p), nil
}

// writeAtLocked performs the copy; caller holds fs.mu.
func (h *handle) writeAtLocked(p []byte, off int64) {
	end := off + int64(len(p))
	if end > int64(len(h.n.data)) {
		grown := make([]byte, end)
		copy(grown, h.n.data)
		h.n.data = grown
	}
	copy(h.n.data[off:], p)
	h.n.modTime = h.fs.now()
}

// Seek implements io.Seeker.
func (h *handle) Seek(offset int64, whence int) (int64, error) {
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
		base = int64(len(h.n.data))
	default:
		return 0, pe("seek", h.name, ErrInvalid)
	}
	next := base + offset
	if next < 0 {
		return 0, pe("seek", h.name, ErrInvalid)
	}
	h.off = next
	return next, nil
}

// Truncate resizes the file, zero-filling on growth.
func (h *handle) Truncate(size int64) error {
	if err := h.checkOpen(); err != nil {
		return err
	}
	if h.flag&OWrite == 0 {
		return pe("truncate", h.name, ErrReadOnly)
	}
	if size < 0 {
		return pe("truncate", h.name, ErrInvalid)
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	switch {
	case size <= int64(len(h.n.data)):
		h.n.data = h.n.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, h.n.data)
		h.n.data = grown
	}
	h.n.modTime = h.fs.now()
	return nil
}

// Stat returns current metadata for the open node.
func (h *handle) Stat() (Info, error) {
	if err := h.checkOpen(); err != nil {
		return Info{}, err
	}
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	return h.n.info(), nil
}

// Close releases the handle. Double close returns ErrClosed.
func (h *handle) Close() error {
	if h.closed {
		return pe("close", h.name, ErrClosed)
	}
	h.closed = true
	return nil
}
