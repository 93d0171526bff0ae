package hac

import (
	"sync"
	"sync/atomic"

	"hacfs/internal/vfs"
)

// attrCache is HAC's attribute cache. The paper keeps it in UNIX shared
// memory so every process sees it; here the FS itself is shared, so a
// process-local map with the same hit/miss semantics plays that role.
// It answers repeated Stats (the Andrew benchmark's Scan phase) and its
// size is reported by the space-overhead experiment.
//
// An object is cached under at most one path, the one Stat reached it
// by without following a link (FS.Stat), and byIno finds that path from
// the object's inode: a write through a link invalidates the object
// where it is cached.
type attrCache struct {
	mu     sync.Mutex
	m      map[string]vfs.Info
	byIno  map[uint64]string
	cap    int
	hits   atomic.Int64
	misses atomic.Int64
}

func newAttrCache(capacity int) *attrCache {
	return &attrCache{m: make(map[string]vfs.Info, capacity), byIno: make(map[uint64]string), cap: capacity}
}

func (c *attrCache) get(path string) (vfs.Info, bool) {
	c.mu.Lock()
	info, ok := c.m[path]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return info, ok
}

func (c *attrCache) put(path string, info vfs.Info) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.cap {
		// Evict an arbitrary entry; map iteration order serves as a
		// cheap random-replacement policy.
		for k := range c.m {
			c.dropLocked(k)
			break
		}
	}
	// Inode 0 is a substrate that numbers nothing; one object per inode.
	if info.Ino != 0 {
		if old, ok := c.byIno[info.Ino]; ok && old != path {
			c.dropLocked(old)
		}
		c.byIno[info.Ino] = path
	}
	c.m[path] = info
}

func (c *attrCache) invalidate(path string) {
	c.mu.Lock()
	c.dropLocked(path)
	c.mu.Unlock()
}

// invalidateFile drops the entry of the file at path and, by its inode
// ino, the entry the file has under another path.
func (c *attrCache) invalidateFile(path string, ino uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(path)
	if p, ok := c.byIno[ino]; ok && ino != 0 {
		c.dropLocked(p)
	}
}

// dropLocked removes path's entry. Caller holds c.mu.
func (c *attrCache) dropLocked(path string) {
	if info, ok := c.m[path]; ok {
		delete(c.m, path)
		if c.byIno[info.Ino] == path {
			delete(c.byIno, info.Ino)
		}
	}
}

// invalidatePrefix drops every entry at or under path; used on renames
// and subtree removals.
func (c *attrCache) invalidatePrefix(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.m {
		if vfs.HasPrefix(k, path) {
			c.dropLocked(k)
		}
	}
}

// sizeBytes estimates the cache's payload footprint.
func (c *attrCache) sizeBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for k := range c.m {
		total += len(k) + 64 // Info struct plus map overhead
	}
	return total
}

// stats returns hit and miss counts.
func (c *attrCache) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// fdTable models the per-process open file-descriptor table the paper
// stores in shared memory; here it only does the accounting the space
// experiment needs.
type fdTable struct {
	open64    atomic.Int64 // currently open handles
	everOpen  atomic.Int64
	everClose atomic.Int64
	accesses  atomic.Int64 // per-read descriptor-table touches
}

// access records one descriptor-table touch (on each read).
func (t *fdTable) access() { t.accesses.Add(1) }

func newFDTable() *fdTable { return &fdTable{} }

func (t *fdTable) open() {
	t.open64.Add(1)
	t.everOpen.Add(1)
}

func (t *fdTable) close() {
	t.open64.Add(-1)
	t.everClose.Add(1)
}

const fdEntryBytes = 128 // descriptor slot size, per the paper's layout

func (t *fdTable) sizeBytes() int {
	n := t.open64.Load()
	if n < 0 {
		n = 0
	}
	return int(n) * fdEntryBytes
}

// trackedFile wraps a substrate file handle to keep the descriptor
// table and attribute cache coherent with reads and writes performed
// through the handle. As in the paper ("HAC accesses and updates the
// per-process file-descriptor table to implement the read-operation"),
// each read touches the descriptor table.
type trackedFile struct {
	vfs.File
	fs     *FS
	path   string
	ino    uint64 // the written file's inode (write handles)
	closed bool
	// dirty records that the handle truncated or wrote the file, so Close
	// owes it an auto-sync; whole, when hasWhole, is the file's entire
	// new content (WriteFile knows it and saves Close the read-back).
	dirty    bool
	whole    []byte
	hasWhole bool
}

func (f *trackedFile) Read(p []byte) (int, error) {
	f.fs.fds.access()
	return f.File.Read(p)
}

func (f *trackedFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.fds.access()
	return f.File.ReadAt(p, off)
}

func (f *trackedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if n > 0 {
		f.invalidate()
		f.dirty = true
	}
	return n, err
}

func (f *trackedFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if n > 0 {
		f.invalidate()
		f.dirty = true
	}
	return n, err
}

func (f *trackedFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		f.invalidate()
		f.dirty = true
	}
	return err
}

// invalidate drops the written file from the attribute cache.
func (f *trackedFile) invalidate() { f.fs.attrs.invalidateFile(f.path, f.ino) }

// Close releases the handle. A handle that changed a file under an
// auto-sync prefix re-indexes it and settles its links before Close
// returns (autosync.go), like WriteFile. If settling the links fails,
// Close reports it with the handle closed and the bytes written.
func (f *trackedFile) Close() error {
	sync := f.dirty && !f.closed && f.fs.autoSync.covers(f.path)
	var info vfs.Info
	if sync {
		// The handle's own Stat carries the write's modification time
		// and costs no path walk; it must be read before the close.
		var serr error
		info, serr = f.File.Stat()
		sync = serr == nil
	}
	err := f.File.Close()
	if err != nil || f.closed {
		return err
	}
	f.closed = true
	f.fs.fds.close()
	if !sync {
		return nil
	}
	data := f.whole
	if !f.hasWhole {
		if data, err = f.fs.under.ReadFile(f.path); err != nil {
			return nil // already gone or replaced by a directory: nothing to index
		}
	}
	return f.fs.autoSyncWritten(f.path, data, info)
}
