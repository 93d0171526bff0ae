package serve

import (
	"context"
	"io"
	"sync"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Quota bounds one tenant's footprint. Zero fields are unlimited.
type Quota struct {
	MaxBytes    int64 // unique content bytes the tenant's writes hold in the store
	MaxDocs     int64 // total regular files on the volume
	MaxInflight int64 // concurrently executing requests
}

// usage tracks one tenant's accounted footprint. Mutating operations
// hold mu across their check-and-apply window, so concurrent writers
// cannot race past the quota together.
type usage struct {
	mu      sync.Mutex
	bytes   int64 // measured unique bytes of the tenant's sealed content
	pending int64 // bytes buffered in open handles, not yet sealed
	docs    int64
}

// footprintLocked is the byte usage the quota bounds: sealed content
// plus what open handles will seal. Caller holds u.mu.
func (u *usage) footprintLocked() int64 { return u.bytes + u.pending }

// quotaFS enforces byte and document quotas on every mutating path of
// a tenant volume, which is content-addressed (AddTenant refuses any
// other). Over-quota operations fail with a typed *vfs.PathError
// wrapping vfs.ErrQuotaExceeded before touching the volume; accepted
// ones run inside the store's measured section and the tenant is
// charged the unique bytes its writes actually added — writing content
// the store already holds (another tenant's identical file, its own
// duplicate) costs nothing, and removing content another volume still
// references frees nothing. The byte quota bounds the tenant's real
// storage footprint, which is what a deduplicating host spends, and
// the /metrics gauges track it.
type quotaFS struct {
	inner *hac.FS
	q     Quota
	u     *usage
	met   *tenantMetrics // reject counter; nil in tests
	vol   *cas.FS        // the substrate beneath inner; its store's unique bytes are charged
}

var _ vfs.FileSystem = (*quotaFS)(nil)

func (f *quotaFS) overQuota(op, path string) error {
	if f.met != nil {
		f.met.rejectQuota.Inc()
	}
	return &vfs.PathError{Op: op, Path: path, Err: vfs.ErrQuotaExceeded}
}

// overLocked reports whether growing usage by (worst bytes, dd docs)
// would exceed the quota; shrinking changes never do. Caller holds
// f.u.mu.
func (f *quotaFS) overLocked(worst, dd int64) bool {
	return worst > 0 && f.q.MaxBytes > 0 && f.u.footprintLocked()+worst > f.q.MaxBytes ||
		dd > 0 && f.q.MaxDocs > 0 && f.u.docs+dd > f.q.MaxDocs
}

// isFile reports whether path is an existing regular file.
func (f *quotaFS) isFile(path string) bool {
	info, err := f.inner.Stat(path)
	return err == nil && info.Type == vfs.TypeFile
}

// measuredOp admits an op against its worst-case unique growth (worst
// bytes, dd docs), runs it inside the store's measured section, and
// charges the unique bytes it actually added or freed. Holding u.mu
// across the section serializes this tenant's check-and-apply windows.
func (f *quotaFS) measuredOp(opName, path string, worst, dd int64, op func() error) error {
	f.u.mu.Lock()
	defer f.u.mu.Unlock()
	if f.overLocked(worst, dd) {
		return f.overQuota(opName, path)
	}
	delta, err := f.vol.Store().Measured(op)
	f.u.bytes += delta // measured truth, even on a partial failure
	if err == nil {
		f.u.docs += dd
	}
	return err
}

// checkpoint runs save, a save of the tenant's volume. A save seals
// open handles' buffers into the store, so the seal runs first, alone
// in the store's measured section, and the tenant is charged what it
// adds: the other tenants of a shared store wait for the seal, not for
// the image write. The tenant's own usage lock is held across the save,
// so none of its writes can leave a buffer for the save to seal
// uncharged.
func (f *quotaFS) checkpoint(save func() error) error {
	f.u.mu.Lock()
	defer f.u.mu.Unlock()
	delta, _ := f.vol.Store().Measured(func() error {
		f.vol.Flush()
		return nil
	})
	f.u.bytes += delta
	return save()
}

func (f *quotaFS) WriteFile(path string, data []byte) error {
	var dd int64
	if !f.isFile(path) {
		dd = 1
	}
	// Worst case: every byte is new content. A known dedup hit is
	// admitted for free — that is the point of unique-byte quotas: a
	// tenant mirroring content the store already holds fits in a quota
	// sized for one copy. Overwriting frees the old content when this
	// file holds its only reference, so a tenant at its cap can still
	// rewrite or shrink a file. (Both checks race with other volumes of
	// a shared store; the measured charge stays exact either way,
	// admission is merely an estimate.)
	var worst int64
	if !f.vol.Store().Has(cas.Sum(data)) {
		worst = int64(len(data))
	}
	worst -= f.vol.Reclaimable(path)
	return f.measuredOp("write", path, worst, dd,
		func() error { return f.inner.WriteFile(path, data) })
}

func (f *quotaFS) Create(path string) (vfs.File, error) {
	return f.OpenFile(path, vfs.ORead|vfs.OWrite|vfs.OCreate|vfs.OTrunc)
}

func (f *quotaFS) Open(path string) (vfs.File, error) {
	return f.OpenFile(path, vfs.ORead)
}

func (f *quotaFS) OpenFile(path string, flag int) (vfs.File, error) {
	var dd int64
	if flag&vfs.OCreate != 0 && !f.isFile(path) {
		dd = 1
	}
	// Opening frees at most the truncated blob; growth is charged per
	// handle write.
	var file vfs.File
	err := f.measuredOp("open", path, 0, dd, func() error {
		var e error
		file, e = f.inner.OpenFile(path, flag)
		return e
	})
	if err != nil {
		return nil, err
	}
	return &quotaFile{File: file, fs: f, flag: flag}, nil
}

func (f *quotaFS) Remove(path string) error {
	var dd int64
	if f.isFile(path) {
		dd = -1
	}
	return f.measuredOp("remove", path, 0, dd,
		func() error { return f.inner.Remove(path) })
}

func (f *quotaFS) RemoveAll(path string) error {
	// Count the subtree's documents before they go; symlinked content
	// outside the subtree is not followed, matching Walk semantics.
	var dd int64
	vfs.Walk(f.inner, path, func(p string, info vfs.Info) error {
		if info.Type == vfs.TypeFile {
			dd++
		}
		return nil
	})
	return f.measuredOp("removeall", path, 0, -dd,
		func() error { return f.inner.RemoveAll(path) })
}

// Pass-throughs: metadata and namespace operations carry no quota
// weight (renames move footprint, they do not change it).
func (f *quotaFS) Mkdir(path string) error                     { return f.inner.Mkdir(path) }
func (f *quotaFS) MkdirAll(path string) error                  { return f.inner.MkdirAll(path) }
func (f *quotaFS) Symlink(target, link string) error           { return f.inner.Symlink(target, link) }
func (f *quotaFS) Readlink(path string) (string, error)        { return f.inner.Readlink(path) }
func (f *quotaFS) Rename(o, n string) error                    { return f.inner.Rename(o, n) }
func (f *quotaFS) ReadFile(path string) ([]byte, error)        { return f.inner.ReadFile(path) }
func (f *quotaFS) Stat(path string) (vfs.Info, error)          { return f.inner.Stat(path) }
func (f *quotaFS) Lstat(path string) (vfs.Info, error)         { return f.inner.Lstat(path) }
func (f *quotaFS) ReadDir(path string) ([]vfs.DirEntry, error) { return f.inner.ReadDir(path) }

// The engine surfaces the serving layer forwards (remotefs type-asserts
// the volume it gets from Volumes).

func (f *quotaFS) SearchStream(ctx context.Context, query, scope string, after uint64, pageSize, maxPages int, emit func(page []string, next uint64) error) error {
	return f.inner.SearchStream(ctx, query, scope, after, pageSize, maxPages, emit)
}

// SyncPathContext threads the request context through, so a propagated
// trace passes the quota wrapper to the engine (remotefs.ContextSyncer).
func (f *quotaFS) SyncPathContext(ctx context.Context, path string) error {
	return f.inner.SyncPathContext(ctx, path)
}

// Manifest-diff replication surface (remotefs.BlobSource): forwarded so
// a content-addressed tenant volume can serve manifests and blobs to
// mirroring replicas through the quota wrapper. Reads carry no quota
// weight, matching ReadFile — but taking a manifest seals open handles'
// buffers into the store, so it runs measured: the tenant is charged
// what the seal adds, as the handles' Close would have been, and their
// Close then adds nothing.

func (f *quotaFS) CASManifest() (*cas.Manifest, error) {
	var m *cas.Manifest
	err := f.measuredOp("manifest", "/", 0, 0, func() error {
		var err error
		m, err = f.inner.CASManifest()
		return err
	})
	return m, err
}

func (f *quotaFS) CASBlobs(hashes []cas.Hash) ([][]byte, error) {
	return f.inner.CASBlobs(hashes)
}

// quotaFile charges handle writes. A handle writes into a dirty buffer
// holding the whole file, which enters the store only when Close seals
// it; from the handle's first write until then the buffer's full size
// is held in the tenant's pending bytes, which count against the quota
// like sealed content, so neither one handle nor several concurrent ones
// can write past it before sealing. Close replaces the pending bytes
// with the unique bytes the seal actually added. Sizes are read under
// the usage lock around the inner operation, so concurrent handle
// writers serialize their check-and-apply windows.
type quotaFile struct {
	vfs.File
	fs       *quotaFS
	flag     int
	buffered bool  // a write went through; guarded by fs.u.mu
	pending  int64 // this handle's share of fs.u.pending
}

// grow runs op, admitting it against the buffer size it leaves behind
// (sizeAfter, from the size at entry). The first write converts the
// file's sealed content to the buffer, releasing that blob — credited
// in advance when this file holds its only reference, and measured in
// the section either way.
func (qf *quotaFile) grow(sizeAfter func(cur int64) int64, op func() (int, error)) (int, error) {
	f := qf.fs
	f.u.mu.Lock()
	defer f.u.mu.Unlock()
	before, _ := qf.File.Stat()
	worst := sizeAfter(before.Size) - qf.pending
	if !qf.buffered {
		worst -= f.vol.Reclaimable(qf.Name())
	}
	if f.overLocked(worst, 0) {
		return 0, f.overQuota("write", qf.Name())
	}
	var n int
	delta, err := f.vol.Store().Measured(func() error {
		var e error
		n, e = op()
		return e
	})
	f.u.bytes += delta
	if err == nil {
		after, _ := qf.File.Stat()
		f.u.pending += after.Size - qf.pending
		qf.pending, qf.buffered = after.Size, true
	}
	return n, err
}

// Close seals buffered writes: the seal is where the handle's content
// enters the store, so the unique bytes it adds are measured and
// charged here, and the handle's pending bytes are dropped.
func (qf *quotaFile) Close() error {
	f := qf.fs
	f.u.mu.Lock()
	defer f.u.mu.Unlock()
	delta, err := f.vol.Store().Measured(qf.File.Close)
	f.u.bytes += delta
	f.u.pending -= qf.pending
	qf.pending = 0
	return err
}

func (qf *quotaFile) Write(p []byte) (int, error) {
	return qf.grow(func(cur int64) int64 {
		off := cur
		if qf.flag&vfs.OAppend == 0 {
			off, _ = qf.File.Seek(0, io.SeekCurrent)
		}
		return max(cur, off+int64(len(p)))
	}, func() (int, error) { return qf.File.Write(p) })
}

func (qf *quotaFile) WriteAt(p []byte, off int64) (int, error) {
	return qf.grow(func(cur int64) int64 { return max(cur, off+int64(len(p))) },
		func() (int, error) { return qf.File.WriteAt(p, off) })
}

func (qf *quotaFile) Truncate(size int64) error {
	_, err := qf.grow(func(int64) int64 { return size },
		func() (int, error) { return 0, qf.File.Truncate(size) })
	return err
}
