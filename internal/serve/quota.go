package serve

import (
	"context"
	"sync"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Quota bounds one tenant's footprint. Zero fields are unlimited.
type Quota struct {
	MaxBytes    int64 // total regular-file bytes on the volume
	MaxDocs     int64 // total regular files on the volume
	MaxInflight int64 // concurrently executing requests
}

// usage tracks one tenant's accounted footprint. Mutating operations
// hold mu across their check-and-apply window, so concurrent writers
// cannot race past the quota together.
type usage struct {
	mu    sync.Mutex
	bytes int64
	docs  int64
}

// quotaFS enforces byte and document quotas on every mutating path of
// a wrapped file system. Over-quota operations fail with a typed
// *vfs.PathError wrapping vfs.ErrQuotaExceeded before touching the
// volume; accepted ones adjust the tenant's accounted usage by their
// actual effect, so the /metrics gauges track real occupancy.
//
// Two accounting modes exist. Over an ordinary substrate, bytes are
// logical: every file pays its own length. Over a content-addressed
// substrate (store != nil), mutations run inside the store's measured
// sections and the tenant is charged the unique bytes its writes
// actually added — writing content the store already holds (another
// tenant's identical file, its own duplicate) costs nothing, and
// removing content another volume still references frees nothing. The
// byte quota then bounds the tenant's real storage footprint, which is
// what a deduplicating host actually spends.
type quotaFS struct {
	inner vfs.FileSystem
	q     Quota
	u     *usage
	met   *tenantMetrics // reject counter; nil in tests
	store *cas.BlobStore // non-nil = charge measured unique bytes
}

var _ vfs.FileSystem = (*quotaFS)(nil)

func (f *quotaFS) overQuota(op, path string) error {
	if f.met != nil {
		f.met.rejectQuota.Inc()
	}
	return &vfs.PathError{Op: op, Path: path, Err: vfs.ErrQuotaExceeded}
}

// fileFootprint returns the accounted size of path if it is an
// existing regular file (0, false otherwise).
func (f *quotaFS) fileFootprint(path string) (int64, bool) {
	info, err := f.inner.Stat(path)
	if err != nil || info.Type != vfs.TypeFile {
		return 0, false
	}
	return info.Size, true
}

// charge validates a projected change of (db bytes, dd docs) against
// the quota and applies it. Shrinking changes always pass.
func (f *quotaFS) charge(op, path string, db, dd int64) error {
	f.u.mu.Lock()
	defer f.u.mu.Unlock()
	if db > 0 && f.q.MaxBytes > 0 && f.u.bytes+db > f.q.MaxBytes {
		return f.overQuota(op, path)
	}
	if dd > 0 && f.q.MaxDocs > 0 && f.u.docs+dd > f.q.MaxDocs {
		return f.overQuota(op, path)
	}
	f.u.bytes += db
	f.u.docs += dd
	return nil
}

// refund reverses a charge whose operation failed.
func (f *quotaFS) refund(db, dd int64) {
	f.u.mu.Lock()
	f.u.bytes -= db
	f.u.docs -= dd
	f.u.mu.Unlock()
}

// measuredOp is the content-addressed charging path: admit the op
// against its worst-case unique growth (worst bytes, dd docs), run it
// inside the store's measured section, and charge the unique bytes it
// actually added or freed. Holding u.mu across the section serializes
// this tenant's check-and-apply windows, same as charge.
func (f *quotaFS) measuredOp(opName, path string, worst, dd int64, op func() error) error {
	f.u.mu.Lock()
	defer f.u.mu.Unlock()
	if worst > 0 && f.q.MaxBytes > 0 && f.u.bytes+worst > f.q.MaxBytes {
		return f.overQuota(opName, path)
	}
	if dd > 0 && f.q.MaxDocs > 0 && f.u.docs+dd > f.q.MaxDocs {
		return f.overQuota(opName, path)
	}
	delta, err := f.store.Measured(op)
	f.u.bytes += delta // measured truth, even on a partial failure
	if err == nil {
		f.u.docs += dd
	}
	return err
}

func (f *quotaFS) WriteFile(path string, data []byte) error {
	old, existed := f.fileFootprint(path)
	var dd int64
	if !existed {
		dd = 1
	}
	if f.store != nil {
		// Worst case: every byte is new content and the overwritten
		// blob stays referenced elsewhere. A known dedup hit is
		// admitted for free — that is the point of unique-byte quotas:
		// a tenant mirroring content the store already holds fits in a
		// quota sized for one copy. (The hash check races with the last
		// reference dropping; the measured charge stays exact either
		// way, admission is merely an estimate.)
		worst := int64(len(data))
		if f.store.Has(cas.Sum(data)) {
			worst = 0
		}
		return f.measuredOp("write", path, worst, dd,
			func() error { return f.inner.WriteFile(path, data) })
	}
	db := int64(len(data)) - old
	if err := f.charge("write", path, db, dd); err != nil {
		return err
	}
	if err := f.inner.WriteFile(path, data); err != nil {
		f.refund(db, dd)
		return err
	}
	return nil
}

func (f *quotaFS) Create(path string) (vfs.File, error) {
	return f.OpenFile(path, vfs.ORead|vfs.OWrite|vfs.OCreate|vfs.OTrunc)
}

func (f *quotaFS) Open(path string) (vfs.File, error) {
	return f.OpenFile(path, vfs.ORead)
}

func (f *quotaFS) OpenFile(path string, flag int) (vfs.File, error) {
	var db, dd int64
	old, existed := f.fileFootprint(path)
	if !existed && flag&vfs.OCreate != 0 {
		dd = 1
	}
	if f.store != nil {
		// Opening frees at most the truncated blob; growth is charged
		// per handle write.
		var file vfs.File
		err := f.measuredOp("open", path, 0, dd, func() error {
			var e error
			file, e = f.inner.OpenFile(path, flag)
			return e
		})
		if err != nil {
			return nil, err
		}
		return &quotaFile{File: file, fs: f}, nil
	}
	if existed && flag&vfs.OTrunc != 0 {
		db = -old
	}
	if err := f.charge("open", path, db, dd); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(path, flag)
	if err != nil {
		f.refund(db, dd)
		return nil, err
	}
	return &quotaFile{File: file, fs: f}, nil
}

func (f *quotaFS) Remove(path string) error {
	size, isFile := f.fileFootprint(path)
	var dd int64
	if isFile {
		dd = -1
	}
	if f.store != nil {
		return f.measuredOp("remove", path, 0, dd,
			func() error { return f.inner.Remove(path) })
	}
	if err := f.inner.Remove(path); err != nil {
		return err
	}
	if isFile {
		f.refund(size, 1)
	}
	return nil
}

func (f *quotaFS) RemoveAll(path string) error {
	// Account the subtree before it goes; symlinked content outside the
	// subtree is not followed, matching Walk semantics.
	var db, dd int64
	vfs.Walk(f.inner, path, func(p string, info vfs.Info) error {
		if info.Type == vfs.TypeFile {
			db += info.Size
			dd++
		}
		return nil
	})
	if f.store != nil {
		return f.measuredOp("removeall", path, 0, -dd,
			func() error { return f.inner.RemoveAll(path) })
	}
	if err := f.inner.RemoveAll(path); err != nil {
		return err
	}
	f.refund(db, dd)
	return nil
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

// Optional surfaces the serving layer forwards (remotefs type-asserts
// the volume it gets from Volumes).

func (f *quotaFS) SearchStream(ctx context.Context, query, scope string, after uint64, pageSize, maxPages int, emit func(page []string, next uint64) error) error {
	type searcher interface {
		SearchStream(ctx context.Context, query, scope string, after uint64, pageSize, maxPages int, emit func(page []string, next uint64) error) error
	}
	sr, ok := f.inner.(searcher)
	if !ok {
		return &vfs.PathError{Op: "search", Path: scope, Err: vfs.ErrUnsupported}
	}
	return sr.SearchStream(ctx, query, scope, after, pageSize, maxPages, emit)
}

func (f *quotaFS) SyncPath(path string) error {
	type syncer interface{ SyncPath(path string) error }
	ps, ok := f.inner.(syncer)
	if !ok {
		return &vfs.PathError{Op: "ssync", Path: path, Err: vfs.ErrUnsupported}
	}
	return ps.SyncPath(path)
}

// SyncPathContext is the context-threading form (remotefs.ContextSyncer),
// forwarded so a propagated trace passes through the quota wrapper to
// the engine; it falls back to the plain form for an inner file system
// that predates it.
func (f *quotaFS) SyncPathContext(ctx context.Context, path string) error {
	type syncer interface {
		SyncPathContext(ctx context.Context, path string) error
	}
	if ps, ok := f.inner.(syncer); ok {
		return ps.SyncPathContext(ctx, path)
	}
	return f.SyncPath(path)
}

// Manifest-diff replication surface (remotefs.BlobSource): forwarded so
// a content-addressed tenant volume can serve manifests and blobs to
// mirroring replicas through the quota wrapper. Reads carry no quota
// weight, matching ReadFile.

func (f *quotaFS) CASManifest() (*cas.Manifest, error) {
	type source interface {
		CASManifest() (*cas.Manifest, error)
	}
	bs, ok := f.inner.(source)
	if !ok {
		return nil, &vfs.PathError{Op: "manifest", Path: "/", Err: vfs.ErrUnsupported}
	}
	return bs.CASManifest()
}

func (f *quotaFS) CASBlobs(hashes []cas.Hash) ([][]byte, error) {
	type source interface {
		CASBlobs(hashes []cas.Hash) ([][]byte, error)
	}
	bs, ok := f.inner.(source)
	if !ok {
		return nil, &vfs.PathError{Op: "blobs", Path: "/", Err: vfs.ErrUnsupported}
	}
	return bs.CASBlobs(hashes)
}

// quotaFile charges handle writes by their measured growth: sizes are
// read under the usage lock around the inner operation, so concurrent
// handle writers serialize their check-and-apply windows.
type quotaFile struct {
	vfs.File
	fs *quotaFS
}

// grow runs op, charging the file's size change. The pessimistic
// pre-check bounds the worst-case growth (computed from the size at
// entry); the final charge is the measured delta. On a content-
// addressed substrate handle writes mutate a dirty buffer, so the
// store-measured charge mostly lands when Close seals the buffer; the
// measured section here still catches the reference the first write
// releases on the blob it is shadowing.
func (qf *quotaFile) grow(worstOf func(cur int64) int64, op func() (int, error)) (int, error) {
	qf.fs.u.mu.Lock()
	defer qf.fs.u.mu.Unlock()
	before, _ := qf.File.Stat()
	if worst := worstOf(before.Size); worst > 0 && qf.fs.q.MaxBytes > 0 && qf.fs.u.bytes+worst > qf.fs.q.MaxBytes {
		return 0, qf.fs.overQuota("write", qf.Name())
	}
	if qf.fs.store != nil {
		var n int
		delta, err := qf.fs.store.Measured(func() error {
			var e error
			n, e = op()
			return e
		})
		qf.fs.u.bytes += delta
		return n, err
	}
	n, err := op()
	after, _ := qf.File.Stat()
	qf.fs.u.bytes += after.Size - before.Size
	return n, err
}

// Close seals buffered writes. On a content-addressed substrate the
// seal is where the handle's content enters the store, so the unique
// bytes it adds are measured and charged here.
func (qf *quotaFile) Close() error {
	if qf.fs.store == nil {
		return qf.File.Close()
	}
	qf.fs.u.mu.Lock()
	defer qf.fs.u.mu.Unlock()
	delta, err := qf.fs.store.Measured(qf.File.Close)
	qf.fs.u.bytes += delta
	return err
}

func (qf *quotaFile) Write(p []byte) (int, error) {
	return qf.grow(func(int64) int64 { return int64(len(p)) },
		func() (int, error) { return qf.File.Write(p) })
}

func (qf *quotaFile) WriteAt(p []byte, off int64) (int, error) {
	return qf.grow(func(int64) int64 { return int64(len(p)) },
		func() (int, error) { return qf.File.WriteAt(p, off) })
}

func (qf *quotaFile) Truncate(size int64) error {
	_, err := qf.grow(func(cur int64) int64 { return size - cur },
		func() (int, error) { return 0, qf.File.Truncate(size) })
	return err
}
