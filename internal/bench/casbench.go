package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// ---------------------------------------------------------------------
// Content-addressed substrate — snapshot/clone cost, save cost vs
// dirty fraction, manifest-diff replication vs full-content sync
// ---------------------------------------------------------------------

// CASSpec configures the content-addressed substrate experiment.
type CASSpec struct {
	Sizes        []int // volume sizes (files) for the clone-vs-save sweep
	FileSize     int   // bytes per file in the sweep volumes
	SaveFiles    int   // volume size for the dirty-fraction save sweep
	SyncFiles    int   // files in the replication volume
	SyncFileSize int   // bytes per file in the replication volume
	DirtyPcts    []int // dirty fractions (percent) for the save and sync sweeps
	Reps         int   // repetitions per timed measurement
	Seed         int64
}

// CASSizeRow is one volume size in the clone-vs-save sweep: the median
// latency of an O(manifest) Snapshot/Clone against a full SaveVolume of
// the same volume.
type CASSizeRow struct {
	Files      int
	Bytes      int64 // total content bytes
	Snapshot   time.Duration
	Clone      time.Duration
	FullSave   time.Duration
	ImageBytes int64 // v4 image size (manifest + distinct blobs + index)
}

// CASSaveRow is one dirty fraction in the save sweep: the cost of
// SaveVolume after rewriting that share of the volume's files.
type CASSaveRow struct {
	DirtyPct   int
	Rewritten  int
	Save       time.Duration
	ImageBytes int64
}

// CASSyncRow is one dirty fraction in the replication sweep: the bytes
// a manifest-diff re-sync ships after that share of the source changed,
// as a fraction of what a full-content sync ships.
type CASSyncRow struct {
	DirtyPct      int
	Rewritten     int
	ManifestBytes int64
	BlobsFetched  int
	BlobBytes     int64
	WireBytes     int64   // manifest + blob bytes actually shipped
	PctOfFull     float64 // WireBytes as a percentage of FullSyncBytes
}

// CASResult reports the content-addressed substrate experiment.
type CASResult struct {
	FileSize       int
	Sizes          []CASSizeRow
	SnapshotGrowth float64 // Snapshot latency, largest volume / smallest
	CloneGrowth    float64 // Clone latency, largest volume / smallest (target < 2x)
	SaveGrowth     float64 // FullSave latency, largest / smallest (target >= 10x)

	SaveFiles int
	SaveDirty []CASSaveRow

	SyncFiles     int
	SyncFileSize  int
	FullSyncBytes int64 // content bytes a full (non-CAS) mirror ships
	ColdSyncBytes int64 // first manifest-diff sync into an empty store
	SyncDirty     []CASSyncRow
}

// countWriter counts bytes written and discards them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// casVolume is a content-addressed hac volume plus the bookkeeping the
// sweeps need to dirty it deterministically.
type casVolume struct {
	fs    *hac.FS
	cfs   *cas.FS
	paths []string
	rng   *rand.Rand
	size  int
	gen   int
}

// buildCASVolume populates a cas-backed volume with files of unique
// pseudo-random content, 100 per directory.
func buildCASVolume(files, size int, seed int64) (*casVolume, error) {
	cfs := cas.New(nil)
	fs := hac.New(cfs, hac.Options{})
	v := &casVolume{fs: fs, cfs: cfs, rng: rand.New(rand.NewSource(seed)), size: size}
	for i := 0; i < files; i++ {
		if i%100 == 0 {
			if err := fs.MkdirAll(fmt.Sprintf("/d%04d", i/100)); err != nil {
				return nil, err
			}
		}
		p := fmt.Sprintf("/d%04d/f%06d.txt", i/100, i)
		if err := fs.WriteFile(p, v.content()); err != nil {
			return nil, err
		}
		v.paths = append(v.paths, p)
	}
	return v, nil
}

// content returns a fresh never-before-seen blob of the volume's file
// size: a generation header (so no two calls collide) over random fill.
func (v *casVolume) content() []byte {
	v.gen++
	buf := make([]byte, v.size)
	v.rng.Read(buf)
	copy(buf, fmt.Sprintf("gen %d ", v.gen))
	return buf
}

// dirty rewrites pct percent of the volume's files (at least one) with
// fresh content and returns how many it touched.
func (v *casVolume) dirty(pct int) (int, error) {
	n := len(v.paths) * pct / 100
	if n < 1 {
		n = 1
	}
	// Spread the rewrites across the tree rather than clustering at the
	// front, so per-directory locality doesn't flatter the measurement.
	step := len(v.paths) / n
	if step < 1 {
		step = 1
	}
	count := 0
	for i := 0; i < len(v.paths) && count < n; i += step {
		if err := v.fs.WriteFile(v.paths[i], v.content()); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// timeMedian runs fn reps times and returns the median wall time.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	return timeMedianN(reps, 1, fn)
}

// timeMedianN takes reps samples of iters back-to-back runs each and
// returns the median per-run time. Batching keeps sub-microsecond ops —
// Snapshot and Clone are pointer swaps — above timer resolution.
func timeMedianN(reps, iters int, fn func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	samples := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		for j := 0; j < iters; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, time.Since(start)/time.Duration(iters))
	}
	return percentile(samples, 0.5), nil
}

// CAS measures the content-addressed substrate: Snapshot/Clone latency
// against full SaveVolume across volume sizes (sealing shares the tree,
// so it should stay flat while saving grows with the volume), save cost
// as a function of how much of the volume is dirty, and the bytes a
// manifest-diff re-sync ships versus a full-content mirror.
func CAS(spec CASSpec) (CASResult, error) {
	if spec.FileSize <= 0 {
		spec.FileSize = 256
	}
	if spec.Reps < 1 {
		spec.Reps = 3
	}
	if len(spec.DirtyPcts) == 0 {
		spec.DirtyPcts = []int{1, 10, 50}
	}
	res := CASResult{
		FileSize:     spec.FileSize,
		SaveFiles:    spec.SaveFiles,
		SyncFiles:    spec.SyncFiles,
		SyncFileSize: spec.SyncFileSize,
	}

	// Part 1: Snapshot/Clone vs full SaveVolume across volume sizes.
	for _, files := range spec.Sizes {
		v, err := buildCASVolume(files, spec.FileSize, spec.Seed)
		if err != nil {
			return res, err
		}
		row := CASSizeRow{Files: files, Bytes: int64(files) * int64(spec.FileSize)}
		if row.Snapshot, err = timeMedianN(spec.Reps, 256, func() error {
			v.cfs.Snapshot()
			return nil
		}); err != nil {
			return res, err
		}
		if row.Clone, err = timeMedianN(spec.Reps, 256, func() error {
			v.cfs.Clone()
			return nil
		}); err != nil {
			return res, err
		}
		if row.FullSave, err = timeMedian(spec.Reps, func() error {
			var cw countWriter
			if err := v.fs.SaveVolume(&cw); err != nil {
				return err
			}
			row.ImageBytes = cw.n
			return nil
		}); err != nil {
			return res, err
		}
		res.Sizes = append(res.Sizes, row)
	}
	if n := len(res.Sizes); n >= 2 {
		first, last := res.Sizes[0], res.Sizes[n-1]
		res.SnapshotGrowth = ratio(last.Snapshot, first.Snapshot)
		res.CloneGrowth = ratio(last.Clone, first.Clone)
		res.SaveGrowth = ratio(last.FullSave, first.FullSave)
	}

	// Part 2: save cost vs dirty fraction. The first save pays for the
	// whole volume; subsequent saves re-hash nothing clean, so their cost
	// tracks the image write, not the rewrite history.
	if spec.SaveFiles > 0 {
		v, err := buildCASVolume(spec.SaveFiles, spec.FileSize, spec.Seed+1)
		if err != nil {
			return res, err
		}
		for _, pct := range append([]int{0}, spec.DirtyPcts...) {
			row := CASSaveRow{DirtyPct: pct}
			if pct > 0 {
				if row.Rewritten, err = v.dirty(pct); err != nil {
					return res, err
				}
			}
			if row.Save, err = timeMedian(spec.Reps, func() error {
				var cw countWriter
				if err := v.fs.SaveVolume(&cw); err != nil {
					return err
				}
				row.ImageBytes = cw.n
				return nil
			}); err != nil {
				return res, err
			}
			res.SaveDirty = append(res.SaveDirty, row)
		}
	}

	// Part 3: replication. Serve the source volume over the remote
	// protocol, mirror it, then dirty increasing fractions and compare
	// what a manifest-diff re-sync ships against a full-content mirror.
	if spec.SyncFiles > 0 {
		if err := casSyncSweep(spec, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

func casSyncSweep(spec CASSpec, res *CASResult) error {
	src, err := buildCASVolume(spec.SyncFiles, spec.SyncFileSize, spec.Seed+2)
	if err != nil {
		return err
	}
	srv := remotefs.NewServer(src.fs, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(l)
	defer srv.Close()
	client := remotefs.DialMux(l.Addr().String())
	defer client.Close()
	ctx := context.Background()

	// A plain in-memory destination cannot dedup, so this measures what
	// replication cost before the substrate: every file's content.
	full, err := remotefs.MirrorVolume(ctx, client, vfs.New())
	if err != nil {
		return fmt.Errorf("full mirror: %w", err)
	}
	res.FullSyncBytes = full.ContentBytes

	dst := cas.New(nil)
	cold, err := remotefs.MirrorVolume(ctx, client, dst)
	if err != nil {
		return fmt.Errorf("cold sync: %w", err)
	}
	res.ColdSyncBytes = cold.ContentBytes

	for _, pct := range spec.DirtyPcts {
		row := CASSyncRow{DirtyPct: pct}
		if row.Rewritten, err = src.dirty(pct); err != nil {
			return err
		}
		stats, err := remotefs.MirrorVolume(ctx, client, dst)
		if err != nil {
			return fmt.Errorf("re-sync at %d%% dirty: %w", pct, err)
		}
		if stats.Mode != "manifest-diff" {
			return fmt.Errorf("re-sync at %d%% dirty ran in %q mode", pct, stats.Mode)
		}
		row.ManifestBytes = stats.ManifestBytes
		row.BlobsFetched = stats.BlobsFetched
		row.BlobBytes = stats.BlobBytes
		row.WireBytes = stats.ManifestBytes + stats.BlobBytes
		if res.FullSyncBytes > 0 {
			row.PctOfFull = 100 * float64(row.WireBytes) / float64(res.FullSyncBytes)
		}
		res.SyncDirty = append(res.SyncDirty, row)
	}
	return nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
