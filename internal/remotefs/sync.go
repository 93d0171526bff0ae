package remotefs

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Manifest-diff replication (DESIGN.md §15). A replica mirrors a remote
// volume by fetching its manifest — paths and content hashes, a few
// dozen bytes per file — diffing the hashes against its own blob store,
// and fetching only the blobs it is missing. At 1% churn that ships
// roughly 1% of the content a full copy would, plus the manifest. The
// capability negotiates itself: a server without a content-addressed
// volume answers opManifest with Unsupported, and MirrorVolume falls
// back to walking the remote tree and copying every file.

// Batching bounds for blob fetches: each opBlobs round trip carries at
// most syncBatchCount hashes and is sized (using the manifest's sizes)
// to stay well under the frame budget.
const (
	syncBatchCount = 512
	syncBatchBytes = 4 << 20
	// maxBlobFetch bounds one request's hash count server-side.
	maxBlobFetch = 4096
)

// splitHashes parses a request's concatenated 32-byte hashes.
func splitHashes(data []byte) ([]cas.Hash, error) {
	if len(data)%len(cas.Hash{}) != 0 {
		return nil, fmt.Errorf("remotefs: blob request length %d is not a multiple of %d", len(data), len(cas.Hash{}))
	}
	n := len(data) / len(cas.Hash{})
	if n > maxBlobFetch {
		return nil, fmt.Errorf("remotefs: %d blobs requested, limit %d", n, maxBlobFetch)
	}
	hashes := make([]cas.Hash, n)
	for i := range hashes {
		copy(hashes[i][:], data[i*len(cas.Hash{}):])
	}
	return hashes, nil
}

// joinHashes is the inverse of splitHashes.
func joinHashes(hashes []cas.Hash) []byte {
	out := make([]byte, 0, len(hashes)*len(cas.Hash{}))
	for _, h := range hashes {
		out = append(out, h[:]...)
	}
	return out
}

// encodeBlobList frames blob contents for one opBlobs response: per
// blob, a u64 big-endian length then the content. The total must fit
// the response frame's Data bound.
func encodeBlobList(blobs [][]byte) ([]byte, error) {
	total := 0
	for _, b := range blobs {
		total += 8 + len(b)
	}
	if total > maxIO {
		return nil, fmt.Errorf("remotefs: blob batch of %d bytes exceeds the %d frame budget", total, maxIO)
	}
	out := make([]byte, 0, total)
	for _, b := range blobs {
		var l [8]byte
		binary.BigEndian.PutUint64(l[:], uint64(len(b)))
		out = append(out, l[:]...)
		out = append(out, b...)
	}
	return out, nil
}

// decodeBlobList parses an opBlobs response into exactly want blobs.
func decodeBlobList(data []byte, want int) ([][]byte, error) {
	blobs := make([][]byte, 0, want)
	for len(data) > 0 {
		if len(blobs) == want {
			return nil, errors.New("remotefs: blob response has trailing bytes")
		}
		if len(data) < 8 {
			return nil, errors.New("remotefs: truncated blob length")
		}
		l := binary.BigEndian.Uint64(data[:8])
		data = data[8:]
		if l > uint64(len(data)) {
			return nil, fmt.Errorf("remotefs: blob length %d exceeds remaining %d bytes", l, len(data))
		}
		blobs = append(blobs, data[:l:l])
		data = data[l:]
	}
	if len(blobs) != want {
		return nil, fmt.Errorf("remotefs: %d blobs in response, want %d", len(blobs), want)
	}
	return blobs, nil
}

// Peer is the client surface MirrorVolume drives: the remote volume's
// file operations for the full-copy fallback plus the raw request
// channel for the manifest ops. MuxClient satisfies it; tests
// substitute a local fake.
type Peer interface {
	vfs.FileSystem
	callCtx(ctx context.Context, req *request) (*response, error)
}

var _ Peer = (*MuxClient)(nil)

// FetchManifest retrieves the remote volume's content-addressed
// manifest. A server without one answers vfs.ErrUnsupported.
func FetchManifest(ctx context.Context, p Peer, dst *cas.Manifest) (wireBytes int64, err error) {
	resp, err := p.callCtx(ctx, &request{Op: opManifest})
	if err != nil {
		return 0, err
	}
	if resp.Err != nil {
		return 0, resp.Err
	}
	m, err := cas.DecodeManifest(resp.Data)
	if err != nil {
		return 0, fmt.Errorf("remotefs: remote manifest: %w", err)
	}
	*dst = *m
	return int64(len(resp.Data)), nil
}

// fetchBlobs retrieves one batch of blobs by hash, verifying each
// against the hash it was requested under — a corrupt or hostile server
// cannot poison the local store.
func fetchBlobs(ctx context.Context, p Peer, hashes []cas.Hash) ([][]byte, error) {
	resp, err := p.callCtx(ctx, &request{Op: opBlobs, Data: joinHashes(hashes)})
	if err != nil {
		return nil, err
	}
	if resp.Err != nil {
		return nil, resp.Err
	}
	blobs, err := decodeBlobList(resp.Data, len(hashes))
	if err != nil {
		return nil, err
	}
	for i, b := range blobs {
		if cas.Sum(b) != hashes[i] {
			return nil, fmt.Errorf("remotefs: blob %s arrived with wrong content", hashes[i].Short())
		}
	}
	return blobs, nil
}

// SyncStats reports what one MirrorVolume run shipped.
type SyncStats struct {
	Mode          string // "manifest-diff" or "full"
	ManifestBytes int64  // encoded manifest size (manifest-diff only)
	BlobsFetched  int    // distinct blobs pulled (manifest-diff only)
	BlobBytes     int64  // content bytes pulled via opBlobs
	FilesCopied   int    // files copied in full mode
	ContentBytes  int64  // total content bytes that crossed the wire
}

// MirrorVolume makes dst an exact copy of the remote volume's tree.
// When dst is content-addressed (a cas.FS, possibly under wrappers
// exposing Under()) and the server exports a manifest, only blobs
// missing from dst's store cross the wire; otherwise every file is
// copied. The returned stats say which path ran and what it cost.
func MirrorVolume(ctx context.Context, p Peer, dst vfs.FileSystem) (SyncStats, error) {
	if cfs := casTarget(dst); cfs != nil {
		var m cas.Manifest
		mBytes, err := FetchManifest(ctx, p, &m)
		switch {
		case err == nil:
			return mirrorByManifest(ctx, p, cfs, &m, mBytes)
		case errors.Is(err, vfs.ErrUnsupported):
			// Non-CAS peer: negotiate down to the full copy.
		default:
			return SyncStats{}, err
		}
	}
	return mirrorFull(ctx, p, dst)
}

// casTarget unwraps layering down to a content-addressed destination.
func casTarget(dst vfs.FileSystem) *cas.FS {
	for {
		if c, ok := dst.(*cas.FS); ok {
			return c
		}
		u, ok := dst.(interface{ Under() vfs.FileSystem })
		if !ok {
			return nil
		}
		dst = u.Under()
	}
}

// mirrorByManifest is the diff path: fetch missing blobs in size-bounded
// batches, then atomically swing the tree to the manifest.
func mirrorByManifest(ctx context.Context, p Peer, dst *cas.FS, m *cas.Manifest, mBytes int64) (SyncStats, error) {
	stats := SyncStats{Mode: "manifest-diff", ManifestBytes: mBytes}
	store := dst.Store()
	missing := m.MissingFrom(store)

	// The manifest knows each blob's size; pack batches against the
	// frame budget. Oversized singletons still go alone — the server
	// rejects them with a typed error rather than jamming the frame.
	sizeOf := make(map[cas.Hash]int64, len(missing))
	for _, e := range m.Entries {
		if e.Type == vfs.TypeFile {
			sizeOf[e.Hash] = e.Size
		}
	}
	// Temporary references pin fetched blobs until the manifest swap
	// takes its own; released on every exit path.
	var fetched []cas.Hash
	defer func() {
		for _, h := range fetched {
			store.Unref(h)
		}
	}()
	for start := 0; start < len(missing); {
		end, bytes := start, int64(0)
		for end < len(missing) && end-start < syncBatchCount {
			if end > start && bytes+sizeOf[missing[end]] > syncBatchBytes {
				break
			}
			bytes += sizeOf[missing[end]]
			end++
		}
		blobs, err := fetchBlobs(ctx, p, missing[start:end])
		if err != nil {
			return stats, err
		}
		for _, b := range blobs {
			h, _ := store.Put(b)
			fetched = append(fetched, h)
			stats.BlobBytes += int64(len(b))
		}
		stats.BlobsFetched += len(blobs)
		start = end
	}
	if err := dst.ReplaceWithManifest(m); err != nil {
		return stats, err
	}
	stats.ContentBytes = stats.BlobBytes
	return stats, nil
}

// mirrorFull is the fallback: clear the destination and copy the whole
// remote tree through the ordinary file operations.
func mirrorFull(ctx context.Context, p Peer, dst vfs.FileSystem) (SyncStats, error) {
	stats := SyncStats{Mode: "full"}
	rootEntries, err := dst.ReadDir("/")
	if err != nil {
		return stats, err
	}
	for _, e := range rootEntries {
		if err := dst.RemoveAll("/" + e.Name); err != nil {
			return stats, err
		}
	}
	var copyDir func(path string) error
	copyDir = func(path string) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		entries, err := p.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			child := vfs.Join(path, e.Name)
			switch e.Type {
			case vfs.TypeDir:
				if err := dst.Mkdir(child); err != nil {
					return err
				}
				if err := copyDir(child); err != nil {
					return err
				}
			case vfs.TypeSymlink:
				target, err := p.Readlink(child)
				if err != nil {
					return err
				}
				if err := dst.Symlink(target, child); err != nil {
					return err
				}
			case vfs.TypeFile:
				data, err := p.ReadFile(child)
				if err != nil {
					return err
				}
				if err := dst.WriteFile(child, data); err != nil {
					return err
				}
				stats.FilesCopied++
				stats.ContentBytes += int64(len(data))
			}
		}
		return nil
	}
	if err := copyDir("/"); err != nil {
		return stats, err
	}
	return stats, nil
}
