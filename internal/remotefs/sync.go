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
// roughly 1% of the content a full copy would, plus the manifest. Both
// ends are content-addressed: a server whose volume is not answers
// opManifest with Unsupported, and MirrorVolume fails with it.

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

// Peer is the client surface MirrorVolume drives: the raw request
// channel for the manifest ops. MuxClient satisfies it; tests
// substitute a local fake.
type Peer interface {
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
	ManifestBytes int64 // encoded manifest size
	BlobsFetched  int   // distinct blobs pulled
	BlobBytes     int64 // content bytes pulled via opBlobs
}

// MirrorVolume makes dst an exact copy of the remote volume's tree: it
// fetches the remote manifest, pulls only the blobs missing from dst's
// store, and swings dst's tree to the manifest. A peer whose volume is
// not content-addressed answers vfs.ErrUnsupported, which is returned
// with dst untouched.
func MirrorVolume(ctx context.Context, p Peer, dst *cas.FS) (SyncStats, error) {
	var m cas.Manifest
	mBytes, err := FetchManifest(ctx, p, &m)
	if err != nil {
		return SyncStats{}, err
	}
	stats := SyncStats{ManifestBytes: mBytes}
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
	if err := dst.ReplaceWithManifest(&m); err != nil {
		return stats, err
	}
	return stats, nil
}
