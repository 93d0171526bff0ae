// Package cas implements the content-addressed substrate (DESIGN.md
// §15): a BlobStore holding immutable, SHA-256-keyed, refcounted blobs,
// a Manifest describing one volume tree as paths over those hashes, and
// FS — a copy-on-write vfs.FileSystem whose file contents live in the
// store. Identical content is stored once no matter how many files,
// volumes or tenants reference it; sealing the mutable overlay into a
// new immutable base (Snapshot/Clone) is O(1); and replicating a volume
// costs the manifest plus only the blobs the receiver is missing.
//
// The design follows c4fs (SNIPPETS.md #2): the manifest is the
// snapshot, and sync is "ship the manifest, fetch missing IDs".
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"hacfs/internal/obs"
)

// Hash is the SHA-256 digest of a blob's content — its identity in the
// store, in manifests, and on the wire.
type Hash [sha256.Size]byte

// Sum returns the content hash of data.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// String returns the full lowercase-hex digest.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns an abbreviated hex digest for logs and listings.
func (h Hash) Short() string { return hex.EncodeToString(h[:6]) }

type blob struct {
	data []byte
	refs int64
}

// BlobStore is a refcounted content-addressed blob store. Blobs are
// immutable: Put never overwrites, it only bumps the refcount when the
// content already exists. A blob is dropped when its refcount reaches
// zero. One BlobStore may back many FS instances (hacvold shares one
// across all tenants), so identical content is stored once per process.
//
// Refcount rules (DESIGN.md §15): the live overlay of every FS owns one
// reference per file whose content it wrote or loaded; overwriting or
// removing such a file releases that reference. Content reachable only
// through sealed bases (snapshots, clones' shared history) keeps the
// references acquired while it was live, pinning it for the life of the
// process — sealing is O(1) precisely because it does not re-walk the
// tree to transfer ownership.
type BlobStore struct {
	// amu serializes measured mutation sections (Measured) so that
	// concurrent writers cannot interleave inside each other's
	// unique-byte deltas. It is always acquired before mu.
	amu sync.Mutex

	mu      sync.Mutex
	blobs   map[Hash]*blob
	unique  int64 // total bytes of live unique blobs
	logical int64 // sum over blobs of refs × size
}

// NewStore returns an empty blob store.
func NewStore() *BlobStore {
	return &BlobStore{blobs: make(map[Hash]*blob)}
}

// Put stores data under its content hash and acquires one reference.
// It returns the hash and the number of unique bytes the call added to
// the store: len(data) when the content was new, 0 when it was a dedup
// hit. The data is copied; callers may reuse the buffer.
func (s *BlobStore) Put(data []byte) (Hash, int64) {
	h := Sum(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blobs[h]; ok {
		b.refs++
		s.logical += int64(len(b.data))
		return h, 0
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.blobs[h] = &blob{data: cp, refs: 1}
	s.unique += int64(len(cp))
	s.logical += int64(len(cp))
	return h, int64(len(cp))
}

// Get returns the content stored under h. The returned slice is the
// store's internal buffer and must not be modified; copy before
// mutating.
func (s *BlobStore) Get(h Hash) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[h]
	if !ok {
		return nil, false
	}
	return b.data, true
}

// fill sets each blob's Data to the content stored under its Hash, in
// one hold of the lock. It reports the first hash the store does not
// hold.
func (s *BlobStore) fill(blobs []Blob) (missing Hash, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range blobs {
		b, ok := s.blobs[blobs[i].Hash]
		if !ok {
			return blobs[i].Hash, false
		}
		blobs[i].Data = b.data
	}
	return Hash{}, true
}

// Has reports whether the store holds content with hash h.
func (s *BlobStore) Has(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blobs[h]
	return ok
}

// Size returns the content length of blob h, or -1 if absent.
func (s *BlobStore) Size(h Hash) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[h]
	if !ok {
		return -1
	}
	return int64(len(b.data))
}

// sole reports whether exactly one reference holds blob h.
func (s *BlobStore) sole(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[h]
	return ok && b.refs == 1
}

// Ref acquires an additional reference on h. It reports whether the
// blob exists.
func (s *BlobStore) Ref(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[h]
	if !ok {
		return false
	}
	b.refs++
	s.logical += int64(len(b.data))
	return true
}

// Unref releases one reference on h, dropping the blob when the count
// reaches zero. It returns the number of unique bytes freed (0 unless
// this was the last reference, or the blob was absent).
func (s *BlobStore) Unref(h Hash) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[h]
	if !ok {
		return 0
	}
	b.refs--
	s.logical -= int64(len(b.data))
	if b.refs > 0 {
		return 0
	}
	delete(s.blobs, h)
	n := int64(len(b.data))
	s.unique -= n
	return n
}

// Blobs returns the number of live unique blobs.
func (s *BlobStore) Blobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}

// UniqueBytes returns the total size of live unique content — the
// store's true footprint.
func (s *BlobStore) UniqueBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unique
}

// LogicalBytes returns the total size as seen by referents (refs ×
// size summed over blobs) — what the same content would occupy without
// dedup.
func (s *BlobStore) LogicalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logical
}

// DedupRatio returns logical ÷ unique bytes (1 for an empty store).
// A ratio of 3 means the store holds a third of what plain storage
// would.
func (s *BlobStore) DedupRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unique == 0 {
		return 1
	}
	return float64(s.logical) / float64(s.unique)
}

// Measured runs fn inside the store's accounting section and returns
// the change in unique bytes it caused. Mutations from concurrent
// Measured sections are excluded by construction (they serialize on the
// accounting lock); unmeasured writers would fold into the delta, so a
// process that charges quotas by unique bytes must route every
// store-mutating write through Measured — serve.Host does.
func (s *BlobStore) Measured(fn func() error) (int64, error) {
	s.amu.Lock()
	defer s.amu.Unlock()
	before := s.UniqueBytes()
	err := fn()
	return s.UniqueBytes() - before, err
}

// PublishMetrics registers scrape-time gauges describing the store in
// reg (DESIGN.md §9 catalog): cas_unique_bytes, cas_logical_bytes,
// cas_blobs and cas_dedup_ratio. Safe to call more than once; later
// calls re-bind the gauges to this store.
func (s *BlobStore) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cas_unique_bytes", func() float64 { return float64(s.UniqueBytes()) })
	reg.GaugeFunc("cas_logical_bytes", func() float64 { return float64(s.LogicalBytes()) })
	reg.GaugeFunc("cas_blobs", func() float64 { return float64(s.Blobs()) })
	reg.GaugeFunc("cas_dedup_ratio", s.DedupRatio)
}
