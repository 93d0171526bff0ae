package hac

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"hacfs/internal/index"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Volume persistence. The paper's HAC stores its per-directory
// structures on disk alongside the file system; here the whole volume —
// substrate tree plus HAC's semantic metadata — serializes to one
// stream. Since version 3 the image also carries the segmented index
// (index.Save's per-segment blocks appended after the main frame), so a
// load resumes from the saved postings and the settling Reindex only
// re-tokenizes files that actually changed. Version-2 images — which
// stored no index — still load; the Reindex rebuilds it from scratch,
// exactly the old recovery story.
//
// The on-disk image is crash-safe (DESIGN.md §8): a fixed header
// carries a magic number, a format version and the payload length, the
// gob payload follows, and a CRC-32C trailer covers the payload. A
// torn or bit-flipped main frame fails the length or checksum test and
// LoadVolume reports a typed *vfs.PathError wrapping ErrCorruptVolume
// instead of feeding garbage to gob. The appended index section is
// framed per segment: damage that loses the stream position (a torn
// save) rejects the whole image — recovery proceeds from the previous
// good one — while a bit flip contained to one segment block costs only
// that segment, which the load-time Reindex restores from the file
// tree. SaveVolumeFile writes through a temp file, fsyncs and renames,
// so a crash during save leaves the previous image intact.

const (
	casVolumeVersion    = 4 // content-addressed images: manifest + blob section + index section
	volumeVersion       = 3
	legacyVolumeVersion = 2 // pre-segmented-index images, no index section
)

// volumeMagic opens every volume image ("HACV" plus a format byte).
var volumeMagic = [4]byte{'H', 'A', 'C', 'V'}

// maxVolumePayload bounds the claimed payload length so a corrupt
// header cannot demand an absurd allocation.
const maxVolumePayload = 1 << 30

// volumeCRC is the CRC-32C (Castagnoli) table used for the trailer.
var volumeCRC = crc32.MakeTable(crc32.Castagnoli)

// Persistence sentinels, matchable with errors.Is through the typed
// *vfs.PathError that SaveVolume and LoadVolume return.
var (
	// ErrCorruptVolume marks a volume image that is truncated,
	// bit-flipped, version-skewed or otherwise undecodable. It aliases
	// vfs.ErrCorruptVolume — the same sentinel the index layer wraps —
	// so one errors.Is test covers damage found at either layer.
	ErrCorruptVolume = vfs.ErrCorruptVolume
	// ErrNoSnapshot means the substrate cannot produce a snapshot, so
	// the volume cannot be saved from this layer.
	ErrNoSnapshot = errors.New("hac: substrate cannot snapshot")
)

// volErr wraps persistence failures in the typed error shape of the
// rest of the API (errors.As(*vfs.PathError), errors.Is(sentinel)).
func volErr(op string, err error) error {
	return &vfs.PathError{Op: op, Path: "volume", Err: err}
}

type volumeImage struct {
	Version int
	Nodes   []vfs.SnapNode // v2/v3: full tree with content inline
	Dirs    []dirImage
	// Manifest is the encoded cas.Manifest of a version-4 image: the
	// tree with file content referenced by hash. The blobs themselves
	// follow the main frame in the blob section, each stored once no
	// matter how many files (or tenants at load time, via a shared
	// store) reference it.
	Manifest []byte
}

// dirImage is the persisted form of one directory's HAC state. The
// query is stored in display form (dir: references as path names) and
// re-bound on load, since UIDs are an in-memory notion.
type dirImage struct {
	Path       string
	Semantic   bool
	Query      string
	Class      map[string]int    // target → LinkClass (transient/permanent)
	LinkNames  map[string]string // target → symlink base name
	Prohibited []string
}

// casSubstrate unwraps layering (vfs.FaultFS and anything else exposing
// Under()) down to a content-addressed substrate, or nil.
func casSubstrate(under vfs.FileSystem) *cas.FS {
	for {
		if c, ok := under.(*cas.FS); ok {
			return c
		}
		u, ok := under.(interface{ Under() vfs.FileSystem })
		if !ok {
			return nil
		}
		under = u.Under()
	}
}

// CASManifest returns the live manifest of the volume's
// content-addressed substrate — the send half of manifest-diff
// replication (remotefs.BlobSource). Volumes on other substrates return
// vfs.ErrUnsupported, which tells a syncing peer to fall back to
// full-content copy.
func (fs *FS) CASManifest() (*cas.Manifest, error) {
	cfs := casSubstrate(fs.under)
	if cfs == nil {
		return nil, &vfs.PathError{Op: "manifest", Path: "/", Err: vfs.ErrUnsupported}
	}
	return cfs.Manifest(), nil
}

// CASBlobs returns the content of each requested blob in request order
// (remotefs.BlobSource). A hash the store no longer holds — the peer's
// manifest raced a local rewrite — is reported as vfs.ErrNotExist; the
// peer refetches the manifest and retries.
func (fs *FS) CASBlobs(hashes []cas.Hash) ([][]byte, error) {
	cfs := casSubstrate(fs.under)
	if cfs == nil {
		return nil, &vfs.PathError{Op: "blobs", Path: "/", Err: vfs.ErrUnsupported}
	}
	store := cfs.Store()
	out := make([][]byte, len(hashes))
	for i, h := range hashes {
		data, ok := store.Get(h)
		if !ok {
			return nil, &vfs.PathError{Op: "blobs", Path: h.String(), Err: vfs.ErrNotExist}
		}
		out[i] = data
	}
	return out, nil
}

// SaveVolume writes the volume — files, directories, links, queries and
// link classifications — to w as a checksummed, length-framed image.
//
// On a content-addressed substrate (cas.FS, possibly wrapped in
// vfs.FaultFS) the image is version 4: the main frame carries the
// manifest (paths and hashes, no content) and a blob section follows
// with each distinct blob exactly once — files sharing content, however
// many, cost one copy, and clean files cost no re-hashing (their hashes
// are cached on the tree). Other substrates must implement
// vfs.Snapshotter (MemFS does) and save the inline version-3 form;
// otherwise a *vfs.PathError wrapping ErrNoSnapshot is returned.
func (fs *FS) SaveVolume(w io.Writer) error {
	var img volumeImage
	var manifest *cas.Manifest
	var blobs map[cas.Hash][]byte
	if cfs := casSubstrate(fs.under); cfs != nil {
		manifest, blobs = cfs.ImageData()
		img.Version = casVolumeVersion
		img.Manifest = manifest.EncodeBinary()
	} else {
		snapper, ok := fs.under.(vfs.Snapshotter)
		if !ok {
			return volErr("savevolume", fmt.Errorf("%w: substrate %T", ErrNoSnapshot, fs.under))
		}
		nodes := snapper.Snapshot()
		if len(nodes) == 0 {
			return volErr("savevolume", fmt.Errorf("%w: substrate %T produced no snapshot", ErrNoSnapshot, fs.under))
		}
		img.Version = volumeVersion
		img.Nodes = nodes
	}

	fs.mu.RLock()
	uids := make([]uint64, 0, len(fs.dirs))
	for uid := range fs.dirs {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	for _, uid := range uids {
		ds := fs.dirs[uid]
		p, ok := fs.pathOfLocked(uid)
		if !ok {
			continue
		}
		di := dirImage{Path: p, Semantic: ds.semantic}
		if ds.semantic {
			di.Class = make(map[string]int, len(ds.class))
			di.LinkNames = make(map[string]string, len(ds.linkName))
			for t, c := range ds.class {
				di.Class[t] = int(c)
				di.LinkNames[t] = ds.linkName[t]
			}
			for t := range ds.prohibited {
				di.Prohibited = append(di.Prohibited, t)
			}
			sort.Strings(di.Prohibited)
		}
		img.Dirs = append(img.Dirs, di)
	}
	// Queries in display form, which requires the lock released per the
	// QueryDisplay API; collect paths first.
	type pending struct {
		idx  int
		path string
	}
	var queries []pending
	for i, di := range img.Dirs {
		if di.Semantic {
			queries = append(queries, pending{i, di.Path})
		}
	}
	fs.mu.RUnlock()

	for _, q := range queries {
		disp, err := fs.QueryDisplay(q.path)
		if err != nil {
			return volErr("savevolume", fmt.Errorf("serializing query of %s: %w", q.path, err))
		}
		img.Dirs[q.idx].Query = disp
	}

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&img); err != nil {
		return volErr("savevolume", fmt.Errorf("encoding volume: %w", err))
	}
	if err := writeVolumeFrame(w, uint16(img.Version), payload.Bytes()); err != nil {
		return volErr("savevolume", err)
	}
	// Version 4: the blob section — every distinct content blob the
	// manifest references, hash-framed, before the index section.
	if img.Version == casVolumeVersion {
		if err := writeBlobSection(w, manifest, blobs); err != nil {
			return volErr("savevolume", err)
		}
	}
	// The index section: the segmented image, one framed block per
	// segment (see internal/index/persist.go). Appending it after the
	// main frame keeps version-2 readers' framing intact.
	if err := fs.ix.Save(w); err != nil {
		return volErr("savevolume", fmt.Errorf("writing index section: %w", err))
	}
	return nil
}

// Blob section framing (v4): magic "HACB" | u32 blob count | per blob:
// hash[32] | u64 length | content. The SHA-256 hash doubles as the
// integrity check — the loader recomputes it over the content, so a
// flipped bit anywhere in a blob rejects the image with
// ErrCorruptVolume (volume content is all-or-nothing; the per-segment
// tolerance of the index section is unchanged).
var blobSectionMagic = [4]byte{'H', 'A', 'C', 'B'}

// maxBlobCount bounds the declared blob count before any allocation.
const maxBlobCount = 1 << 24

func writeBlobSection(w io.Writer, m *cas.Manifest, blobs map[cas.Hash][]byte) error {
	hashes := m.Hashes()
	var hdr [8]byte
	copy(hdr[:4], blobSectionMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(hashes)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, h := range hashes {
		data, ok := blobs[h]
		if !ok {
			return fmt.Errorf("hac: manifest references blob %s absent from the store", h.Short())
		}
		var bh [40]byte
		copy(bh[:32], h[:])
		binary.BigEndian.PutUint64(bh[32:40], uint64(len(data)))
		if _, err := w.Write(bh[:]); err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// readBlobSection loads every blob into store, verifying content
// against its declared hash. It returns the hashes loaded, in section
// order, so the caller can release its temporary references once the
// restored tree holds its own.
func readBlobSection(r io.Reader, store *cas.BlobStore) ([]cas.Hash, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short blob section header: %v", ErrCorruptVolume, err)
	}
	if !bytes.Equal(hdr[:4], blobSectionMagic[:]) {
		return nil, fmt.Errorf("%w: bad blob section magic %q", ErrCorruptVolume, hdr[:4])
	}
	count := binary.BigEndian.Uint32(hdr[4:8])
	if count > maxBlobCount {
		return nil, fmt.Errorf("%w: implausible blob count %d", ErrCorruptVolume, count)
	}
	loaded := make([]cas.Hash, 0, min(int(count), 1<<16))
	for i := uint32(0); i < count; i++ {
		var bh [40]byte
		if _, err := io.ReadFull(r, bh[:]); err != nil {
			return loaded, fmt.Errorf("%w: truncated blob header: %v", ErrCorruptVolume, err)
		}
		var h cas.Hash
		copy(h[:], bh[:32])
		length := binary.BigEndian.Uint64(bh[32:40])
		if length > maxVolumePayload {
			return loaded, fmt.Errorf("%w: implausible blob length %d", ErrCorruptVolume, length)
		}
		data := make([]byte, int(length))
		if _, err := io.ReadFull(r, data); err != nil {
			return loaded, fmt.Errorf("%w: truncated blob content: %v", ErrCorruptVolume, err)
		}
		got, _ := store.Put(data)
		loaded = append(loaded, got)
		if got != h {
			return loaded, fmt.Errorf("%w: blob hash mismatch (%s != %s)", ErrCorruptVolume, got.Short(), h.Short())
		}
	}
	return loaded, nil
}

// writeVolumeFrame writes one framed image: magic | u16 version | u64
// length | payload | u32 CRC-32C.
func writeVolumeFrame(w io.Writer, version uint16, payload []byte) error {
	var hdr [14]byte
	copy(hdr[:4], volumeMagic[:])
	binary.BigEndian.PutUint16(hdr[4:6], version)
	binary.BigEndian.PutUint64(hdr[6:14], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.Checksum(payload, volumeCRC))
	if _, err := w.Write(trailer[:]); err != nil {
		return err
	}
	return nil
}

// readVolumePayload reads and verifies one framed image, returning the
// gob payload and the frame's format version (current or legacy). Every
// failure wraps ErrCorruptVolume.
func readVolumePayload(r io.Reader) ([]byte, uint16, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: short header: %v", ErrCorruptVolume, err)
	}
	if !bytes.Equal(hdr[:4], volumeMagic[:]) {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorruptVolume, hdr[:4])
	}
	version := binary.BigEndian.Uint16(hdr[4:6])
	switch version {
	case casVolumeVersion, volumeVersion, legacyVolumeVersion:
	default:
		return nil, 0, fmt.Errorf("%w: unsupported volume version %d", ErrCorruptVolume, version)
	}
	length := binary.BigEndian.Uint64(hdr[6:14])
	if length > maxVolumePayload {
		return nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorruptVolume, length)
	}
	payload := make([]byte, int(length))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated payload: %v", ErrCorruptVolume, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: missing checksum trailer: %v", ErrCorruptVolume, err)
	}
	if got, want := crc32.Checksum(payload, volumeCRC), binary.BigEndian.Uint32(trailer[:]); got != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorruptVolume, got, want)
	}
	return payload, version, nil
}

// LoadVolume reconstructs a volume saved by SaveVolume: the image frame
// is verified (length and CRC), the substrate tree restored, the index
// section loaded, semantic metadata re-attached, queries re-bound, and
// a settling Reindex run so the index and all transient links are
// consistent. Corrupt or truncated images — including any input that
// would panic the gob decoder — fail with a *vfs.PathError wrapping
// ErrCorruptVolume, with one deliberate exception: damage contained to
// a single segment block of the index section costs that segment only,
// and the settling Reindex re-indexes its documents from the restored
// tree. Version-2 images carry no index section and rebuild the index
// from scratch the same way.
func LoadVolume(r io.Reader, opts Options) (fs *FS, err error) {
	var loadedCAS *cas.FS
	defer func() {
		// gob can panic on adversarial input; surface it as corruption
		// rather than crashing the caller.
		if p := recover(); p != nil {
			fs, err = nil, volErr("loadvolume", fmt.Errorf("%w: decode panic: %v", ErrCorruptVolume, p))
		}
		// A failure after the content-addressed tree materialized (index
		// section, query binding, settling reindex) discards the tree —
		// release its blob references so a shared store is not left
		// pinning a volume that never loaded.
		if err != nil && loadedCAS != nil {
			loadedCAS.Release()
		}
	}()
	payload, version, err := readVolumePayload(r)
	if err != nil {
		return nil, volErr("loadvolume", err)
	}
	var img volumeImage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return nil, volErr("loadvolume", fmt.Errorf("%w: decoding volume: %v", ErrCorruptVolume, err))
	}
	if img.Version != int(version) {
		return nil, volErr("loadvolume", fmt.Errorf("%w: payload version %d in v%d frame", ErrCorruptVolume, img.Version, version))
	}

	// Restore the substrate. Version 4 materializes the manifest against
	// a content-addressed store — opts.BlobStore if set (shared across
	// volumes: blobs another tenant already loaded cost nothing beyond a
	// reference), else a private one. Earlier versions rebuild a MemFS
	// from the inline snapshot.
	var substrate vfs.FileSystem
	if version == casVolumeVersion {
		m, mErr := cas.DecodeManifest(img.Manifest)
		if mErr != nil {
			return nil, volErr("loadvolume", fmt.Errorf("%w: manifest: %v", ErrCorruptVolume, mErr))
		}
		store := opts.BlobStore
		if store == nil {
			store = cas.NewStore()
		}
		// The loader holds one temporary reference per section blob;
		// FromManifest takes the tree's own references on top, and the
		// temporaries are dropped on every exit path — success, corrupt
		// section, or dangling manifest — so a failed load leaves a
		// shared store exactly as it found it.
		loaded, bErr := readBlobSection(r, store)
		releaseTemp := func() {
			for _, h := range loaded {
				store.Unref(h)
			}
		}
		if bErr != nil {
			releaseTemp()
			return nil, volErr("loadvolume", bErr)
		}
		cfs, fErr := cas.FromManifest(m, store)
		if fErr != nil {
			releaseTemp()
			if errors.Is(fErr, vfs.ErrNotExist) {
				// The manifest names a blob neither the image nor the
				// shared store holds: the image is incomplete.
				fErr = fmt.Errorf("%w: %v", ErrCorruptVolume, fErr)
			}
			return nil, volErr("loadvolume", fErr)
		}
		releaseTemp()
		substrate, loadedCAS = cfs, cfs
	} else {
		mem, memErr := vfs.FromSnapshot(img.Nodes)
		if memErr != nil {
			return nil, volErr("loadvolume", fmt.Errorf("%w: %v", ErrCorruptVolume, memErr))
		}
		substrate = mem
	}

	// The index section follows the main frame (and, in version 4, the
	// blob section). Transducers are code, not data (Options.Transducers),
	// so they re-attach through load options — the loaded index is
	// non-empty, which is exactly what RegisterTransducer refuses.
	var preIx *index.Index
	if version == volumeVersion || version == casVolumeVersion {
		var ixOpts []index.LoadOption
		for ext, ts := range opts.Transducers {
			for _, t := range ts {
				ixOpts = append(ixOpts, index.WithLoadTransducer(ext, t))
			}
		}
		ix, ixErr := index.LoadIndex(r, ixOpts...)
		if ixErr != nil {
			if ix == nil || errors.Is(ixErr, index.ErrBlockFraming) {
				// The stream position is lost: a torn save. Nothing past
				// this point is trustworthy, so the whole image is
				// rejected and recovery proceeds from the previous one.
				return nil, volErr("loadvolume", fmt.Errorf("index section: %w", ixErr))
			}
			// Contained damage: the intact segments loaded, the torn
			// one's documents are simply absent, and the settling
			// Reindex below restores them from the tree.
		}
		preIx = ix
	}
	fs = newFS(substrate, opts, preIx)

	// Register every directory first, so queries can reference any of
	// them during binding.
	fs.mu.Lock()
	for _, di := range img.Dirs {
		fs.registerDirLocked(di.Path)
	}
	// Restore semantic state.
	for _, di := range img.Dirs {
		if !di.Semantic {
			continue
		}
		ds, _ := fs.stateAtLocked(di.Path)
		ds.semantic = true
		for t, c := range di.Class {
			ds.setClass(t, LinkClass(c))
			if name, ok := di.LinkNames[t]; ok {
				ds.linkName[t] = name
			}
		}
		for _, t := range di.Prohibited {
			ds.prohibited[t] = true
		}
	}
	// Bind queries (display form → UIDs) and dependency edges.
	for _, di := range img.Dirs {
		if !di.Semantic {
			continue
		}
		ds, _ := fs.stateAtLocked(di.Path)
		ast, err := parseQuery(di.Query)
		if err != nil {
			fs.mu.Unlock()
			return nil, volErr("loadvolume", fmt.Errorf("%w: re-parsing query of %s: %v", ErrCorruptVolume, di.Path, err))
		}
		if err := fs.installQueryLocked(ds, di.Path, ast); err != nil {
			fs.mu.Unlock()
			return nil, volErr("loadvolume", fmt.Errorf("%w: re-binding query of %s: %v", ErrCorruptVolume, di.Path, err))
		}
	}
	fs.mu.Unlock()

	// Rebuild the index and settle every consistency, as the paper's
	// reindex does.
	if _, err := fs.Reindex("/"); err != nil {
		return nil, err
	}
	return fs, nil
}

// SaveVolumeFile atomically saves the volume to path: the image is
// written to a temporary file in the same directory, fsynced, and
// renamed over path, then the directory is fsynced. A crash at any
// point leaves either the old image or the new one — never a torn mix.
func (fs *FS) SaveVolumeFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return volErr("savevolume", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := fs.SaveVolume(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(volErr("savevolume", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(volErr("savevolume", err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fail(volErr("savevolume", err))
	}
	// Persist the rename itself. Some platforms refuse to fsync
	// directories; the rename is still atomic there.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// LoadVolumeFile loads a volume image from path (see LoadVolume).
func LoadVolumeFile(path string, opts Options) (*FS, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, volErr("loadvolume", err)
	}
	defer f.Close()
	return LoadVolume(f, opts)
}
