package hac

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hacfs/internal/gobwire"
	"hacfs/internal/index"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// Volume persistence. The paper's HAC stores its per-directory
// structures on disk alongside the file system; here the whole volume —
// substrate tree plus HAC's semantic metadata — serializes to one
// stream. A volume that is saved is content-addressed: the image is the
// substrate's manifest (paths and content hashes), a blob section with
// each distinct content blob once, HAC's per-directory state, and the
// segmented index (index.Save's per-segment blocks), so a load resumes
// from the saved postings and the settling Reindex only re-tokenizes
// files that actually changed. One image version exists (4); any other
// is rejected as corrupt.
//
// The on-disk image is crash-safe (DESIGN.md §8): a fixed header
// carries a magic number, a format version and the payload length, the
// gob payload follows, and a CRC-32C trailer covers the payload. gob
// decodes the payload; the saver writes gob's bytes itself, without
// reflection (writeVolumeImage, FuzzVolumeImageEncoding). A
// torn or bit-flipped main frame fails the length or checksum test and
// LoadVolume reports a typed *vfs.PathError wrapping ErrCorruptVolume
// instead of feeding garbage to gob. The appended index section is
// framed per segment: damage that loses the stream position (a torn
// save) rejects the whole image — recovery proceeds from the previous
// good one — while a bit flip contained to one segment block costs only
// that segment, which the load-time Reindex restores from the file
// tree. SaveVolumeFile writes through a temp file, fsyncs and renames,
// so a crash during save leaves the previous image intact.

// volumeVersion is the one image format: manifest frame, blob section,
// index section.
const volumeVersion = 4

// volumeMagic opens every volume image ("HACV" plus a format byte).
var volumeMagic = [4]byte{'H', 'A', 'C', 'V'}

// maxVolumePayload bounds the claimed payload length of the main frame
// and of each blob; the loader reads a payload as its bytes arrive
// (gobwire.ReadFull), so a corrupt length costs memory in proportion to
// the input, not to the claim.
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
	// ErrNoSnapshot means the volume's substrate is not content-addressed
	// (no cas.FS beneath its layering), so there is no manifest to save:
	// SaveVolume refuses it. Volumes that are saved live on cas.FS.
	ErrNoSnapshot = errors.New("hac: substrate is not content-addressed")
)

// volErr wraps persistence failures in the typed error shape of the
// rest of the API (errors.As(*vfs.PathError), errors.Is(sentinel)).
func volErr(op string, err error) error {
	return &vfs.PathError{Op: op, Path: "volume", Err: err}
}

type volumeImage struct {
	Version int
	Dirs    []dirImage
	// Manifest is the encoded cas.Manifest: the tree with file content
	// referenced by hash. The blobs themselves follow the main frame in
	// the blob section, each stored once no matter how many files (or
	// tenants at load time, via a shared store) reference it.
	Manifest []byte
}

// dirImage is the persisted form of one directory's HAC state. The
// query is stored in display form (dir: references as path names) and
// re-bound on load, since UIDs are an in-memory notion.
type dirImage struct {
	Path       string
	Semantic   bool
	Query      string
	Class      map[string]int    // target → LinkClass: permanent
	LinkNames  map[string]string // target → link name, for Class
	Prohibited []string
	// The transient set, sorted, and the link names in it that are not
	// the target's base name. Images written before transient links were
	// a view have neither: they list transient links in Class. Images
	// written before links were a view hold a symlink in the manifest for
	// each link in Class.
	Trans      []string
	TransNames map[string]string
}

// CASManifest returns the live manifest of the volume's
// content-addressed substrate — the send half of manifest-diff
// replication (remotefs.BlobSource). A volume on any other substrate
// returns vfs.ErrUnsupported, and a mirroring peer fails with it.
func (fs *FS) CASManifest() (*cas.Manifest, error) {
	cfs := cas.Of(fs.under)
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
	cfs := cas.Of(fs.under)
	if cfs == nil {
		return nil, &vfs.PathError{Op: "blobs", Path: "/", Err: vfs.ErrUnsupported}
	}
	return cfs.CASBlobs(hashes)
}

// SaveVolume writes the volume — files, directories, links, queries and
// link classifications — to w as a checksummed, length-framed image.
//
// The substrate must be content-addressed (cas.FS, possibly wrapped in
// vfs.FaultFS or another layer exposing Under): the main frame carries
// the manifest (paths and hashes, no content) and a blob section
// follows with each distinct blob exactly once — files sharing content,
// however many, cost one copy, and clean files cost no re-hashing
// (their hashes are cached on the tree). Any other substrate is refused
// with a *vfs.PathError wrapping ErrNoSnapshot.
//
// The index section is encoded into the index's buffer on a second
// goroutine while this one writes the manifest frame and the blob
// section, and is written after them. That goroutine takes only the
// index's lock, and releases it before it waits for the head; this one
// takes the volume's and, inside it, the substrate's, the order every
// HAC mutation takes them in. Both halves write gob's wire format
// directly (internal/gobwire) into buffers kept for the next save, so
// once a save has sized them, a save of the volume allocates no memory
// per file, document or link (TestSaveAllocs). Saves of one volume run
// one at a time.
func (fs *FS) SaveVolume(w io.Writer) error {
	cfs := cas.Of(fs.under)
	if cfs == nil {
		return volErr("savevolume", fmt.Errorf("%w: substrate %T", ErrNoSnapshot, fs.under))
	}
	fs.saveMu.Lock()
	defer fs.saveMu.Unlock()
	// gob numbers a type the first time any encoder meets it, and the
	// numbers are written into the image: take the volume's types from
	// gob before the index goroutine takes its own, as a serial save
	// would, so that every save in a process writes the same bytes.
	volT, err := volumeType()
	if err != nil {
		return volErr("savevolume", fmt.Errorf("volume type: %w", err))
	}
	// One buffer under the three sections: the blob section alone is two
	// small writes per blob, and most blobs are a few hundred bytes.
	// (Made over nil, not w: given a large enough *bufio.Writer,
	// NewWriterSize returns it, and the caller's writer is not ours to
	// keep.)
	sc := &fs.save
	if sc.bw == nil {
		sc.bw = bufio.NewWriterSize(nil, 64<<10)
	}
	sc.bw.Reset(w)
	defer sc.bw.Reset(nil)
	head := make(chan error, 1)
	ixDone := make(chan error, 1)
	go func() { ixDone <- fs.ix.Save(&afterHead{w: sc.bw, head: head}) }()

	err = fs.writeVolumeHead(sc.bw, cfs, volT)
	head <- err
	if ixErr := <-ixDone; err == nil && ixErr != nil {
		err = fmt.Errorf("writing index section: %w", ixErr)
	}
	if err == nil {
		err = sc.bw.Flush()
	}
	if err != nil {
		return volErr("savevolume", err)
	}
	return nil
}

// afterHead is the index section's writer: the section (the segmented
// image, one framed block per segment; see internal/index/persist.go)
// goes to w once the head — the main frame and the blob section — has
// been written there, or fails with the head's error.
type afterHead struct {
	w      io.Writer
	head   <-chan error
	err    error
	waited bool
}

func (a *afterHead) Write(p []byte) (int, error) {
	if !a.waited {
		a.waited, a.err = true, <-a.head
	}
	if a.err != nil {
		return 0, a.err
	}
	return a.w.Write(p)
}

// volumeType is the main frame's gob descriptors and id, taken from
// encoding/gob at a process's first save (see SaveVolume).
var volumeType = sync.OnceValues(gobwire.TypeOf[volumeImage])

// volumeScratch is what SaveVolume keeps from one save to the next: the
// manifest bytes and blob list of the substrate's image, the directory
// records, the encoder, the main frame and the buffered writer.
type volumeScratch struct {
	manifest   []byte
	blobs      []cas.Blob
	uids       []uint64
	dirs       []dirRecord
	prohibited []string
	w          gobwire.Writer
	frame      []byte
	bw         *bufio.Writer
}

// dirRecord is one directory's dirImage as the main frame encodes it,
// read off its dirState under the volume's read lock: every permanent
// link is in Class (as Permanent) and LinkNames, a semantic directory
// sends both maps even when empty, and TransNames is sent when the
// state has a transient-name map.
type dirRecord struct {
	path       string
	semantic   bool
	query      string
	perm       map[string]string // Class and LinkNames
	prohibited []string          // sorted
	trans      []string
	transName  map[string]string // TransNames; nil is not sent
}

// writeVolumeHead writes the image's main frame — the manifest and every
// directory's HAC state — and the blob section after it. The frame is
// encoded in gob's wire format by gobwire, sized first and written into
// one buffer kept for the next save, with one copy of the manifest
// bytes.
func (fs *FS) writeVolumeHead(w io.Writer, cfs *cas.FS, volT *gobwire.Type) error {
	sc := &fs.save
	defer sc.release()
	// The read lock spans the manifest and the directory state, so that
	// every directory the image registers is in its tree: HAC creates and
	// removes directories under its write lock. The frame is encoded
	// under it too: the records share the directories' maps.
	fs.mu.RLock()
	var err error
	sc.manifest, sc.blobs, err = cfs.AppendImage(sc.manifest[:0], sc.blobs[:0])
	if err != nil {
		fs.mu.RUnlock()
		return err
	}
	sc.uids = sc.uids[:0]
	for uid := range fs.dirs {
		sc.uids = append(sc.uids, uid)
	}
	slices.Sort(sc.uids)
	sc.dirs, sc.prohibited = sc.dirs[:0], sc.prohibited[:0]
	for _, uid := range sc.uids {
		ds := fs.dirs[uid]
		p, ok := fs.pathOfLocked(uid)
		if !ok {
			continue
		}
		d := dirRecord{path: p, semantic: ds.semantic}
		if ds.semantic {
			// An image holds link names: unnamed links get theirs.
			if err := fs.nameLinksLocked(ds); err != nil {
				fs.mu.RUnlock()
				return err
			}
			d.query = fs.queryDisplayLocked(ds)
			d.perm, d.trans, d.transName = ds.perm, ds.trans, ds.transName
			from := len(sc.prohibited)
			for t := range ds.prohibited {
				sc.prohibited = append(sc.prohibited, t)
			}
			d.prohibited = sc.prohibited[from:len(sc.prohibited):len(sc.prohibited)]
			slices.Sort(d.prohibited)
		}
		sc.dirs = append(sc.dirs, d)
	}
	sc.w.Count()
	writeVolumeImage(&sc.w, sc.dirs, sc.manifest)
	n := sc.w.Len()
	payload := volT.Len(n)
	frame := slices.Grow(sc.frame[:0], volumeHeaderLen+payload+4)
	frame = appendVolumeHeader(frame, volumeVersion, payload)
	sc.w.Append(volT.AppendHead(frame, n))
	writeVolumeImage(&sc.w, sc.dirs, sc.manifest)
	fs.mu.RUnlock()
	frame = sc.w.Buffer()
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame[volumeHeaderLen:], volumeCRC))
	sc.frame = frame
	if _, err := w.Write(frame); err != nil {
		return err
	}
	// The blob section: every distinct content blob the manifest
	// references, hash-framed, before the index section.
	return writeBlobSection(w, sc.blobs)
}

// release drops the records' references to directory state and the
// blob list's to content, so the kept storage pins neither.
func (sc *volumeScratch) release() {
	clear(sc.dirs)
	clear(sc.prohibited)
	clear(sc.blobs)
}

// writeVolumeImage writes a volumeImage's fields — the image version,
// the directories and the manifest — as gob encodes them.
func writeVolumeImage(w *gobwire.Writer, dirs []dirRecord, manifest []byte) {
	s := w.Struct()
	s.Int(0, volumeVersion)
	if s.Slice(1, len(dirs)) {
		for i := range dirs {
			writeDirImage(w, &dirs[i])
		}
	}
	s.Bytes(2, manifest)
	s.End()
}

// writeDirImage writes d as gob encodes its dirImage. gob sends a map's
// entries in iteration order, so two saves of a map of two or more
// entries differ in order, not content — as they did through gob.
func writeDirImage(w *gobwire.Writer, d *dirRecord) {
	s := w.Struct()
	s.String(0, d.path)
	s.Bool(1, d.semantic)
	if d.semantic {
		s.String(2, d.query)
		s.Map(3, len(d.perm))
		for t := range d.perm {
			w.String(t)
			w.Int(int64(Permanent))
		}
		s.Map(4, len(d.perm))
		for t, name := range d.perm {
			w.String(t)
			w.String(name)
		}
		if s.Slice(5, len(d.prohibited)) {
			for _, t := range d.prohibited {
				w.String(t)
			}
		}
		if s.Slice(6, len(d.trans)) {
			for _, t := range d.trans {
				w.String(t)
			}
		}
		if d.transName != nil {
			s.Map(7, len(d.transName))
			for t, name := range d.transName {
				w.String(t)
				w.String(name)
			}
		}
	}
	s.End()
}

// Blob section framing: magic "HACB" | u32 blob count | per blob:
// hash[32] | u64 length | content. The SHA-256 hash doubles as the
// integrity check — the loader recomputes it over the content, so a
// flipped bit anywhere in a blob rejects the image with
// ErrCorruptVolume (volume content is all-or-nothing; the per-segment
// tolerance of the index section is unchanged).
var blobSectionMagic = [4]byte{'H', 'A', 'C', 'B'}

// maxBlobCount bounds the declared blob count before any allocation.
const maxBlobCount = 1 << 24

func writeBlobSection(w io.Writer, blobs []cas.Blob) error {
	// One header buffer for the section: w.Write makes it escape, and
	// an array per blob would be an allocation per blob.
	var hdr [40]byte
	copy(hdr[:4], blobSectionMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(blobs)))
	if _, err := w.Write(hdr[:8]); err != nil {
		return err
	}
	for _, b := range blobs {
		copy(hdr[:32], b.Hash[:])
		binary.BigEndian.PutUint64(hdr[32:40], uint64(len(b.Data)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(b.Data); err != nil {
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
		data, err := gobwire.ReadFull(r, length)
		if err != nil {
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

// volumeHeaderLen is the main frame's header: magic | u16 version | u64
// payload length. A u32 CRC-32C of the payload follows the payload.
const volumeHeaderLen = 14

// appendVolumeHeader appends the header of a main frame whose payload is
// n bytes.
func appendVolumeHeader(dst []byte, version uint16, n int) []byte {
	dst = append(dst, volumeMagic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, version)
	return binary.BigEndian.AppendUint64(dst, uint64(n))
}

// readVolumePayload reads and verifies one framed image, returning the
// gob payload. A frame of any version but volumeVersion is rejected.
// Every failure wraps ErrCorruptVolume.
func readVolumePayload(r io.Reader) ([]byte, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorruptVolume, err)
	}
	if !bytes.Equal(hdr[:4], volumeMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptVolume, hdr[:4])
	}
	if version := binary.BigEndian.Uint16(hdr[4:6]); version != volumeVersion {
		return nil, fmt.Errorf("%w: unsupported volume version %d", ErrCorruptVolume, version)
	}
	length := binary.BigEndian.Uint64(hdr[6:14])
	if length > maxVolumePayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptVolume, length)
	}
	payload, err := gobwire.ReadFull(r, length)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorruptVolume, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum trailer: %v", ErrCorruptVolume, err)
	}
	if got, want := crc32.Checksum(payload, volumeCRC), binary.BigEndian.Uint32(trailer[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorruptVolume, got, want)
	}
	return payload, nil
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
// tree.
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
	payload, err := readVolumePayload(r)
	if err != nil {
		return nil, volErr("loadvolume", err)
	}
	var img volumeImage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return nil, volErr("loadvolume", fmt.Errorf("%w: decoding volume: %v", ErrCorruptVolume, err))
	}
	if img.Version != volumeVersion {
		return nil, volErr("loadvolume", fmt.Errorf("%w: payload version %d in v%d frame", ErrCorruptVolume, img.Version, volumeVersion))
	}

	// Restore the substrate: materialize the manifest against a
	// content-addressed store — opts.BlobStore if set (shared across
	// volumes: blobs another tenant already loaded cost nothing beyond a
	// reference), else a private one.
	m, err := cas.DecodeManifest(img.Manifest)
	if err != nil {
		return nil, volErr("loadvolume", fmt.Errorf("%w: manifest: %v", ErrCorruptVolume, err))
	}
	store := opts.BlobStore
	if store == nil {
		store = cas.NewStore()
	}
	// The loader holds one temporary reference per section blob;
	// FromManifest takes the tree's own references on top, and the
	// temporaries are dropped on every exit path — success, corrupt
	// section, or dangling manifest — so a failed load leaves a shared
	// store exactly as it found it.
	loaded, err := readBlobSection(r, store)
	if err == nil {
		if loadedCAS, err = cas.FromManifest(m, store); err != nil {
			// A manifest that does not materialize — it names a blob
			// neither the image nor the shared store holds, or a malformed
			// tree — is a damaged image.
			err = fmt.Errorf("%w: %v", ErrCorruptVolume, err)
		}
	}
	for _, h := range loaded {
		store.Unref(h)
	}
	if err != nil {
		return nil, volErr("loadvolume", err)
	}

	// The index section follows the blob section. Transducers are code,
	// not data (Options.Transducers), so they re-attach through load
	// options — the loaded index is non-empty, which is exactly what
	// RegisterTransducer refuses.
	var ixOpts []index.LoadOption
	for ext, ts := range opts.Transducers {
		for _, t := range ts {
			ixOpts = append(ixOpts, index.WithLoadTransducer(ext, t))
		}
	}
	preIx, ixErr := index.LoadIndex(r, ixOpts...)
	if ixErr != nil && (preIx == nil || errors.Is(ixErr, index.ErrBlockFraming)) {
		// The stream position is lost: a torn save. Nothing past this
		// point is trustworthy, so the whole image is rejected and
		// recovery proceeds from the previous one. Any other index error
		// is contained damage: the intact segments loaded, the torn one's
		// documents are simply absent, and the settling Reindex below
		// restores them from the tree.
		return nil, volErr("loadvolume", fmt.Errorf("index section: %w", ixErr))
	}
	fs = newFS(loadedCAS, opts, preIx)

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
		for _, t := range di.Prohibited {
			ds.prohibited[t] = true
		}
		if err := fs.restoreLinksLocked(ds, di); err != nil {
			fs.mu.Unlock()
			return nil, volErr("loadvolume", fmt.Errorf("restoring links of %s: %w", di.Path, err))
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

// restoreLinksLocked re-attaches a saved directory's links to ds, whose
// prohibitions are restored. An image written before links were a view
// holds a symlink in the restored tree for each link in Class, transient
// or permanent: the symlinks are removed, and the links join the view.
// Caller holds fs.mu for writing.
func (fs *FS) restoreLinksLocked(ds *dirState, di dirImage) error {
	trans := di.Trans
	names := di.TransNames
	for t, c := range di.Class {
		if t == "" {
			continue
		}
		name := di.LinkNames[t]
		if !validLinkName(name) {
			name = linkBaseName(t)
		}
		lp := vfs.Join(di.Path, name)
		if info, err := fs.under.Lstat(lp); err == nil && info.Type == vfs.TypeSymlink && info.Target == t {
			if err := fs.under.Remove(lp); err != nil {
				return err
			}
		}
		if LinkClass(c) == Permanent {
			ds.setPermanent(t, name)
			continue
		}
		trans = append(trans, t)
		if names == nil {
			names = make(map[string]string)
		}
		names[t] = name
	}
	sort.Strings(trans)
	trans = slices.Compact(trans)
	ds.trans = slices.DeleteFunc(trans, func(t string) bool {
		_, perm := ds.perm[t]
		return t == "" || perm || ds.prohibited[t]
	})
	for _, t := range ds.trans {
		if name, ok := names[t]; ok && validLinkName(name) && name != linkBaseName(t) {
			ds.setTransName(t, name)
		}
	}
	// The restored names are names shown: index them now, so that no
	// later build names the links afresh.
	ds.indexHeldNames()
	ds.changed = time.Now()
	return nil
}

// validLinkName reports whether name, read from an image, can name an
// entry of a directory.
func validLinkName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.Contains(name, "/")
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
