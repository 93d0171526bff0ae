package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/vfs"
)

// Index persistence. Glimpse keeps its index on disk and loads it at
// startup; Save/Load give this index the same property, so a server
// (cmd/hacindexd) can restart without re-reading its document tree.
//
// A version-3 image is a container header followed by one framed block
// per resident segment:
//
//	"HACX" | u16 3 | u64 len | gob(containerHeader) | u32 CRC-32C
//	"HACS" | u16 3 | u64 len | gob(segmentImage)    | u32 CRC-32C   (× Segments)
//
// Every block carries its own length frame and CRC-32C trailer (the
// same shape as volume images, DESIGN.md §8), so corruption is
// contained: a bit-flipped segment block fails its own checksum and is
// skipped, the remaining blocks still load, and LoadIndex returns the
// partial index together with a *vfs.PathError wrapping
// vfs.ErrCorruptVolume. Only damage that loses the stream position — a
// corrupt container header, or a torn block frame — ends the load.
//
// Segments are compacted as they are written (tombstoned slots dropped,
// local IDs renumbered), so document IDs are NOT stable across
// save/load; they never were in version 2 either. Version-2 monolithic
// images are still accepted and migrate into a single sealed segment.

const (
	indexVersion       = 3
	legacyIndexVersion = 2
)

var (
	indexMagic   = [4]byte{'H', 'A', 'C', 'X'}
	segmentMagic = [4]byte{'H', 'A', 'C', 'S'}
)

// maxIndexPayload bounds the claimed payload length of any one block.
const maxIndexPayload = 1 << 30

var indexCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptIndex marks an index image that is truncated, bit-flipped,
// version-skewed or otherwise undecodable. It is the same sentinel as
// vfs.ErrCorruptVolume, so one errors.Is test covers both layers.
var ErrCorruptIndex = vfs.ErrCorruptVolume

// ErrBlockFraming marks damage that loses the stream position (bad
// magic, torn frame): loading cannot continue past it. Callers that
// embed an index image in a larger stream (hac.SaveVolume) test for it
// with errors.Is to distinguish a torn save — which invalidates
// everything that follows — from contained damage that costs only the
// blocks it touched.
var ErrBlockFraming = errors.New("index: block framing damaged")

type containerHeader struct {
	Version  int
	Segments int    // segment blocks that follow
	NextSeg  uint32 // next segment ID to allocate after load
}

// legacyHeader is the version-2 monolithic gob stream header.
type legacyHeader struct {
	Version int
	Docs    int
	Terms   int
}

type docImage struct {
	Path    string
	ModTime time.Time
	Size    int
}

type postingImage struct {
	Term string
	IDs  []uint32 // legacy uncompressed form; images written before Packed existed
	// Packed is the posting set in the bitset container codec (array /
	// bitmap / run picked by cardinality), the on-disk analogue of the
	// in-memory compressed containers. New images write Packed only; IDs
	// is still accepted so older images keep loading (gob leaves absent
	// fields zero).
	Packed []byte

	// set is the decoded posting (Packed and IDs folded together, every
	// slot checked against the segment's document table). gob does not
	// see it; decode fills it on load and installSegment takes it over.
	set *bitset.Container
}

// decode folds the posting's wire forms into pi.set — the one decode of
// a load — and rejects any slot outside [0, nDocs).
func (pi *postingImage) decode(nDocs int) error {
	set := bitset.NewContainer()
	if len(pi.Packed) > 0 {
		c, n, err := bitset.DecodeContainer(pi.Packed)
		if err != nil {
			return fmt.Errorf("%w: posting for %q: %v", vfs.ErrCorruptVolume, pi.Term, err)
		}
		if n != len(pi.Packed) {
			return fmt.Errorf("%w: posting for %q has %d trailing bytes", vfs.ErrCorruptVolume, pi.Term, len(pi.Packed)-n)
		}
		if m, ok := c.Max(); ok && int(m) >= nDocs {
			return fmt.Errorf("%w: packed posting for %q references slot %d of %d", vfs.ErrCorruptVolume, pi.Term, m, nDocs)
		}
		set = c
	}
	for _, l := range pi.IDs {
		if int(l) >= nDocs {
			return fmt.Errorf("%w: posting for %q references slot %d of %d", vfs.ErrCorruptVolume, pi.Term, l, nDocs)
		}
		set.Add(l)
	}
	pi.set = set
	return nil
}

// segmentImage is the persisted form of one compacted segment.
type segmentImage struct {
	ID       uint32
	Docs     []docImage
	Postings []postingImage
}

func ixErr(err error) error {
	return &vfs.PathError{Op: "loadindex", Path: "index", Err: err}
}

// writeBlock writes one framed block: magic | u16 version | u64 length
// | payload | u32 CRC-32C.
func writeBlock(w io.Writer, magic [4]byte, payload []byte) error {
	var hdr [14]byte
	copy(hdr[:4], magic[:])
	binary.BigEndian.PutUint16(hdr[4:6], indexVersion)
	binary.BigEndian.PutUint64(hdr[6:14], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("index: writing block header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("index: writing block payload: %w", err)
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.Checksum(payload, indexCRC))
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("index: writing block checksum: %w", err)
	}
	return nil
}

// Save writes a checksummed image of the index to w: a container header
// block, then one block per non-empty resident segment, each compacted
// (dead slots dropped). The in-memory index is not modified.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	var blocks [][]byte
	var encErr error
	ix.eachSegmentLocked(func(s *segment) {
		if encErr != nil {
			return
		}
		img := encodeSegmentLocked(s)
		if img == nil {
			return
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(img); err != nil {
			encErr = fmt.Errorf("index: encoding segment %d: %w", s.id, err)
			return
		}
		blocks = append(blocks, buf.Bytes())
	})
	if encErr != nil {
		return encErr
	}

	var hdr bytes.Buffer
	ch := containerHeader{Version: indexVersion, Segments: len(blocks), NextSeg: ix.nextSeg}
	if err := gob.NewEncoder(&hdr).Encode(&ch); err != nil {
		return fmt.Errorf("index: encoding header: %w", err)
	}
	if err := writeBlock(w, indexMagic, hdr.Bytes()); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := writeBlock(w, segmentMagic, b); err != nil {
			return err
		}
	}
	return nil
}

// encodeSegmentLocked builds the compacted image of one segment, or nil
// if it holds no live documents. Caller holds ix.mu.
func encodeSegmentLocked(s *segment) *segmentImage {
	img := &segmentImage{ID: s.id}
	remap := make([]uint32, len(s.docs))
	for l, d := range s.docs {
		if !d.alive {
			remap[l] = noLocal
			continue
		}
		remap[l] = uint32(len(img.Docs))
		img.Docs = append(img.Docs, docImage{Path: d.path, ModTime: d.modTime, Size: d.size})
	}
	if len(img.Docs) == 0 {
		return nil
	}
	for term, posting := range s.postings {
		c := bitset.NewContainer()
		posting.Range(func(l uint32) bool {
			if nl := remap[l]; nl != noLocal {
				c.Add(nl) // remap is monotonic, so adds stay ascending
			}
			return true
		})
		if c.Any() {
			c.Pack()
			img.Postings = append(img.Postings, postingImage{Term: term, Packed: c.AppendBinary(nil)})
		}
	}
	return img
}

// LoadOption configures the index an image is loaded into, before any
// segments are installed. Tokenizers and transducers are code, not
// data, so a caller that used them at index time re-attaches them here
// — the usual RegisterTransducer/SetTokenizer calls would fail on the
// loaded (non-empty) store.
type LoadOption func(*Index)

// WithLoadTokenizer installs t as the loaded index's tokenizer.
func WithLoadTokenizer(t Tokenizer) LoadOption {
	return func(ix *Index) { ix.tok = t }
}

// WithLoadTransducer attaches a transducer to the loaded index (see
// RegisterTransducer for the extension convention).
func WithLoadTransducer(ext string, t Transducer) LoadOption {
	return func(ix *Index) { ix.registerTransducerLocked(ext, t) }
}

// readFrame reads one block frame whose header has already been
// consumed into hdr, verifying magic, version, length bound and CRC.
// Failures that lose the stream position wrap ErrBlockFraming.
func readFrame(r io.Reader, hdr [14]byte, magic [4]byte) (payload []byte, version uint16, err error) {
	if !bytes.Equal(hdr[:4], magic[:]) {
		return nil, 0, fmt.Errorf("%w: %w: bad magic %q", vfs.ErrCorruptVolume, ErrBlockFraming, hdr[:4])
	}
	version = binary.BigEndian.Uint16(hdr[4:6])
	length := binary.BigEndian.Uint64(hdr[6:14])
	if length > maxIndexPayload {
		return nil, 0, fmt.Errorf("%w: %w: implausible payload length %d", vfs.ErrCorruptVolume, ErrBlockFraming, length)
	}
	payload = make([]byte, int(length))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: %w: truncated payload: %v", vfs.ErrCorruptVolume, ErrBlockFraming, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: %w: missing checksum trailer: %v", vfs.ErrCorruptVolume, ErrBlockFraming, err)
	}
	if got, want := crc32.Checksum(payload, indexCRC), binary.BigEndian.Uint32(trailer[:]); got != want {
		// The frame itself is intact — length and trailer were present —
		// so the reader is positioned at the next block: not a framing
		// error, the caller may skip this block.
		return nil, 0, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", vfs.ErrCorruptVolume, got, want)
	}
	return payload, version, nil
}

// decodeSegmentImage decodes and validates one segment block payload.
// gob panics on adversarial input are surfaced as errors.
func decodeSegmentImage(payload []byte) (img *segmentImage, err error) {
	defer func() {
		if p := recover(); p != nil {
			img, err = nil, fmt.Errorf("%w: segment decode panic: %v", vfs.ErrCorruptVolume, p)
		}
	}()
	img = new(segmentImage)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(img); err != nil {
		return nil, fmt.Errorf("%w: decoding segment: %v", vfs.ErrCorruptVolume, err)
	}
	for i := range img.Postings {
		if err := img.Postings[i].decode(len(img.Docs)); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// loadSegmentBlock reads one framed segment block from r and decodes it
// into its image. It is the unit the FuzzLoadSegment target drives:
// whatever the input, it must return an error rather than panic.
func loadSegmentBlock(r io.Reader) (*segmentImage, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %w: short block header: %v", vfs.ErrCorruptVolume, ErrBlockFraming, err)
	}
	payload, version, err := readFrame(r, hdr, segmentMagic)
	if err != nil {
		return nil, err
	}
	if version != indexVersion {
		return nil, fmt.Errorf("%w: unsupported segment version %d", vfs.ErrCorruptVolume, version)
	}
	return decodeSegmentImage(payload)
}

// newLoadedIndex builds the empty index an image loads into, with the
// load options applied before any documents exist.
func newLoadedIndex(opts []LoadOption) *Index {
	ix := &Index{
		bySeg:         make(map[uint32]*segment),
		byPath:        make(map[string]DocID),
		forward:       make(map[uint32][]DocID),
		sealThreshold: DefaultSealThreshold,
		tok:           Tokenize,
	}
	for _, o := range opts {
		o(ix)
	}
	return ix
}

// installSegment attaches one decoded segment image (every posting has
// been through postingImage.decode) as a sealed segment, taking over
// the decoded containers. Duplicate paths across blocks (only possible
// in a damaged image) resolve newest-wins, tombstoning the older slot.
func (ix *Index) installSegment(img *segmentImage) error {
	if _, dup := ix.bySeg[img.ID]; dup {
		return fmt.Errorf("%w: duplicate segment ID %d", vfs.ErrCorruptVolume, img.ID)
	}
	s := newSegment(img.ID)
	for local, di := range img.Docs {
		s.docs = append(s.docs, docEntry{path: di.Path, modTime: di.ModTime, size: di.Size, alive: true})
		s.dirsAdd(di.Path, uint32(local))
	}
	for _, pi := range img.Postings {
		if pi.set.Any() {
			s.postings[pi.Term] = pi.set
		}
	}
	s.seal()
	ix.bySeg[s.id] = s
	ix.sealed = append(ix.sealed, s)
	ix.totalSlots += len(s.docs)
	ix.liveDocs += len(s.docs)
	ix.version.Add(1)
	for local := range s.docs {
		p := s.docs[local].path
		if old, ok := ix.byPath[p]; ok {
			ix.tombstoneLocked(old)
		}
		ix.byPath[p] = makeID(s.id, uint32(local))
	}
	if s.id >= ix.nextSeg {
		ix.nextSeg = s.id + 1
	}
	return nil
}

// LoadIndex reads an image written by Save. Version-3 images load
// segment by segment: a block that fails its checksum or decode is
// skipped and loading continues, so one flipped bit costs one segment,
// not the index. In that case LoadIndex returns the partial index
// together with a *vfs.PathError wrapping vfs.ErrCorruptVolume
// describing the first damage; callers that can re-sync from the source
// tree (hac.LoadVolume) keep the partial index, strict callers treat
// the non-nil error as fatal. Version-2 monolithic images migrate into
// a single sealed segment.
//
// Load options re-attach tokenizers and transducers (code, not data)
// before segments install; see LoadOption.
func LoadIndex(r io.Reader, opts ...LoadOption) (*Index, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ixErr(fmt.Errorf("%w: short header: %v", vfs.ErrCorruptVolume, err))
	}
	payload, version, err := readFrame(r, hdr, indexMagic)
	if err != nil {
		return nil, ixErr(err)
	}
	switch version {
	case legacyIndexVersion:
		return loadLegacyIndex(payload, opts)
	case indexVersion:
	default:
		return nil, ixErr(fmt.Errorf("%w: unsupported index version %d", vfs.ErrCorruptVolume, version))
	}

	var ch containerHeader
	if err := decodeContainerHeader(payload, &ch); err != nil {
		return nil, ixErr(err)
	}

	ix := newLoadedIndex(opts)
	var firstErr error
	for i := 0; i < ch.Segments; i++ {
		img, err := loadSegmentBlock(r)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("segment block %d of %d: %w", i, ch.Segments, err)
			}
			if errors.Is(err, ErrBlockFraming) {
				break // stream position lost: intact earlier blocks survive
			}
			continue // this block is damaged, the next may be fine
		}
		if err := ix.installSegment(img); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("segment block %d of %d: %w", i, ch.Segments, err)
		}
	}
	if ch.NextSeg > ix.nextSeg {
		ix.nextSeg = ch.NextSeg
	}
	ix.newActiveLocked()
	if firstErr != nil {
		return ix, ixErr(firstErr)
	}
	return ix, nil
}

func decodeContainerHeader(payload []byte, ch *containerHeader) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: header decode panic: %v", vfs.ErrCorruptVolume, p)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ch); err != nil {
		return fmt.Errorf("%w: decoding header: %v", vfs.ErrCorruptVolume, err)
	}
	if ch.Version != indexVersion {
		return fmt.Errorf("%w: header version %d in v%d frame", vfs.ErrCorruptVolume, ch.Version, indexVersion)
	}
	if ch.Segments < 0 || ch.Segments > 1<<20 {
		return fmt.Errorf("%w: implausible segment count %d", vfs.ErrCorruptVolume, ch.Segments)
	}
	return nil
}

// loadLegacyIndex migrates a version-2 monolithic payload: all
// documents land in one sealed segment and incremental updates resume
// in a fresh active segment on top.
func loadLegacyIndex(payload []byte, opts []LoadOption) (ix *Index, err error) {
	defer func() {
		if p := recover(); p != nil {
			ix, err = nil, ixErr(fmt.Errorf("%w: decode panic: %v", vfs.ErrCorruptVolume, p))
		}
	}()
	dec := gob.NewDecoder(bytes.NewReader(payload))
	var lh legacyHeader
	if err := dec.Decode(&lh); err != nil {
		return nil, ixErr(fmt.Errorf("%w: decoding legacy header: %v", vfs.ErrCorruptVolume, err))
	}
	if lh.Version != legacyIndexVersion {
		return nil, ixErr(fmt.Errorf("%w: unsupported version %d", vfs.ErrCorruptVolume, lh.Version))
	}
	if lh.Docs < 0 || lh.Terms < 0 {
		return nil, ixErr(fmt.Errorf("%w: negative counts in header", vfs.ErrCorruptVolume))
	}
	img := &segmentImage{ID: 0}
	for i := 0; i < lh.Docs; i++ {
		var di docImage
		if err := dec.Decode(&di); err != nil {
			return nil, ixErr(fmt.Errorf("%w: decoding document %d: %v", vfs.ErrCorruptVolume, i, err))
		}
		img.Docs = append(img.Docs, di)
	}
	for i := 0; i < lh.Terms; i++ {
		var pi postingImage
		if err := dec.Decode(&pi); err != nil {
			return nil, ixErr(fmt.Errorf("%w: decoding posting %d: %v", vfs.ErrCorruptVolume, i, err))
		}
		if err := pi.decode(lh.Docs); err != nil {
			return nil, ixErr(err)
		}
		img.Postings = append(img.Postings, pi)
	}
	ix = newLoadedIndex(opts)
	if lh.Docs > 0 {
		if err := ix.installSegment(img); err != nil {
			return nil, ixErr(err)
		}
	}
	ix.newActiveLocked()
	return ix, nil
}
