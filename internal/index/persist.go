package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/gobwire"
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
// save/load. An image of any other version — the monolithic version 2
// included — is rejected as corrupt.
//
// The payloads are gob streams, one fresh encoder's output per block,
// and encoding/gob decodes them. Save does not run gob's reflective
// encoder: it writes the same bytes itself (internal/gobwire), with each
// block's type descriptors taken from encoding/gob once per process, so
// a save sizes the whole section before it encodes and fills one buffer
// that it keeps for the next save. FuzzSegmentImageEncoding holds the
// two encoders to the same bytes.

const indexVersion = 3

var (
	indexMagic   = [4]byte{'H', 'A', 'C', 'X'}
	segmentMagic = [4]byte{'H', 'A', 'C', 'S'}
)

// maxIndexPayload bounds the claimed payload length of any one block.
// readFrame reads a payload as its bytes arrive (gobwire.ReadFull), so a
// torn frame that claims up to this much costs memory in proportion to
// the input.
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

// blockHeaderLen and blockTrailerLen frame every block: magic | u16
// version | u64 payload length before it, u32 CRC-32C after.
const (
	blockHeaderLen  = 14
	blockTrailerLen = 4
)

// openBlock appends the header of a block whose payload is n bytes and
// returns the payload's offset; closeBlock appends the trailer of the
// payload from that offset to the end of dst.
func openBlock(dst []byte, magic [4]byte, n int) ([]byte, int) {
	dst = append(dst, magic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, indexVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(n))
	return dst, len(dst)
}

func closeBlock(dst []byte, payload int) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[payload:], indexCRC))
}

// Save writes a checksummed image of the index to w: a container header
// block, then one block per non-empty resident segment, each compacted
// (dead slots dropped). The in-memory index is not modified.
//
// Every segment is compacted under the read lock; the whole section is
// then sized and encoded in gob's wire format by gobwire, each block
// framed in place in one buffer, and the lock is released before w is
// written. The buffer and the compaction scratch are kept for the next
// save. gob stays the decoder: the bytes are what a fresh gob.Encoder
// writes for each block, with the type descriptors taken from gob the
// first time a save meets the type — segmentImage before containerHeader,
// the order a save has always numbered them in.
func (ix *Index) Save(w io.Writer) error {
	ix.saveMu.Lock()
	defer ix.saveMu.Unlock()
	sc := &ix.save
	sc.reset()
	ix.mu.RLock()
	for _, s := range ix.sealed {
		encodeSegmentLocked(s, sc)
	}
	encodeSegmentLocked(ix.active, sc)
	nextSeg := ix.nextSeg
	ix.mu.RUnlock()

	section, err := sc.encodeSection(nextSeg)
	sc.release()
	if err != nil {
		return err
	}
	if _, err := w.Write(section); err != nil {
		return fmt.Errorf("index: writing image: %w", err)
	}
	return nil
}

// segmentType and headerType are the gob descriptors and ids of the
// image's two block types, taken from encoding/gob at first use.
var (
	segmentType = sync.OnceValues(gobwire.TypeOf[segmentImage])
	headerType  = sync.OnceValues(gobwire.TypeOf[containerHeader])
)

// errLegacyIDs reports a posting image that carries the legacy IDs
// field, which only loading fills.
var errLegacyIDs = errors.New("index: a saved posting carries legacy IDs")

// segmentScratch is the storage Save keeps from one save to the next:
// the slot renumbering, the kept ids of one posting, the arena postings
// are compacted into, the active segment's terms in order, the images of
// one save's segments with their document and posting tables, each
// block's field length, the encoder and the section buffer. Slices into
// storage that later grew stay valid: they keep the old array, which no
// later append writes.
type segmentScratch struct {
	remap   []uint32
	ids     []uint32
	arena   []byte
	keys    []string
	segs    []segmentImage
	docs    []docImage
	posts   []postingImage
	lens    []int
	w       gobwire.Writer
	section []byte
}

func (sc *segmentScratch) reset() {
	sc.arena, sc.segs, sc.docs, sc.posts = sc.arena[:0], sc.segs[:0], sc.docs[:0], sc.posts[:0]
}

// release drops the images' references to paths and terms, so the kept
// storage does not pin what the index has since removed.
func (sc *segmentScratch) release() {
	clear(sc.keys)
	clear(sc.segs)
	clear(sc.docs)
	clear(sc.posts)
}

// encodeSegmentLocked appends the compacted image of one segment to
// sc.segs and returns it, or returns nil if the segment holds no live
// documents: dead slots are dropped, the live ones renumbered in slot
// order, and every posting is compacted straight from its container into
// the arena (bitset.Container.AppendCompacted), in term order, so an
// unchanged index saves to the same bytes. Caller holds ix.mu.
func encodeSegmentLocked(s *segment, sc *segmentScratch) *segmentImage {
	sc.remap = slices.Grow(sc.remap[:0], len(s.docs))[:len(s.docs)]
	live := 0
	for l, d := range s.docs {
		if !d.alive {
			sc.remap[l] = noLocal
			continue
		}
		sc.remap[l] = uint32(live)
		live++
	}
	if live == 0 {
		return nil
	}
	docs := len(sc.docs)
	for _, d := range s.docs {
		if d.alive {
			sc.docs = append(sc.docs, docImage{Path: d.path, ModTime: d.modTime, Size: d.size})
		}
	}
	posts, terms := len(sc.posts), s.terms
	if !s.sealed {
		sc.keys = sc.keys[:0]
		for term := range s.open {
			sc.keys = append(sc.keys, term)
		}
		slices.Sort(sc.keys)
		terms = sc.keys
	}
	for i, term := range terms {
		posting := s.open[term] // nil on a sealed segment: its table holds it
		if s.sealed {
			posting = &s.posts[i]
		}
		start := len(sc.arena)
		sc.arena, sc.ids = posting.AppendCompacted(sc.arena, sc.remap, noLocal, sc.ids)
		if len(sc.arena) > start {
			sc.posts = append(sc.posts, postingImage{Term: term, Packed: sc.arena[start:len(sc.arena):len(sc.arena)]})
		}
	}
	sc.segs = append(sc.segs, segmentImage{ID: s.id, Docs: sc.docs[docs:len(sc.docs):len(sc.docs)], Postings: sc.posts[posts:len(sc.posts):len(sc.posts)]})
	return &sc.segs[len(sc.segs)-1]
}

// encodeSection encodes the image of sc's segments: the container header
// block and one block per segment, sized first and then framed in place
// in sc.section, which it returns.
func (sc *segmentScratch) encodeSection(nextSeg uint32) ([]byte, error) {
	var segT *gobwire.Type
	if len(sc.segs) > 0 {
		t, err := segmentType()
		if err != nil {
			return nil, fmt.Errorf("index: segment type: %w", err)
		}
		segT = t
	}
	hdrT, err := headerType()
	if err != nil {
		return nil, fmt.Errorf("index: header type: %w", err)
	}
	ch := containerHeader{Version: indexVersion, Segments: len(sc.segs), NextSeg: nextSeg}
	w := &sc.w
	w.Count()
	writeContainerHeader(w, &ch)
	hdrLen := w.Len()
	total := blockHeaderLen + hdrT.Len(hdrLen) + blockTrailerLen
	sc.lens = sc.lens[:0]
	for i := range sc.segs {
		w.Count()
		if err := writeSegmentImage(w, &sc.segs[i]); err != nil {
			return nil, fmt.Errorf("index: encoding segment %d: %w", sc.segs[i].ID, err)
		}
		sc.lens = append(sc.lens, w.Len())
		total += blockHeaderLen + segT.Len(w.Len()) + blockTrailerLen
	}

	buf, payload := openBlock(slices.Grow(sc.section[:0], total), indexMagic, hdrT.Len(hdrLen))
	w.Append(hdrT.AppendHead(buf, hdrLen))
	writeContainerHeader(w, &ch)
	buf = closeBlock(w.Buffer(), payload)
	for i := range sc.segs {
		buf, payload = openBlock(buf, segmentMagic, segT.Len(sc.lens[i]))
		w.Append(segT.AppendHead(buf, sc.lens[i]))
		if err := writeSegmentImage(w, &sc.segs[i]); err != nil {
			return nil, fmt.Errorf("index: encoding segment %d: %w", sc.segs[i].ID, err)
		}
		buf = closeBlock(w.Buffer(), payload)
	}
	sc.section = buf
	if len(buf) != total {
		return nil, fmt.Errorf("index: image sized at %d bytes, encoded in %d", total, len(buf))
	}
	return buf, nil
}

// writeContainerHeader writes ch's fields as gob encodes a
// containerHeader.
func writeContainerHeader(w *gobwire.Writer, ch *containerHeader) {
	s := w.Struct()
	s.Int(0, int64(ch.Version))
	s.Int(1, int64(ch.Segments))
	s.Uint(2, uint64(ch.NextSeg))
	s.End()
}

// writeSegmentImage writes img's fields as gob encodes a segmentImage.
// The legacy IDs field of a posting is never written.
func writeSegmentImage(w *gobwire.Writer, img *segmentImage) error {
	s := w.Struct()
	s.Uint(0, uint64(img.ID))
	if s.Slice(1, len(img.Docs)) {
		for i := range img.Docs {
			d := &img.Docs[i]
			ds := w.Struct()
			ds.String(0, d.Path)
			if err := ds.Time(1, d.ModTime); err != nil {
				return fmt.Errorf("document %q: %w", d.Path, err)
			}
			ds.Int(2, int64(d.Size))
			ds.End()
		}
	}
	if s.Slice(2, len(img.Postings)) {
		for i := range img.Postings {
			p := &img.Postings[i]
			if len(p.IDs) > 0 {
				return errLegacyIDs
			}
			ps := w.Struct()
			ps.String(0, p.Term)
			ps.Bytes(2, p.Packed)
			ps.End()
		}
	}
	s.End()
	return nil
}

// LoadOption configures the index an image is loaded into, before any
// segments are installed. Transducers are code, not data: an image
// holds the terms they produced, not the functions. A caller that used
// them at index time re-attaches them here — RegisterTransducer would
// fail on the loaded (non-empty) store.
type LoadOption func(*Index)

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
	payload, err = gobwire.ReadFull(r, length)
	if err != nil {
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
		sealThreshold: DefaultSealThreshold,
	}
	for _, o := range opts {
		o(ix)
	}
	return ix
}

// installSegment attaches one decoded segment image (every posting has
// been through postingImage.decode) as a sealed segment, its term table
// filled from the postings sorted (a save writes them in order). A block
// that repeats a term is damaged and rejected. Duplicate paths across
// blocks (only possible in a damaged image) resolve newest-wins,
// tombstoning the older slot.
func (ix *Index) installSegment(img *segmentImage) error {
	if _, dup := ix.bySeg[img.ID]; dup {
		return fmt.Errorf("%w: duplicate segment ID %d", vfs.ErrCorruptVolume, img.ID)
	}
	slices.SortFunc(img.Postings, func(a, b postingImage) int { return strings.Compare(a.Term, b.Term) })
	s := &segment{id: img.ID, dead: bitset.NewContainer(), terms: make([]string, 0, len(img.Postings))}
	s.posts = make([]bitset.Container, 0, len(img.Postings))
	for i, pi := range img.Postings {
		if i > 0 && pi.Term == img.Postings[i-1].Term {
			return fmt.Errorf("%w: segment %d repeats term %q", vfs.ErrCorruptVolume, img.ID, pi.Term)
		}
		if pi.set.Any() {
			s.terms = append(s.terms, pi.Term)
			s.posts = append(s.posts, *pi.set)
		}
	}
	for _, di := range img.Docs {
		s.docs = append(s.docs, docEntry{path: di.Path, modTime: di.ModTime, size: di.Size, alive: true})
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
// the non-nil error as fatal.
//
// Load options re-attach transducers (code, not data)
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
	if version != indexVersion {
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
