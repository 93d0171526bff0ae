package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/vfs"
)

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	ix := New()
	mt := time.Date(2026, 5, 1, 10, 0, 0, 0, time.UTC)
	ix.AddWithTime("/a", []byte("apple banana"), mt)
	ix.AddWithTime("/b", []byte("banana cherry"), mt.Add(time.Hour))
	ix.Add("/c", []byte("cherry"))
	ix.Remove("/c") // tombstone: must not survive the image

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.NumDocs() != 2 || loaded.Universe() != 2 {
		t.Fatalf("loaded docs = %d universe = %d", loaded.NumDocs(), loaded.Universe())
	}
	for _, term := range []string{"apple", "banana", "cherry"} {
		want := ix.Snapshot().Paths(ix.Snapshot().Lookup(term))
		got := loaded.Snapshot().Paths(loaded.Snapshot().Lookup(term))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: loaded %v, want %v", term, got, want)
		}
	}
	// Tombstoned term gone entirely.
	if loaded.Snapshot().Lookup("cherry").Len() != 1 {
		t.Fatalf("cherry matches = %d, want 1", loaded.Snapshot().Lookup("cherry").Len())
	}
	// Modification times survive (SyncTree staleness detection works).
	id, _ := loaded.IDOf("/a")
	if p, ok := loaded.PathOf(id); !ok || p != "/a" {
		t.Fatalf("PathOf = %q, %v", p, ok)
	}
	// Incremental updates still work on the loaded index.
	loaded.Add("/d", []byte("date"))
	if !loaded.Snapshot().Lookup("date").Any() {
		t.Fatal("loaded index rejects new documents")
	}
}

func TestIndexSaveLoadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != 0 {
		t.Fatalf("docs = %d", loaded.NumDocs())
	}
}

func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := LoadIndex(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// blockStarts walks the framed blocks of a saved image and returns
// each block's byte offset (container first, then segments).
func blockStarts(img []byte) []int {
	var starts []int
	for off := 0; off+18 <= len(img); {
		starts = append(starts, off)
		off += 14 + int(binary.BigEndian.Uint64(img[off+6:off+14])) + 4
	}
	return starts
}

// multiSegmentIndex builds an index whose image has several segment
// blocks: a low seal threshold forces sealing every two documents.
func multiSegmentIndex(tb testing.TB) *Index {
	tb.Helper()
	ix := New()
	ix.SetSealThreshold(2)
	for i := 0; i < 6; i++ {
		ix.Add(fmt.Sprintf("/f%d", i), []byte(fmt.Sprintf("shared term%d", i)))
	}
	return ix
}

// TestLoadIndexSkipsDamagedSegment pins the containment contract: a bit
// flip inside one segment block's payload costs that segment only. The
// partial index is returned together with a typed error, and the intact
// segments' documents all still resolve.
func TestLoadIndexSkipsDamagedSegment(t *testing.T) {
	ix := multiSegmentIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	starts := blockStarts(img)
	if len(starts) < 3 {
		t.Fatalf("expected container + ≥2 segment blocks, got %d blocks", len(starts))
	}
	mut := append([]byte(nil), img...)
	mut[starts[1]+14+5] ^= 0xff // payload byte of the first segment block

	loaded, err := LoadIndex(bytes.NewReader(mut))
	if loaded == nil {
		t.Fatalf("partial index discarded entirely: %v", err)
	}
	if err == nil {
		t.Fatal("segment damage went unreported")
	}
	var pe *vfs.PathError
	if !errors.Is(err, ErrCorruptIndex) || !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *vfs.PathError wrapping ErrCorruptIndex", err)
	}
	if got := loaded.NumDocs(); got == 0 || got >= ix.NumDocs() {
		t.Fatalf("partial load holds %d docs, want strictly between 0 and %d", got, ix.NumDocs())
	}
	// Every surviving document fully resolves.
	for _, p := range loaded.Snapshot().Paths(loaded.Snapshot().Lookup("shared")) {
		if id, ok := loaded.IDOf(p); !ok {
			t.Fatalf("surviving doc %s has no ID", p)
		} else if rp, ok := loaded.PathOf(id); !ok || rp != p {
			t.Fatalf("surviving doc %s round-trips to %q, %v", p, rp, ok)
		}
	}
	// The lost documents can simply be re-added (how hac's settling
	// reindex recovers them).
	loaded.Add("/f0", []byte("shared term0"))
	if !loaded.Snapshot().Lookup("term0").Any() {
		t.Fatal("partial index rejects re-added documents")
	}
}

// TestLoadIndexTornTailKeepsEarlierSegments: truncation inside a later
// segment block loses the stream position — the error wraps
// ErrBlockFraming so embedding callers treat the stream as torn — but
// the segments already read still come back.
func TestLoadIndexTornTailKeepsEarlierSegments(t *testing.T) {
	ix := multiSegmentIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	starts := blockStarts(img)
	if len(starts) < 3 {
		t.Fatalf("expected container + ≥2 segment blocks, got %d blocks", len(starts))
	}
	cut := starts[2] + 7 // mid-header of the second segment block
	loaded, err := LoadIndex(bytes.NewReader(img[:cut]))
	if !errors.Is(err, ErrBlockFraming) || !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("err = %v, want ErrBlockFraming wrapping ErrCorruptIndex", err)
	}
	if loaded == nil || loaded.NumDocs() == 0 {
		t.Fatal("torn tail discarded the intact earlier segments")
	}
}

// legacyIndexImage writes a version-2 monolithic image: one frame whose
// gob stream is header, then docs, then postings — what the
// pre-segmented format looked like.
func legacyIndexImage(t *testing.T, docs []docImage, posts []postingImage) []byte {
	t.Helper()
	const version = 2
	type v2Header struct{ Version, Docs, Terms int }
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	if err := enc.Encode(&v2Header{Version: version, Docs: len(docs), Terms: len(posts)}); err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		if err := enc.Encode(&docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range posts {
		if err := enc.Encode(&posts[i]); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	var hdr [14]byte
	copy(hdr[:4], indexMagic[:])
	binary.BigEndian.PutUint16(hdr[4:6], version)
	binary.BigEndian.PutUint64(hdr[6:14], uint64(payload.Len()))
	out.Write(hdr[:])
	out.Write(payload.Bytes())
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.Checksum(payload.Bytes(), indexCRC))
	out.Write(trailer[:])
	return out.Bytes()
}

// TestLoadIndexRejectsV2: a well-framed version-2 monolithic image — a
// format no volume image has embedded since the segmented one — fails
// like any other unsupported version.
func TestLoadIndexRejectsV2(t *testing.T) {
	mt := time.Date(2026, 1, 15, 9, 0, 0, 0, time.UTC)
	img := legacyIndexImage(t,
		[]docImage{{Path: "/a", ModTime: mt, Size: 12}, {Path: "/b", ModTime: mt, Size: 13}},
		[]postingImage{{Term: "apple", IDs: []uint32{0}}, {Term: "banana", IDs: []uint32{0, 1}}},
	)
	loaded, err := LoadIndex(bytes.NewReader(img))
	if !errors.Is(err, ErrCorruptIndex) || !strings.Contains(err.Error(), "unsupported index version 2") {
		t.Fatalf("err = %v, want an unsupported-version ErrCorruptIndex", err)
	}
	if loaded != nil {
		t.Fatal("a rejected image returned an index")
	}
}

func TestIndexSaveLoadPreservesModTimes(t *testing.T) {
	ix := New()
	mt := time.Date(2026, 6, 2, 0, 0, 0, 0, time.UTC)
	ix.AddWithTime("/f", []byte("word"), mt)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := loaded.IDOf("/f")
	if !ok {
		t.Fatal("loaded index lost /f")
	}
	seg, local := splitID(id)
	loaded.mu.RLock()
	got := loaded.bySeg[seg].docs[local].modTime
	loaded.mu.RUnlock()
	if !got.Equal(mt) {
		t.Fatalf("modTime = %v, want %v", got, mt)
	}
}

// ---------------------------------------------------------------------
// Compatibility with images written before postings were containers.
// testdata/parent-e03e5e5.idx is fixtureIndex() saved by commit e03e5e5
// (dense bitmap postings in memory, the container codec on disk).
// ---------------------------------------------------------------------

const parentImage = "testdata/parent-e03e5e5.idx"

func fixturePath(i int) string { return fmt.Sprintf("/fix/d%d/f%03d.txt", i%7, i) }

func fixtureContent(i, rev int) string {
	words := []string{"all", fmt.Sprintf("n%d", i)}
	if i%2 == 0 {
		words = append(words, "even")
	}
	if i%3 == 0 {
		words = append(words, "third")
	}
	if i%97 == 0 {
		words = append(words, "sparse")
	}
	if rev > 0 {
		words = append(words, "rewritten")
	}
	return strings.Join(words, " ")
}

// fixtureIndex rebuilds the corpus the checked-in image holds: 600
// documents over three segments, every fiftieth removed, six rewritten —
// postings of all three codec kinds ("all" a run, "even" a bitmap,
// "sparse" an array).
func fixtureIndex() *Index {
	ix := New()
	ix.SetSealThreshold(256)
	mt := time.Date(2026, 9, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 600; i++ {
		ix.AddWithTime(fixturePath(i), []byte(fixtureContent(i, 0)), mt.Add(time.Duration(i)*time.Second))
	}
	for i := 0; i < 600; i += 50 {
		ix.Remove(fixturePath(i))
	}
	for i := 7; i < 600; i += 100 {
		ix.AddWithTime(fixturePath(i), []byte(fixtureContent(i, 1)), mt.Add(time.Hour))
	}
	return ix
}

// segmentImagesOf decodes every segment block of an index image, with
// each segment's postings sorted by term: Save writes them in term
// order, but parentImage was written in map order.
func segmentImagesOf(t *testing.T, img []byte) []*segmentImage {
	t.Helper()
	r := bytes.NewReader(img[14+int(binary.BigEndian.Uint64(img[6:14]))+4:])
	var out []*segmentImage
	for r.Len() > 0 {
		si, err := loadSegmentBlock(r)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(si.Postings, func(i, j int) bool { return si.Postings[i].Term < si.Postings[j].Term })
		out = append(out, si)
	}
	return out
}

func TestParentWrittenImageLoads(t *testing.T) {
	raw, err := os.ReadFile(parentImage)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	live := fixtureIndex()
	if loaded.NumDocs() != 588 || loaded.NumDocs() != live.NumDocs() {
		t.Fatalf("loaded %d documents, rebuilt %d, want 588", loaded.NumDocs(), live.NumDocs())
	}
	ls, ws := loaded.Snapshot(), live.Snapshot()
	same := func(q string, got, want *bitset.Segmented, n int) {
		t.Helper()
		if g, w := ls.Paths(got), ws.Paths(want); !reflect.DeepEqual(g, w) || len(g) != n {
			t.Fatalf("%s: loaded image answers %d paths, rebuilt index %d, want %d", q, len(g), len(w), n)
		}
	}
	same("all", ls.Lookup("all"), ws.Lookup("all"), 588)
	same("even", ls.Lookup("even"), ws.Lookup("even"), 288)     // 300 even, 12 of them removed
	same("third", ls.Lookup("third"), ws.Lookup("third"), 196)  // 200 multiples of 3, 4 of them of 50
	same("sparse", ls.Lookup("sparse"), ws.Lookup("sparse"), 6) // 97·k < 600, k = 1..6
	same("rewritten", ls.Lookup("rewritten"), ws.Lookup("rewritten"), 6)
	same("n5*", ls.LookupPrefix("n5"), ws.LookupPrefix("n5"), 108) // n5, n50–n59, n500–n599: 111, less n50, n500, n550
	same("~thirs", ls.LookupFuzzy("thirs"), ws.LookupFuzzy("thirs"), 196)
	same("missing", ls.Lookup("missing"), ws.Lookup("missing"), 0)
	same("under /fix/d3", ls.DocsUnder("/fix/d3"), ws.DocsUnder("/fix/d3"), 84) // ⌈(600−3)/7⌉ = 86, less 150 and 500
	gotU, _ := ls.LookupUnder("even", "/fix/d3")
	wantU, _ := ws.LookupUnder("even", "/fix/d3")
	same("even under /fix/d3", gotU, wantU, 41)
	same("all docs", ls.AllDocs(), ws.AllDocs(), 588)
	if !loaded.DocHasTerm(fixturePath(7), "rewritten") {
		t.Fatal("the rewritten version of a document did not survive the image")
	}
	if _, ok := loaded.IDOf(fixturePath(50)); ok {
		t.Fatal("a removed document came back from the image")
	}
}

// TestImageBytesUnchanged: the same corpus saved by this code decodes
// to the segment images the parent wrote — documents, terms and packed
// posting bytes — so either side reads the other's files.
func TestImageBytesUnchanged(t *testing.T) {
	raw, err := os.ReadFile(parentImage)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fixtureIndex().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if len(raw) != buf.Len() {
		t.Fatalf("image is %d bytes, the parent's %d", buf.Len(), len(raw))
	}
	got, want := segmentImagesOf(t, buf.Bytes()), segmentImagesOf(t, raw)
	if len(got) != len(want) || len(got) != 3 {
		t.Fatalf("%d segment blocks, the parent wrote %d, want 3", len(got), len(want))
	}
	kinds := map[byte]bool{}
	for i := range want {
		if got[i].ID != want[i].ID || !reflect.DeepEqual(got[i].Docs, want[i].Docs) {
			t.Fatalf("segment %d: document table differs from the parent's", i)
		}
		if len(got[i].Postings) != len(want[i].Postings) {
			t.Fatalf("segment %d: %d postings, the parent wrote %d", i, len(got[i].Postings), len(want[i].Postings))
		}
		for j, w := range want[i].Postings {
			g := got[i].Postings[j]
			if g.Term != w.Term || !bytes.Equal(g.Packed, w.Packed) || len(g.IDs) != 0 || len(w.IDs) != 0 {
				t.Fatalf("segment %d: posting %q differs from the parent's %q", i, g.Term, w.Term)
			}
			if !g.set.Equal(w.set) {
				t.Fatalf("segment %d: posting %q decodes differently", i, g.Term)
			}
			kinds[w.Packed[0]] = true
		}
	}
	if !kinds['A'] || !kinds['B'] || !kinds['R'] {
		t.Fatalf("fixture covers codec kinds %v, want array, bitmap and run", kinds)
	}
}

// TestTruncatedFrameAllocatesInput: a block header that claims the
// largest payload the loader accepts, followed by five bytes, fails as a
// torn frame having allocated in proportion to those bytes, not 1 GiB.
func TestTruncatedFrameAllocatesInput(t *testing.T) {
	for _, load := range []struct {
		name string
		fn   func([]byte) error
	}{
		{"LoadIndex", func(b []byte) error { _, err := LoadIndex(bytes.NewReader(b)); return err }},
		{"loadSegmentBlock", func(b []byte) error { _, err := loadSegmentBlock(bytes.NewReader(b)); return err }},
	} {
		magic := indexMagic
		if load.name == "loadSegmentBlock" {
			magic = segmentMagic
		}
		in := claimedFrame(magic, maxIndexPayload, "short")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := load.fn(in)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptIndex) || !strings.Contains(err.Error(), "truncated payload") {
			t.Fatalf("%s: err = %v, want a truncated-payload ErrCorruptIndex", load.name, err)
		}
		if load.name == "loadSegmentBlock" && !errors.Is(err, ErrBlockFraming) {
			t.Fatalf("%s: err = %v, want ErrBlockFraming", load.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
			t.Fatalf("%s: a %d-byte input claiming %d bytes allocated %d bytes", load.name, len(in), maxIndexPayload, d)
		}
	}
}

// saveBytes returns ix's image.
func saveBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveIsDeterministic: an unchanged index saves to the same bytes,
// and the index loaded from an image saves its segments to the same
// bytes again: every segment writes its postings in term order. The
// index holds 70 terms over a merged, a sealed and an active segment.
// Only the container header may differ after a load, by its NextSeg:
// the loaded index numbers its fresh active segment from it.
func TestSaveIsDeterministic(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(20)
	add := func(from, to int) {
		for i := from; i < to; i++ {
			ix.Add(fmt.Sprintf("/d%d/f%03d", i%3, i), []byte(fmt.Sprintf("w%d m%d n%d common", i, i%7, i%5)))
		}
	}
	add(0, 40)
	ix.ForceMerge()
	add(40, 60)
	add(60, 70)
	ix.Remove("/d0/f063") // a dead slot in the active segment
	ix.Remove("/d1/f001") // and one in the merged segment
	ix.mu.RLock()
	layout := fmt.Sprintf("%d sealed, %d active", len(ix.sealed), len(ix.active.docs))
	ix.mu.RUnlock()
	if layout != "2 sealed, 10 active" {
		t.Fatalf("layout %s, want a merged and a sealed segment beside a 10-document active one", layout)
	}
	if n := ix.Stats().Terms; n < 50 {
		t.Fatalf("%d terms, want at least 50", n)
	}

	first := saveBytes(t, ix)
	for i := 0; i < 4; i++ {
		if again := saveBytes(t, ix); !bytes.Equal(again, first) {
			t.Fatalf("save %d of an unchanged index differs from the first (%d and %d bytes)", i+2, len(again), len(first))
		}
	}
	loaded, err := LoadIndex(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	again := saveBytes(t, loaded)
	headerLen := func(img []byte) int { return 14 + int(binary.BigEndian.Uint64(img[6:14])) + 4 }
	if !bytes.Equal(again[headerLen(again):], first[headerLen(first):]) {
		t.Fatalf("the loaded index saves its segments to other bytes (%d and %d bytes)", len(again), len(first))
	}
	var was, is containerHeader
	if err := decodeContainerHeader(first[14:headerLen(first)-4], &was); err != nil {
		t.Fatal(err)
	}
	if err := decodeContainerHeader(again[14:headerLen(again)-4], &is); err != nil {
		t.Fatal(err)
	}
	if is.Segments != was.Segments || is.NextSeg != was.NextSeg+1 {
		t.Fatalf("header after a load %+v, before %+v", is, was)
	}
}

// framedBlock gob-encodes v into one block framed with magic, as Save
// frames its blocks.
func framedBlock(tb testing.TB, magic [4]byte, v any) []byte {
	tb.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		tb.Fatal(err)
	}
	blk, off := openBlock(nil, magic, payload.Len())
	return closeBlock(append(blk, payload.Bytes()...), off)
}

// repeatedTermBlock is a well-framed segment block whose posting table
// holds "apple" twice, the second time after another term.
func repeatedTermBlock(tb testing.TB) []byte {
	tb.Helper()
	packed := func(ids ...uint32) []byte { return bitset.ContainerOf(ids...).AppendBinary(nil) }
	return framedBlock(tb, segmentMagic, &segmentImage{
		ID:   4,
		Docs: []docImage{{Path: "/a", Size: 5}, {Path: "/b", Size: 5}},
		Postings: []postingImage{
			{Term: "apple", Packed: packed(0)},
			{Term: "pear", Packed: packed(0, 1)},
			{Term: "apple", Packed: packed(1)},
		},
	})
}

// TestLoadRejectsRepeatedTerm: a segment block that repeats a term — a
// table a binary search could not answer from — is damage: it is
// skipped like a block that fails its checksum, and the load reports
// vfs.ErrCorruptVolume while the intact blocks still install.
func TestLoadRejectsRepeatedTerm(t *testing.T) {
	good := New()
	good.Add("/c", []byte("cherry"))
	img := saveBytes(t, good)
	hdrEnd := 14 + int(binary.BigEndian.Uint64(img[6:14])) + 4
	var image []byte
	image = append(image, framedBlock(t, indexMagic, &containerHeader{Version: indexVersion, Segments: 2, NextSeg: 5})...)
	image = append(image, repeatedTermBlock(t)...)
	image = append(image, img[hdrEnd:]...)

	ix, err := LoadIndex(bytes.NewReader(image))
	if !errors.Is(err, vfs.ErrCorruptVolume) || !strings.Contains(err.Error(), `repeats term "apple"`) {
		t.Fatalf("err = %v, want a repeated-term ErrCorruptVolume", err)
	}
	if ix == nil {
		t.Fatal("no partial index returned")
	}
	if _, ok := ix.IDOf("/a"); ok || ix.NumDocs() != 1 {
		t.Fatalf("loaded %d documents, /a among them: the damaged block was installed", ix.NumDocs())
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("cherry")); len(got) != 1 || got[0] != "/c" {
		t.Fatalf("intact block: cherry in %v", got)
	}
}
