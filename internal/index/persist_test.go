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
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	if err := enc.Encode(&legacyHeader{Version: legacyIndexVersion, Docs: len(docs), Terms: len(posts)}); err != nil {
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
	binary.BigEndian.PutUint16(hdr[4:6], legacyIndexVersion)
	binary.BigEndian.PutUint64(hdr[6:14], uint64(payload.Len()))
	out.Write(hdr[:])
	out.Write(payload.Bytes())
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.Checksum(payload.Bytes(), indexCRC))
	out.Write(trailer[:])
	return out.Bytes()
}

// TestLoadIndexLegacyV2 is the migration path: a version-2 monolithic
// image loads into a single sealed segment, queries work, and
// incremental updates resume in a fresh active segment.
func TestLoadIndexLegacyV2(t *testing.T) {
	mt := time.Date(2026, 1, 15, 9, 0, 0, 0, time.UTC)
	img := legacyIndexImage(t,
		[]docImage{{Path: "/a", ModTime: mt, Size: 12}, {Path: "/b", ModTime: mt, Size: 13}},
		[]postingImage{{Term: "apple", IDs: []uint32{0}}, {Term: "banana", IDs: []uint32{0, 1}}},
	)
	loaded, err := LoadIndex(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("legacy image rejected: %v", err)
	}
	if loaded.NumDocs() != 2 {
		t.Fatalf("docs = %d, want 2", loaded.NumDocs())
	}
	if got := loaded.Snapshot().Paths(loaded.Snapshot().Lookup("banana")); !reflect.DeepEqual(got, []string{"/a", "/b"}) {
		t.Fatalf("banana = %v", got)
	}
	if got := loaded.Snapshot().Paths(loaded.Snapshot().Lookup("apple")); !reflect.DeepEqual(got, []string{"/a"}) {
		t.Fatalf("apple = %v", got)
	}
	id, ok := loaded.IDOf("/a")
	if !ok {
		t.Fatal("legacy doc lost its ID")
	}
	if seg, _ := splitID(id); seg != 0 {
		t.Fatalf("legacy docs should land in segment 0, got %d", seg)
	}
	loaded.Add("/c", []byte("cherry"))
	if !loaded.Snapshot().Lookup("cherry").Any() {
		t.Fatal("migrated index rejects new documents")
	}
	// Saving the migrated index produces a current-format image.
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	re, err := LoadIndex(&again)
	if err != nil {
		t.Fatalf("re-saved migrated index rejected: %v", err)
	}
	if re.NumDocs() != 3 {
		t.Fatalf("re-saved migrated index: docs = %d, want 3", re.NumDocs())
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
// each segment's postings sorted by term (Save writes them in map order).
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
	if id, ok := loaded.IDOf(fixturePath(7)); !ok || !loaded.DocHasTerm(id, "rewritten") {
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
