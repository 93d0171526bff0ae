package hac

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hacfs/internal/vfs"
)

// saveLoad round-trips a volume through the persistence format.
func saveLoad(t *testing.T, fs *FS) *FS {
	t.Helper()
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		t.Fatalf("SaveVolume: %v", err)
	}
	restored, err := LoadVolume(&buf, Options{})
	if err != nil {
		t.Fatalf("LoadVolume: %v", err)
	}
	return restored
}

func TestVolumeRoundTripBasics(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple AND NOT banana"); err != nil {
		t.Fatal(err)
	}
	restored := saveLoad(t, fs)

	// Files survived.
	data, err := restored.ReadFile("/docs/apple1.txt")
	if err != nil || string(data) != "apple fruit red" {
		t.Fatalf("content = %q, %v", data, err)
	}
	// The semantic directory survived with its query and links.
	if !restored.IsSemantic("/sel") {
		t.Fatal("semantic flag lost")
	}
	q, err := restored.Query("/sel")
	if err != nil || q != "(apple AND (NOT banana))" {
		t.Fatalf("query = %q, %v", q, err)
	}
	want := targetsOf(t, fs, "/sel")
	got := targetsOf(t, restored, "/sel")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}
}

func TestVolumeRoundTripUserEdits(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	// A prohibition and a permanent link — the user's investment the
	// paper says HAC must never lose.
	if err := fs.Remove("/sel/apple2.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/docs/cherry.txt", "/sel/mine.txt"); err != nil {
		t.Fatal(err)
	}

	restored := saveLoad(t, fs)
	links, err := restored.Links("/sel")
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]LinkClass{}
	for _, l := range links {
		classes[l.Target] = l.Class
	}
	if classes["/docs/apple2.txt"] != Prohibited {
		t.Fatalf("prohibition lost: %v", classes)
	}
	if classes["/docs/cherry.txt"] != Permanent {
		t.Fatalf("permanent link lost: %v", classes)
	}
	// The prohibited link stays out even after the load's reindex.
	for _, target := range targetsOf(t, restored, "/sel") {
		if target == "/docs/apple2.txt" {
			t.Fatal("prohibited target resurrected by load")
		}
	}
	// Link names survive (no duplicate links on the reload's sync).
	entries, _ := restored.ReadDir("/sel")
	names := map[string]bool{}
	for _, e := range entries {
		if names[e.Name] {
			t.Fatalf("duplicate link name %s", e.Name)
		}
		names[e.Name] = true
	}
	if !names["mine.txt"] {
		t.Fatalf("permanent link name lost: %v", names)
	}
}

func TestVolumeRoundTripDirRefs(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/curated", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/combo", "dir:/curated AND NOT banana"); err != nil {
		t.Fatal(err)
	}
	want := targetsOf(t, fs, "/combo")

	restored := saveLoad(t, fs)
	if got := targetsOf(t, restored, "/combo"); !reflect.DeepEqual(got, want) {
		t.Fatalf("dir-ref targets = %v, want %v", got, want)
	}
	// The dependency is live: editing /curated propagates.
	if err := restored.Remove("/curated/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	for _, target := range targetsOf(t, restored, "/combo") {
		if target == "/docs/apple1.txt" {
			t.Fatal("restored dependency graph inert")
		}
	}
	// Display form still renders a path.
	disp, err := restored.QueryDisplay("/combo")
	if err != nil || disp != "(dir:/curated AND (NOT banana))" {
		t.Fatalf("display query = %q, %v", disp, err)
	}
}

func TestVolumeRoundTripHierarchy(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple OR cherry"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel/sub", "cherry"); err != nil {
		t.Fatal(err)
	}
	want := targetsOf(t, fs, "/sel/sub")
	restored := saveLoad(t, fs)
	if got := targetsOf(t, restored, "/sel/sub"); !reflect.DeepEqual(got, want) {
		t.Fatalf("child targets = %v, want %v", got, want)
	}
	// Data consistency after load: new files flow in on reindex.
	if err := restored.WriteFile("/docs/cherry2.txt", []byte("cherry again")); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, target := range targetsOf(t, restored, "/sel/sub") {
		if target == "/docs/cherry2.txt" {
			found = true
		}
	}
	if !found {
		t.Fatal("restored volume does not pick up new files")
	}
}

func TestLoadVolumeRejectsGarbage(t *testing.T) {
	if _, err := LoadVolume(bytes.NewReader([]byte("junk")), Options{}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveVolumeRequiresSnapshotter(t *testing.T) {
	// A HAC-over-HAC stack has a substrate that cannot snapshot; the
	// failure is a typed *vfs.PathError wrapping ErrNoSnapshot.
	inner := New(vfs.New(), Options{})
	outer := New(inner, Options{})
	var buf bytes.Buffer
	err := outer.SaveVolume(&buf)
	if err == nil {
		t.Fatal("SaveVolume over non-snapshotting substrate succeeded")
	}
	var pe *vfs.PathError
	if !errors.As(err, &pe) || pe.Op != "savevolume" {
		t.Fatalf("error = %#v, want *vfs.PathError{Op: savevolume}", err)
	}
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("error %v does not wrap ErrNoSnapshot", err)
	}
}

func TestSaveVolumeThroughFaultFS(t *testing.T) {
	// A snapshot-capable wrapper (FaultFS) satisfies the Snapshotter
	// interface by delegation, so fault-injected volumes can be saved.
	fault := vfs.NewFaultFS(vfs.New(), vfs.FaultConfig{})
	fs := New(fault, Options{})
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/a.txt", []byte("apple")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		t.Fatalf("SaveVolume through FaultFS: %v", err)
	}
	restored, err := LoadVolume(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantTargets(t, restored, "/sel", "/docs/a.txt")
}

// mainFrameLen reads the main frame's claimed payload length out of a
// saved image and returns the total frame size (header + payload + CRC
// trailer); everything past it is the appended index section.
func mainFrameLen(t *testing.T, img []byte) int {
	t.Helper()
	if len(img) < 14 {
		t.Fatalf("image too short for a frame header: %d bytes", len(img))
	}
	return 14 + int(binary.BigEndian.Uint64(img[6:14])) + 4
}

// TestLoadVolumeRejectsCorruption checks that image damage never causes
// a panic or a silently wrong volume: truncation anywhere (a torn save)
// and bit flips in the main frame yield a typed error; bit flips in the
// appended index section either yield the same error or cost at most
// one segment, which the load-time reindex restores — the loaded volume
// must be indistinguishable from the original.
func TestLoadVolumeRejectsCorruption(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	want := targetsOf(t, fs, "/sel")
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	mainLen := mainFrameLen(t, good)
	if mainLen >= len(good) {
		t.Fatalf("no index section appended: main frame %d of %d bytes", mainLen, len(good))
	}

	// Truncations tear the save mid-stream: always rejected, wherever
	// the cut lands — header, payload, trailer, or the index section.
	for _, cut := range []int{0, 3, 13, 14, len(good) / 3, mainLen - 1, mainLen, mainLen + 7, len(good) - 5, len(good) - 1} {
		if cut > len(good) {
			continue
		}
		_, err := LoadVolume(bytes.NewReader(good[:cut]), Options{})
		if err == nil {
			t.Fatalf("truncated image (%d of %d bytes) accepted", cut, len(good))
		}
		if !errors.Is(err, ErrCorruptVolume) {
			t.Fatalf("truncated image (%d bytes): error %v does not wrap ErrCorruptVolume", cut, err)
		}
	}
	// Bit flips in the main frame: always rejected.
	for _, pos := range []int{0, 5, 10, 20, mainLen / 2, mainLen - 2} {
		mut := append([]byte(nil), good...)
		mut[pos] ^= 0x40
		if _, err := LoadVolume(bytes.NewReader(mut), Options{}); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
	// Bit flips in the index section: rejected (framing damage) or
	// contained to a segment and fully recovered by the settling
	// reindex — never a half-working volume.
	for pos := mainLen; pos < len(good); pos += 11 {
		mut := append([]byte(nil), good...)
		mut[pos] ^= 0x40
		restored, err := LoadVolume(bytes.NewReader(mut), Options{})
		switch {
		case err != nil:
			if !errors.Is(err, ErrCorruptVolume) {
				t.Fatalf("index-section flip at %d: error %v does not wrap ErrCorruptVolume", pos, err)
			}
			if restored != nil {
				t.Fatalf("index-section flip at %d: both volume and error returned", pos)
			}
		default:
			if got := targetsOf(t, restored, "/sel"); !reflect.DeepEqual(got, want) {
				t.Fatalf("index-section flip at %d: targets = %v, want %v", pos, got, want)
			}
		}
	}
	// The pristine image still loads.
	if _, err := LoadVolume(bytes.NewReader(good), Options{}); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}

// legacyImageOf rewrites a freshly saved volume in the version-2
// format: the same gob payload (Version field set back) framed with
// version 2, and no index section — what a pre-segmented-index build
// would have written.
func legacyImageOf(t *testing.T, fs *FS) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	plen := int(binary.BigEndian.Uint64(good[6:14]))
	var img volumeImage
	if err := gob.NewDecoder(bytes.NewReader(good[14 : 14+plen])).Decode(&img); err != nil {
		t.Fatal(err)
	}
	img.Version = legacyVolumeVersion
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&img); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeVolumeFrame(&out, legacyVolumeVersion, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadVolumeLegacyV2 is the migration path: version-2 images (no
// index section) still load — the settling reindex rebuilds the index
// from scratch — and the next save writes the current format.
func TestLoadVolumeLegacyV2(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	want := targetsOf(t, fs, "/sel")
	legacy := legacyImageOf(t, fs)

	restored, err := LoadVolume(bytes.NewReader(legacy), Options{})
	if err != nil {
		t.Fatalf("legacy image rejected: %v", err)
	}
	if got := targetsOf(t, restored, "/sel"); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy targets = %v, want %v", got, want)
	}
	// The migrated volume saves in the current format, index section
	// included, and round-trips from there.
	var again bytes.Buffer
	if err := restored.SaveVolume(&again); err != nil {
		t.Fatal(err)
	}
	if mainFrameLen(t, again.Bytes()) >= again.Len() {
		t.Fatal("migrated save carries no index section")
	}
	re, err := LoadVolume(bytes.NewReader(again.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := targetsOf(t, re, "/sel"); !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated round-trip targets = %v, want %v", got, want)
	}
}

// TestLoadVolumeTornSegmentBlock pins the containment story on a
// many-segment index: flipping a byte inside one segment block's
// payload loses that segment only — the volume loads, the intact
// segments survive, and the settling reindex restores the lost
// documents, so the restored volume matches the original exactly.
func TestLoadVolumeTornSegmentBlock(t *testing.T) {
	fs := New(vfs.New(), Options{})
	fs.Index().SetSealThreshold(2) // force several sealed segments
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ name, body string }{
		{"a1.txt", "apple one"}, {"a2.txt", "apple two"}, {"a3.txt", "apple three"},
		{"a4.txt", "apple four"}, {"a5.txt", "apple five"}, {"a6.txt", "apple six"},
	} {
		if err := fs.WriteFile("/docs/"+f.name, []byte(f.body)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	want := targetsOf(t, fs, "/sel")
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Walk the index section's block frames to find each segment block.
	var starts []int
	for off := mainFrameLen(t, good); off+18 <= len(good); {
		starts = append(starts, off)
		off += 14 + int(binary.BigEndian.Uint64(good[off+6:off+14])) + 4
	}
	if len(starts) < 3 { // container block + at least two segments
		t.Fatalf("expected a multi-segment index section, got %d blocks", len(starts))
	}
	// Flip a payload byte in the second segment block.
	mut := append([]byte(nil), good...)
	mut[starts[2]+14+3] ^= 0xff
	restored, err := LoadVolume(bytes.NewReader(mut), Options{})
	if err != nil {
		t.Fatalf("contained segment damage rejected the volume: %v", err)
	}
	if got := targetsOf(t, restored, "/sel"); !reflect.DeepEqual(got, want) {
		t.Fatalf("targets after segment loss = %v, want %v", got, want)
	}
	if got, want := restored.Index().NumDocs(), fs.Index().NumDocs(); got != want {
		t.Fatalf("restored index holds %d docs, want %d", got, want)
	}
}

func TestSaveVolumeFileAtomic(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vol.hac")
	if err := fs.SaveVolumeFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadVolumeFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(targetsOf(t, restored, "/sel"), targetsOf(t, fs, "/sel")) {
		t.Fatal("file round trip lost targets")
	}
	// A second save overwrites atomically and leaves no temp litter.
	if err := fs.WriteFile("/docs/apple9.txt", []byte("apple nine")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveVolumeFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	restored, err = LoadVolumeFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, target := range targetsOf(t, restored, "/sel") {
		found = found || target == "/docs/apple9.txt"
	}
	if !found {
		t.Fatal("second save did not capture the new file")
	}
}

// TestCrashDuringSaveLeavesPriorImageUsable is the save-point recovery
// story: a save torn at every possible byte boundary is always
// rejected by LoadVolume, and recovery proceeds from the previous good
// image with all user edits (prohibitions, permanent links) intact.
func TestCrashDuringSaveLeavesPriorImageUsable(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/sel/apple2.txt"); err != nil { // prohibition
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := fs.SaveVolume(&good); err != nil {
		t.Fatal(err)
	}

	// Tear the next save at a spread of crash points.
	for _, limit := range []int{0, 1, 13, 14, 15, good.Len() / 4, good.Len() / 2, good.Len() - 1} {
		var torn bytes.Buffer
		err := fs.SaveVolume(&vfs.CrashWriter{W: &torn, Limit: limit})
		if err == nil {
			t.Fatalf("save through crashing writer (limit %d) succeeded", limit)
		}
		if _, err := LoadVolume(bytes.NewReader(torn.Bytes()), Options{}); err == nil {
			t.Fatalf("torn image (limit %d) accepted", limit)
		}
	}

	// The earlier image still recovers the full state.
	restored, err := LoadVolume(bytes.NewReader(good.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	links, err := restored.Links("/sel")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		if l.Target == "/docs/apple2.txt" && l.Class != Prohibited {
			t.Fatalf("prohibition lost through crash recovery: %v", links)
		}
	}
	wantTargets(t, restored, "/sel", "/docs/apple1.txt", "/mail/m1.txt")
}

// TestProhibitedSurvivesLoadAndReindex pins the §2.3 guarantee across
// the full recovery path: prohibited links never silently reappear,
// even after LoadVolume plus an explicit Reindex plus a SyncAll.
func TestProhibitedSurvivesLoadAndReindex(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/sel/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	restored := saveLoad(t, fs)
	for round := 0; round < 3; round++ {
		if _, err := restored.Reindex("/"); err != nil {
			t.Fatal(err)
		}
		if err := restored.SyncAll(); err != nil {
			t.Fatal(err)
		}
		for _, target := range targetsOf(t, restored, "/sel") {
			if target == "/docs/apple1.txt" {
				t.Fatalf("round %d: prohibited target resurrected", round)
			}
		}
		classes := map[string]LinkClass{}
		links, err := restored.Links("/sel")
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range links {
			classes[l.Target] = l.Class
		}
		if classes["/docs/apple1.txt"] != Prohibited {
			t.Fatalf("round %d: prohibition dropped: %v", round, classes)
		}
	}
}
