package hac

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hacfs/internal/gobwire"
	"hacfs/internal/vfs/cas"
)

// fuzzSeedImage builds a small but representative volume image: files,
// nested directories, two semantic directories (one referencing the
// other via dir:), a permanent link and a prohibition.
func fuzzSeedImage(tb testing.TB) []byte {
	tb.Helper()
	fs := New(cas.New(nil), Options{})
	if err := fs.MkdirAll("/docs/sub"); err != nil {
		tb.Fatal(err)
	}
	files := map[string]string{
		"/docs/apple1.txt":     "apple fruit red",
		"/docs/apple2.txt":     "apple banana mixed",
		"/docs/sub/cherry.txt": "cherry fruit",
	}
	for p, c := range files {
		if err := fs.WriteFile(p, []byte(c)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		tb.Fatal(err)
	}
	if err := fs.SemDir("/fruit", "fruit"); err != nil {
		tb.Fatal(err)
	}
	if err := fs.SemDir("/apples", "apple AND dir:/fruit"); err != nil {
		tb.Fatal(err)
	}
	if err := fs.Symlink("/docs/apple2.txt", "/fruit/kept"); err != nil {
		tb.Fatal(err)
	}
	if err := fs.MarkProhibited("/fruit", "/docs/apple1.txt"); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// dedupSeedImage is a volume of two files sharing one content blob,
// so its blob section holds fewer blobs than the manifest has files.
func dedupSeedImage(tb testing.TB) []byte {
	tb.Helper()
	fs := New(cas.New(nil), Options{})
	if err := fs.MkdirAll("/d"); err != nil {
		tb.Fatal(err)
	}
	for _, p := range []string{"/d/a.txt", "/d/b.txt"} {
		if err := fs.WriteFile(p, []byte("apple seed")); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadVolume feeds arbitrary bytes — seeded with valid images and
// systematic corruptions of them — to LoadVolume, hammering the whole
// load path: frame, gob payload, manifest codec, blob section, index
// section. The contract under test: a load never panics; it either
// yields a volume that is consistent and usable, or fails with an error
// wrapping ErrCorruptVolume and no volume — and a rejected image loaded
// into a shared store leaves not one byte of it pinned there.
func FuzzLoadVolume(f *testing.F) {
	img := fuzzSeedImage(f)
	f.Add(img)
	f.Add([]byte{})
	f.Add(img[:len(img)/2])
	f.Add(img[:13])
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), img...), 0xde, 0xad))
	f.Add([]byte("HACV not a real image"))
	f.Add(dedupSeedImage(f))
	f.Add([]byte("HACV\x00\x04junk"))
	for _, in := range claimedLengthInputs(img) {
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := LoadVolume(bytes.NewReader(data), Options{})
		if err != nil {
			if fs != nil || !errors.Is(err, ErrCorruptVolume) {
				t.Fatalf("rejected load returned volume %v and error %v, want none and ErrCorruptVolume", fs != nil, err)
			}
			shared := cas.NewStore()
			if _, err := LoadVolume(bytes.NewReader(data), Options{BlobStore: shared}); err == nil {
				t.Fatal("image rejected once, accepted into a shared store")
			}
			if got := shared.UniqueBytes(); got != 0 {
				t.Fatalf("rejected image pinned %d bytes in a shared store", got)
			}
			return
		}
		// A successfully loaded volume must be internally consistent
		// and usable.
		if problems := fs.CheckConsistency(); len(problems) > 0 {
			t.Fatalf("loaded volume inconsistent: %v", problems)
		}
		if _, err := fs.Reindex("/"); err != nil {
			t.Fatalf("reindex of loaded volume: %v", err)
		}
	})
}

// TestFuzzSeedsLoad pins the seed corpus behavior outside of fuzzing
// mode: the pristine image loads; truncations (anywhere) and bit flips
// in the main frame fail with ErrCorruptVolume. A flip in the appended
// index section is exercised separately: it may be contained to one
// segment, in which case the load succeeds and the reindex recovers
// (TestLoadVolumeRejectsCorruption covers that contract in depth).
func TestFuzzSeedsLoad(t *testing.T) {
	img := fuzzSeedImage(t)
	if _, err := LoadVolume(bytes.NewReader(img), Options{}); err != nil {
		t.Fatalf("pristine seed image: %v", err)
	}
	mainLen := 14 + int(binary.BigEndian.Uint64(img[6:14])) + 4
	bad := [][]byte{
		{},
		img[:13],
		img[:len(img)/2],
		img[:len(img)-1],
	}
	flipped := append([]byte(nil), img...)
	flipped[mainLen/2] ^= 0x40
	bad = append(bad, flipped)
	for i, data := range bad {
		if _, err := LoadVolume(bytes.NewReader(data), Options{}); !errors.Is(err, ErrCorruptVolume) {
			t.Errorf("corrupt variant %d: err = %v, want ErrCorruptVolume", i, err)
		}
	}
	idxFlip := append([]byte(nil), img...)
	idxFlip[(mainLen+len(img))/2] ^= 0x40
	if fs, err := LoadVolume(bytes.NewReader(idxFlip), Options{}); err != nil {
		if fs != nil || !errors.Is(err, ErrCorruptVolume) {
			t.Errorf("index-section flip: fs=%v err=%v", fs != nil, err)
		}
	} else if problems := fs.CheckConsistency(); len(problems) > 0 {
		t.Errorf("index-section flip loaded an inconsistent volume: %v", problems)
	}
}

// claimedLengthInputs are three truncated images, each ending five
// bytes after a length field that claims the most its loader accepts:
// the main frame's, the first blob's (after an intact main frame), and
// the index section's header block's (after intact main frame and blob
// section).
func claimedLengthInputs(img []byte) [][]byte {
	mainLen := 14 + int(binary.BigEndian.Uint64(img[6:14])) + 4
	off := mainLen + 8
	for i := binary.BigEndian.Uint32(img[mainLen+4 : mainLen+8]); i > 0; i-- {
		off += 40 + int(binary.BigEndian.Uint64(img[off+32:off+40]))
	}
	frame := appendVolumeHeader(nil, volumeVersion, maxVolumePayload)
	blob := append(slices.Clip(img[:mainLen]), blobSectionMagic[:]...)
	blob = binary.BigEndian.AppendUint32(blob, 1)
	blob = append(blob, make([]byte, 32)...)
	blob = binary.BigEndian.AppendUint64(blob, maxVolumePayload)
	// The index section's header block: "HACX" | u16 3 | u64 length,
	// bounded at 1 GiB like the main frame (internal/index).
	ix := append(slices.Clip(img[:off]), "HACX"...)
	ix = binary.BigEndian.AppendUint16(ix, 3)
	ix = binary.BigEndian.AppendUint64(ix, 1<<30)
	return [][]byte{append(frame, "short"...), append(blob, "short"...), append(ix, "short"...)}
}

// TestTruncatedFramesAllocateInput: a load whose input ends five bytes
// into a payload claimed to be 1 GiB long — the main frame, a blob, an
// index block — fails as truncated having allocated in proportion to
// the input, not to the claim.
func TestTruncatedFramesAllocateInput(t *testing.T) {
	inputs := claimedLengthInputs(fuzzSeedImage(t))
	for i, site := range []string{"main frame", "blob", "index block"} {
		t.Run(site, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fs, err := LoadVolume(bytes.NewReader(inputs[i]), Options{})
			runtime.ReadMemStats(&after)
			if fs != nil || !errors.Is(err, ErrCorruptVolume) || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("volume %v, err %v; want none and a truncated ErrCorruptVolume", fs != nil, err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
				t.Fatalf("a %d-byte input allocated %d bytes", len(inputs[i]), d)
			}
		})
	}
}

// fuzzDirRecords builds up to five directory records from fuzz bytes:
// paths, queries, link targets and names of 0–255 bytes (ASCII or
// "ü"), nil, empty and filled maps, sorted prohibitions and transient
// lists.
func fuzzDirRecords(data []byte) []dirRecord {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	str := func() string {
		l := int(next())
		if l%3 == 0 {
			return strings.Repeat("ü", l/2)
		}
		return strings.Repeat("x", l)
	}
	strs := func() []string {
		var out []string
		for k := next() % 4; k > 0; k-- {
			out = append(out, str())
		}
		return out
	}
	strMap := func() map[string]string {
		switch next() % 3 {
		case 0:
			return nil
		case 1:
			return map[string]string{}
		}
		m := map[string]string{}
		for k := next()%3 + 1; k > 0; k-- {
			m[str()] = str()
		}
		return m
	}
	var dirs []dirRecord
	for n := next() % 6; n > 0; n-- {
		d := dirRecord{path: "/" + str(), semantic: next()%2 == 1}
		if d.semantic {
			d.query = str()
			d.perm = strMap()
			d.prohibited = strs()
			slices.Sort(d.prohibited)
			d.trans = strs()
			d.transName = strMap()
		}
		dirs = append(dirs, d)
	}
	return dirs
}

// dirImageOf is the dirImage a save built for d before saves wrote the
// wire format directly, and gob encoded.
func dirImageOf(d dirRecord) dirImage {
	di := dirImage{Path: d.path, Semantic: d.semantic}
	if d.semantic {
		di.Query = d.query
		di.Class = make(map[string]int, len(d.perm))
		di.LinkNames = make(map[string]string, len(d.perm))
		for t, name := range d.perm {
			di.Class[t] = int(Permanent)
			di.LinkNames[t] = name
		}
		di.Prohibited = slices.Clone(d.prohibited)
		di.Trans = slices.Clone(d.trans)
		di.TransNames = maps.Clone(d.transName)
	}
	return di
}

// FuzzVolumeImageEncoding: the main frame's gob writer against
// encoding/gob. Directory records built from arbitrary bytes encode to
// what gob encodes for their dirImages: the same bytes when no map
// holds two entries (gob sends a map in iteration order), and in every
// case bytes that decode to the same volumeImage.
func FuzzVolumeImageEncoding(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 4, 0}, []byte("HACM"))
	f.Add([]byte{3, 200, 1, 9, 2, 1, 7, 3, 1, 2, 3, 2, 4, 5, 1, 0, 1, 1, 2, 1, 3, 3, 0, 0}, bytes.Repeat([]byte{0xff}, 300))
	f.Add([]byte{2, 6, 1, 0, 2, 3, 5, 6, 7, 8, 9, 1, 2, 2, 2, 2, 9, 9, 9, 9}, []byte("m"))
	volT, err := volumeType()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data, manifest []byte) {
		dirs := fuzzDirRecords(data)
		want := volumeImage{Version: volumeVersion, Manifest: manifest}
		byteExact := true
		for _, d := range dirs {
			di := dirImageOf(d)
			want.Dirs = append(want.Dirs, di)
			byteExact = byteExact && len(di.Class) <= 1 && len(di.TransNames) <= 1
		}
		var oracle bytes.Buffer
		if err := gob.NewEncoder(&oracle).Encode(&want); err != nil {
			t.Fatal(err)
		}
		var w gobwire.Writer
		w.Count()
		writeVolumeImage(&w, dirs, manifest)
		n := w.Len()
		w.Append(volT.AppendHead(nil, n))
		writeVolumeImage(&w, dirs, manifest)
		got := w.Buffer()
		if len(got) != volT.Len(n) || len(got) != oracle.Len() {
			t.Fatalf("direct encoding is %d bytes, sized %d, gob's %d", len(got), volT.Len(n), oracle.Len())
		}
		if byteExact && !bytes.Equal(got, oracle.Bytes()) {
			t.Fatalf("direct encoding differs from gob's:\n got %x\nwant %x", got, oracle.Bytes())
		}
		var back, ref volumeImage
		if err := gob.NewDecoder(bytes.NewReader(got)).Decode(&back); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(bytes.NewReader(oracle.Bytes())).Decode(&ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("direct encoding decodes to %+v, gob's to %+v", back, ref)
		}
	})
}
