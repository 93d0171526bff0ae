package hac

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

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
