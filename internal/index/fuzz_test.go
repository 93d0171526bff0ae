package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hacfs/internal/index/indextest"
)

// FuzzTokenize checks the tokenizer's contract on arbitrary bytes: no
// panics, every term within length bounds, lowercase, and only
// alphanumeric bytes.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"", "hello world", "CamelCase42", "a", strings.Repeat("x", 100),
		"\x00\xff\xfe", "tab\tsep", "mixed123abc!@#", "ünïcödé",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, content []byte) {
		for _, term := range Tokenize(content) {
			if len(term) < minTermLen || len(term) > maxTermLen {
				t.Fatalf("term %q violates length bounds", term)
			}
			for i := 0; i < len(term); i++ {
				b := term[i]
				ok := b >= 'a' && b <= 'z' || b >= '0' && b <= '9'
				if !ok {
					t.Fatalf("term %q contains non-lowercase-alnum byte %q", term, b)
				}
			}
		}
	})
}

// segmentSeedBlock saves a small index and strips the container block,
// leaving one valid framed segment block for the fuzz corpus.
func segmentSeedBlock(tb testing.TB) []byte {
	tb.Helper()
	ix := New()
	ix.Add("/a", []byte("apple banana"))
	ix.Add("/b", []byte("banana cherry"))
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	img := buf.Bytes()
	off := 14 + int(binary.BigEndian.Uint64(img[6:14])) + 4
	if off >= len(img) {
		tb.Fatal("saved image has no segment block")
	}
	return img[off:]
}

// FuzzLoadSegment feeds arbitrary bytes — seeded with a valid segment
// block and systematic corruptions of it — to the per-segment decoder.
// The contract: exactly one of (image, error) comes back, errors wrap
// ErrCorruptIndex, and a decoded image never references slots outside
// its own document table (the invariant installSegment relies on).
func FuzzLoadSegment(f *testing.F) {
	blk := segmentSeedBlock(f)
	f.Add(blk)
	f.Add([]byte{})
	f.Add(blk[:13])
	f.Add(blk[:len(blk)/2])
	f.Add(blk[:len(blk)-1])
	flipped := append([]byte(nil), blk...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("HACS not a segment"))

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := loadSegmentBlock(bytes.NewReader(data))
		switch {
		case img != nil && err != nil:
			t.Fatalf("both image and error returned: %v", err)
		case img == nil && err == nil:
			t.Fatal("neither image nor error returned")
		case err != nil:
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("err = %v, does not wrap ErrCorruptIndex", err)
			}
		default:
			// installSegment takes pi.set as the posting: it must hold
			// every wire form and stay inside the document table.
			for _, pi := range img.Postings {
				if pi.set == nil {
					t.Fatalf("posting %q was not decoded", pi.Term)
				}
				if m, ok := pi.set.Max(); ok && int(m) >= len(img.Docs) {
					t.Fatalf("posting %q references slot %d of %d", pi.Term, m, len(img.Docs))
				}
				for _, l := range pi.IDs {
					if !pi.set.Contains(l) {
						t.Fatalf("posting %q lost legacy slot %d", pi.Term, l)
					}
				}
			}
		}
	})
}

// FuzzWithinOneEdit cross-checks the fast edit-distance predicate
// against the reference implementation on arbitrary short strings.
func FuzzWithinOneEdit(f *testing.F) {
	f.Add("apple", "aple")
	f.Add("", "")
	f.Add("ab", "ba")
	f.Add("xyz", "zyx")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 12 || len(b) > 12 {
			return // keep the O(n²) reference cheap
		}
		got := withinOneEdit(a, b)
		want := indextest.WithinOneEdit(a, b)
		if got != want {
			t.Fatalf("withinOneEdit(%q, %q) = %v, reference says %v", a, b, got, want)
		}
	})
}
