package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"hacfs/internal/bitset"
	"hacfs/internal/gobwire"
	"hacfs/internal/index/indextest"
)

// FuzzTokenize checks the tokenizer's contract on arbitrary bytes: no
// panics, every term within length bounds, lowercase, and only
// alphanumeric bytes; ScanTerms emits, term for term, what Tokenize
// returns and what a plain split-and-lowercase reference finds.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"", "hello world", "CamelCase42", "a", strings.Repeat("x", 100),
		"\x00\xff\xfe", "tab\tsep", "mixed123abc!@#", "ünïcödé",
		strings.Repeat("Ab", 20) + " " + strings.Repeat("cD", 20) + "e",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, content []byte) {
		var scanned []string
		ScanTerms(content, func(term []byte) { scanned = append(scanned, string(term)) })
		want := referenceTerms(content)
		got := Tokenize(content)
		if len(scanned) != len(want) || len(got) != len(want) {
			t.Fatalf("ScanTerms %d terms, Tokenize %d, reference %d", len(scanned), len(got), len(want))
		}
		for i, term := range got {
			if term != want[i] || scanned[i] != want[i] {
				t.Fatalf("term %d: ScanTerms %q, Tokenize %q, reference %q", i, scanned[i], term, want[i])
			}
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

// referenceTerms splits content at every byte that is not an ASCII
// letter or digit and lowercases the runs within the length bounds.
func referenceTerms(content []byte) []string {
	var out []string
	for _, run := range bytes.FieldsFunc(content, func(r rune) bool {
		return !(r < utf8.RuneSelf && isTermByte(byte(r)))
	}) {
		if len(run) >= minTermLen && len(run) <= maxTermLen {
			out = append(out, strings.ToLower(string(run)))
		}
	}
	return out
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
// block, systematic corruptions of it and a block that repeats a term —
// to the per-segment decoder and installs what it decodes. The
// contract: exactly one of (image, error) comes back, errors wrap
// ErrCorruptIndex, a decoded image never references slots outside its
// own document table (the invariant installSegment relies on), and an
// installed segment's term table is sorted and unique, or the install
// fails with ErrCorruptIndex.
func FuzzLoadSegment(f *testing.F) {
	blk := segmentSeedBlock(f)
	f.Add(blk)
	f.Add(repeatedTermBlock(f))
	f.Add([]byte{})
	f.Add(blk[:13])
	f.Add(blk[:len(blk)/2])
	f.Add(blk[:len(blk)-1])
	flipped := append([]byte(nil), blk...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("HACS not a segment"))
	f.Add(claimedFrame(segmentMagic, maxIndexPayload, "short"))
	f.Add(claimedFrame(segmentMagic, maxIndexPayload+1, "short"))
	f.Add(claimedFrame(segmentMagic, 1<<20, ""))

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
			ix := newLoadedIndex(nil)
			if err := ix.installSegment(img); err != nil {
				if !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("install err = %v, does not wrap ErrCorruptIndex", err)
				}
				return
			}
			s := ix.sealed[0]
			if len(s.terms) != len(s.posts) || s.open != nil {
				t.Fatalf("installed %d terms beside %d postings", len(s.terms), len(s.posts))
			}
			for i := 1; i < len(s.terms); i++ {
				if s.terms[i-1] >= s.terms[i] {
					t.Fatalf("installed table has %q before %q", s.terms[i-1], s.terms[i])
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

// claimedFrame is a block header claiming a payload of n bytes, followed
// by body: a truncated frame when body is shorter than n.
func claimedFrame(magic [4]byte, n int, body string) []byte {
	hdr, _ := openBlock(nil, magic, n)
	return append(hdr, body...)
}

// fuzzSegmentImage builds a segment image from fuzz bytes: up to 7
// documents with paths of 0–765 bytes (ASCII or "é"), zero, UTC, zoned
// and second-offset modification times and signed sizes, then up to 7
// postings, each a packed set of 0–70 of the document slots (so Packed
// is empty or 9–300 bytes) under a term of 0–255 bytes.
func fuzzSegmentImage(id uint32, data []byte) *segmentImage {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	img := &segmentImage{ID: id}
	for n := next() % 8; n > 0; n-- {
		l, unit := int(next())*3, "p"
		if l%2 == 1 {
			unit = "é"
		}
		d := docImage{Path: strings.Repeat(unit, l/len(unit)), Size: int(int16(uint16(next())<<8 | uint16(next())))}
		sec := int64(int32(uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next())))
		switch next() % 4 {
		case 1:
			d.ModTime = time.Unix(sec, int64(next())).UTC()
		case 2:
			d.ModTime = time.Unix(sec, 0).In(time.FixedZone("z", (int(next())-128)*60))
		case 3:
			d.ModTime = time.Unix(sec, 0).In(time.FixedZone("s", int(next())+7))
		}
		img.Docs = append(img.Docs, d)
	}
	for n := next() % 8; n > 0; n-- {
		p := postingImage{Term: strings.Repeat("t", int(next()))}
		if k := int(next()) % 71; k > 0 && len(img.Docs) > 0 {
			c := bitset.NewContainer()
			for i := 0; i < k; i++ {
				c.Add(uint32(int(next()) % len(img.Docs)))
			}
			c.Pack()
			p.Packed = c.AppendBinary(nil)
		}
		img.Postings = append(img.Postings, p)
	}
	return img
}

// FuzzSegmentImageEncoding: Save's gob writer against encoding/gob. A
// segment image built from arbitrary bytes encodes to exactly a fresh
// gob.Encoder's bytes, and the block framed around them loads back to
// the same image through loadSegmentBlock; an image gob cannot encode
// (a modification time whose zone offset has no binary form) fails the
// writer too.
func FuzzSegmentImageEncoding(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(7), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint32(1<<31), []byte{3, 43, 255, 255, 0, 0, 1, 0, 1, 5, 201, 0, 1, 2, 3, 2, 3, 9, 0, 1, 0, 0, 0, 0, 3, 1, 2, 10, 70, 1, 2, 3})
	f.Add(uint32(9), []byte{0, 2, 5, 0, 0})
	f.Add(uint32(3), []byte{2, 100, 0, 1, 0, 0, 0, 0, 0, 30, 1, 0, 0, 0, 0, 0, 1, 1, 4, 70, 0, 1, 0, 1})

	segT, err := segmentType()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, id uint32, data []byte) {
		img := fuzzSegmentImage(id, data)
		var want bytes.Buffer
		wantErr := gob.NewEncoder(&want).Encode(img)
		var w gobwire.Writer
		w.Count()
		err := writeSegmentImage(&w, img)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("direct encoding fails with %v, gob with %v", err, wantErr)
		}
		if err != nil {
			return // a zone offset with no binary form: neither encodes it
		}
		n := w.Len()
		w.Append(segT.AppendHead(nil, n))
		if err := writeSegmentImage(&w, img); err != nil {
			t.Fatal(err)
		}
		got := w.Buffer()
		if len(got) != segT.Len(n) || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("direct encoding differs from gob's (sized %d):\n got %x\nwant %x", segT.Len(n), got, want.Bytes())
		}
		block, payload := openBlock(nil, segmentMagic, len(got))
		block = closeBlock(append(block, got...), payload)
		back, err := loadSegmentBlock(bytes.NewReader(block))
		if err != nil {
			t.Fatal(err)
		}
		if back.ID != img.ID || len(back.Docs) != len(img.Docs) || len(back.Postings) != len(img.Postings) {
			t.Fatalf("loaded segment %d with %d docs and %d postings, saved %d with %d and %d",
				back.ID, len(back.Docs), len(back.Postings), img.ID, len(img.Docs), len(img.Postings))
		}
		for i, d := range img.Docs {
			b := back.Docs[i]
			_, wantOff := d.ModTime.Zone()
			_, gotOff := b.ModTime.Zone()
			if b.Path != d.Path || b.Size != d.Size || !b.ModTime.Equal(d.ModTime) || gotOff != wantOff || b.ModTime.IsZero() != d.ModTime.IsZero() {
				t.Fatalf("document %d loaded as %+v, saved %+v", i, b, d)
			}
		}
		for i, p := range img.Postings {
			if b := back.Postings[i]; b.Term != p.Term || !bytes.Equal(b.Packed, p.Packed) {
				t.Fatalf("posting %d loaded as %q %x, saved %q %x", i, b.Term, b.Packed, p.Term, p.Packed)
			}
		}
	})
}
