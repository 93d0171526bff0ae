package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hacfs/internal/vfs"
)

// mixedContent draws n pieces separated by spaces, punctuation and
// non-ASCII bytes: letter runs in mixed case of 1, 2, 3, 40 and 41
// bytes, digit runs, letter-digit runs, and words from a small
// vocabulary so terms repeat within and across documents.
func mixedContent(rng *rand.Rand, n int) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	seps := []string{" ", "\t", ", ", "\n", "\xc3\xa9", "\xff", "ü", "-", "\x00"}
	run := func(k int, alphabet string) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch r := rng.Intn(8); r {
		case 0:
			sb.WriteString(run([]int{1, 2, 3, 40, 41}[rng.Intn(5)], letters))
		case 1:
			sb.WriteString(run(1+rng.Intn(6), "0123456789"))
		case 2:
			sb.WriteString(run(2, letters) + run(2, "0123456789"))
		default:
			w := []string{"Apple", "apple", "APPLE", "pear", "Pear42", "x1", "kiwi"}[rng.Intn(7)]
			sb.WriteString(w)
		}
		sb.WriteString(seps[rng.Intn(len(seps))])
	}
	return []byte(sb.String())
}

// TestSyncTreeMatchesAdd: a tree ingested by one reindex pass and the
// same files indexed one Add at a time, in walk order and then sealed,
// hold the same documents and the same posting for every term, and
// report the same IndexBytes — the scanning ingest and the per-document
// write path tokenize alike.
func TestSyncTreeMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fsys := vfs.New()
	for d := 0; d < 4; d++ {
		if err := fsys.MkdirAll(fmt.Sprintf("/t/d%d/sub", d)); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 12; f++ {
			p := fmt.Sprintf("/t/d%d/f%02d.txt", d, f)
			if f%3 == 0 {
				p = fmt.Sprintf("/t/d%d/sub/f%02d", d, f)
			}
			if err := fsys.WriteFile(p, mixedContent(rng, 1+rng.Intn(120))); err != nil {
				t.Fatal(err)
			}
		}
	}

	synced := New()
	if _, _, _, err := synced.SyncTree(fsys, "/t", nil); err != nil {
		t.Fatal(err)
	}
	added := New()
	err := vfs.Walk(fsys, "/t", func(p string, info vfs.Info) error {
		if info.Type != vfs.TypeFile {
			return nil
		}
		content, err := fsys.ReadFile(p)
		if err != nil {
			return err
		}
		added.AddWithTime(p, content, info.ModTime)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	added.ForceMerge() // seals the active segment: one sealed segment each

	a, b := synced.sealed, added.sealed
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("sealed segments: SyncTree %d, Add %d; want 1 each", len(a), len(b))
	}
	sa, sb := a[0], b[0]
	if len(sa.docs) != len(sb.docs) || len(sa.docs) != 48 {
		t.Fatalf("documents: SyncTree %d, Add %d; want 48", len(sa.docs), len(sb.docs))
	}
	for i := range sa.docs {
		if sa.docs[i].path != sb.docs[i].path || sa.docs[i].size != sb.docs[i].size {
			t.Fatalf("slot %d: SyncTree %+v, Add %+v", i, sa.docs[i], sb.docs[i])
		}
	}
	if !slices.Equal(sa.terms, sb.terms) {
		t.Fatalf("terms: SyncTree %d, Add %d, or they differ", len(sa.terms), len(sb.terms))
	}
	long := 0
	for i, term := range sa.terms {
		c, o := &sa.posts[i], &sb.posts[i]
		if !c.Equal(o) || c.Kind() != o.Kind() {
			t.Fatalf("posting %q: SyncTree %s %v, Add %s %v", term, c.Kind(), c.Slice(), o.Kind(), o.Slice())
		}
		if len(term) == maxTermLen {
			long++
		}
	}
	if long == 0 {
		t.Fatal("corpus holds no term of the maximum length")
	}
	if ga, gb := synced.Stats().IndexBytes, added.Stats().IndexBytes; ga != gb {
		t.Fatalf("IndexBytes: SyncTree %d, Add %d", ga, gb)
	}
}

// TestIngestAllocs counts what indexing a file costs once the segment
// holds all its terms: every file below carries the same 40 terms in
// mixed case, 40 or 400 words long. A pass that allocated per token
// would differ by 360 allocations a file; the scanning ingest
// allocates per file and per new term only, for a reindex pass and for
// per-document Adds alike. An Add gathers a file's terms in the index's
// one reused buffer and packs them deduplicated: 607 allocations for the
// 100 files, where a term set per document cost 6 272 (a key and a
// packed copy of each of its 40 terms).
func TestIngestAllocs(t *testing.T) {
	const files = 100
	tree := func(words int) *vfs.MemFS {
		var sb strings.Builder
		for i := 0; i < words; i++ {
			if i%2 == 0 {
				fmt.Fprintf(&sb, "Term%02d ", i%40)
			} else {
				fmt.Fprintf(&sb, "term%02d, ", i%40)
			}
		}
		fsys := vfs.New()
		if err := fsys.MkdirAll("/c"); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < files; f++ {
			if err := fsys.WriteFile(fmt.Sprintf("/c/f%03d", f), []byte(sb.String())); err != nil {
				t.Fatal(err)
			}
		}
		return fsys
	}
	type cost struct{ pass, adds float64 }
	measure := func(words int) cost {
		fsys := tree(words)
		content, err := fsys.ReadFile("/c/f000")
		if err != nil {
			t.Fatal(err)
		}
		var c cost
		c.pass = testing.AllocsPerRun(5, func() {
			if _, _, _, err := New().SyncTree(fsys, "/c", nil); err != nil {
				t.Fatal(err)
			}
		})
		paths := make([]string, files)
		for f := range paths {
			paths[f] = fmt.Sprintf("/c/f%03d", f)
		}
		c.adds = testing.AllocsPerRun(5, func() {
			ix := New()
			for _, p := range paths {
				ix.Add(p, content)
			}
		})
		return c
	}
	short, long := measure(40), measure(400)
	t.Logf("allocations for %d files: 40 words %+v, 400 words %+v", files, short, long)
	const slack = 2 // whole allocations over the whole ingest, not per file
	if d := long.pass - short.pass; d > slack || d < -slack {
		t.Errorf("a reindex pass allocates %.0f at 400 words a file, %.0f at 40: %.2f a file more",
			long.pass, short.pass, d/files)
	}
	if d := long.adds - short.adds; d > slack || d < -slack {
		t.Errorf("Add allocates %.0f at 400 words a file, %.0f at 40: %.2f a file more",
			long.adds, short.adds, d/files)
	}
	if long.adds >= long.pass {
		t.Errorf("Add allocates %.0f for %d files, a reindex pass %.0f: a per-term allocation is back",
			long.adds, files, long.pass)
	}
	const maxAdds = 607
	if !raceEnabled && long.adds > maxAdds+slack {
		t.Errorf("Add allocates %.0f for %d files, want at most %d: a per-term allocation is back",
			long.adds, files, maxAdds)
	}
}

// TestAddLargeFileAllocBytes bounds what an Add of a 1 MiB file of 5 000
// distinct words allocates: the term buffers grow with the distinct
// terms, not with the file. The first Add, which makes the buffers and
// every posting, allocates about twice the file's size; a second, with
// the segment holding the terms and the buffers kept, allocates little
// more than its packed term list. (A term set per document cost 1.7 and
// 0.7 MiB; buffers sized for the worst case, 5.7 and 4.7 MiB.)
func TestAddLargeFileAllocBytes(t *testing.T) {
	const size, vocabulary = 1 << 20, 5000
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for sb.Len() < size {
		fmt.Fprintf(&sb, "word%04d ", rng.Intn(vocabulary))
	}
	content := []byte(sb.String())
	ix := New()
	add := func(path string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix.Add(path, content)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := add("/first"), add("/second")
	t.Logf("an Add of %d bytes, %d distinct terms, allocates %d bytes first, %d second", len(content), vocabulary, first, second)
	if first > 3*size {
		t.Errorf("the first Add of a %d-byte file allocates %d bytes, want at most %d: the term buffers grow with the file", len(content), first, 3*size)
	}
	if second > size/8 {
		t.Errorf("a second Add of a %d-byte file allocates %d bytes, want at most %d: the term buffers grow with the file", len(content), second, size/8)
	}
}
