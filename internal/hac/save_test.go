package hac

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/leaktest"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// imageFixtureVolume builds a volume whose image is the same bytes on
// every save, in every process: a fixed clock, one indexed term (so the
// index holds one posting per segment), two files with the same content,
// a zero-length file and a semantic directory with no permanent link.
func imageFixtureVolume(t *testing.T) *FS {
	t.Helper()
	under := cas.New(nil)
	t0 := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	under.SetClock(func() time.Time { return t0 })
	fs := New(under, Options{})
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	for p, c := range map[string]string{"/docs/a.txt": "apple", "/docs/b.txt": "apple", "/docs/c.txt": "apple apple", "/docs/empty.txt": ""} {
		if err := fs.WriteFile(p, []byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/s", "apple"); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSaveWritesEachBlobOnceInManifestOrder: the blob section lists
// every distinct blob — the zero-length one too — exactly once, in the
// order the manifest first references it, and an unchanged volume saves
// to the same bytes twice.
func TestSaveWritesEachBlobOnceInManifestOrder(t *testing.T) {
	fs := imageFixtureVolume(t)
	img := saveImage(t, fs)
	if again := saveImage(t, fs); !bytes.Equal(img, again) {
		t.Fatalf("two saves of an unchanged volume differ (%d and %d bytes)", len(img), len(again))
	}
	off := 14 + int(binary.BigEndian.Uint64(img[6:14])) + 4
	if !bytes.Equal(img[off:off+4], blobSectionMagic[:]) {
		t.Fatalf("no blob section at offset %d", off)
	}
	count := int(binary.BigEndian.Uint32(img[off+4 : off+8]))
	off += 8
	var got []cas.Hash
	for i := 0; i < count; i++ {
		var h cas.Hash
		copy(h[:], img[off:off+32])
		n := int(binary.BigEndian.Uint64(img[off+32 : off+40]))
		if cas.Sum(img[off+40:off+40+n]) != h {
			t.Fatalf("blob %d: content does not hash to %s", i, h.Short())
		}
		got = append(got, h)
		off += 40 + n
	}
	// Manifest order is path order: a.txt, b.txt (a.txt's content),
	// c.txt, empty.txt.
	want := []cas.Hash{cas.Sum([]byte("apple")), cas.Sum([]byte("apple apple")), cas.Sum(nil)}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("blob section holds %d blobs %v, want %v", len(got), got, want)
	}
	loaded, err := LoadVolume(bytes.NewReader(img), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := loaded.ReadFile("/docs/empty.txt"); err != nil || len(data) != 0 {
		t.Fatalf("loaded zero-length file: %q, %v", data, err)
	}
	if problems := loaded.CheckConsistency(); len(problems) != 0 {
		t.Fatal(problems)
	}
}

// TestFirstSaveMatchesParentImage: the first save in a fresh process —
// where gob numbers the image's types while the index section encodes
// beside the manifest — writes the bytes a serial save wrote
// (testdata/parent-df62b9b-image.hac, written by commit df62b9b from
// imageFixtureVolume at GOMAXPROCS=2). The save runs in a child
// process, so no earlier test has fixed gob's type numbering; the child
// runs at GOMAXPROCS=2 too, as the fixture was written.
func TestFirstSaveMatchesParentImage(t *testing.T) {
	if out := os.Getenv("HAC_FIRST_SAVE_OUT"); out != "" {
		if err := os.WriteFile(out, saveImage(t, imageFixtureVolume(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/parent-df62b9b-image.hac")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		out := filepath.Join(t.TempDir(), "first.hac")
		cmd := exec.Command(os.Args[0], "-test.run=^TestFirstSaveMatchesParentImage$", "-test.count=1")
		cmd.Env = append(os.Environ(), "HAC_FIRST_SAVE_OUT="+out, "GOMAXPROCS=2")
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child save: %v\n%s", err, msg)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("first save in a fresh process wrote %d bytes, the parent %d, and they differ", len(got), len(want))
		}
	}
}

// TestSaveVolumeRacesWriters: saves taken while writers create, rename
// and remove files and semantic directories, re-index and merge the
// index each load cleanly and are consistent after their settling
// Reindex; saves torn by a failing writer return an error; and no
// goroutine a save started outlives it.
func TestSaveVolumeRacesWriters(t *testing.T) {
	fs := New(vfs.NewFaultFS(cas.New(nil), vfs.FaultConfig{}), Options{})
	fs.Index().SetSealThreshold(16)
	for d := 0; d < 4; d++ {
		if err := fs.MkdirAll(fmt.Sprintf("/docs/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/docs/d%d/f%02d.txt", i%4, i), []byte(raceWords(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"apple", "banana AND NOT cherry"} {
		if err := fs.SemDir("/q-"+q[:5], q); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()

	// Each writer runs a fixed number of operations; the saver saves
	// until they are done, every third save into a writer that fails
	// partway through the main frame.
	var images [][]byte
	writersDone := make(chan struct{})
	saverDone := make(chan struct{})
	go func() {
		defer close(saverDone)
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-writersDone:
				return
			default:
			}
			var buf bytes.Buffer
			if i%3 == 2 {
				if err := fs.SaveVolume(&vfs.CrashWriter{W: &buf, Limit: rng.Intn(512)}); err == nil {
					t.Errorf("save %d: a torn write returned no error", i)
				}
				continue
			}
			if err := fs.SaveVolume(&buf); err != nil {
				t.Errorf("save %d: %v", i, err)
				continue
			}
			images = append(images, buf.Bytes())
		}
	}()
	writers := []func(rng *rand.Rand, i int){
		func(rng *rand.Rand, i int) {
			dir := fmt.Sprintf("/docs/d%d", rng.Intn(4))
			_ = fs.MkdirAll(dir)
			_ = fs.WriteFile(fmt.Sprintf("%s/f%02d.txt", dir, rng.Intn(60)), []byte(raceWords(rng.Intn(8))))
		},
		func(rng *rand.Rand, i int) {
			_ = fs.Rename(fmt.Sprintf("/docs/d%d/f%02d.txt", rng.Intn(4), rng.Intn(60)), fmt.Sprintf("/docs/d%d/r%02d.txt", rng.Intn(4), rng.Intn(60)))
		},
		func(rng *rand.Rand, i int) {
			if i%4 == 0 {
				_ = fs.RemoveAll(fmt.Sprintf("/docs/d%d", rng.Intn(4)))
				return
			}
			_ = fs.RemoveAll("/q-apple")
			_ = fs.SemDir("/q-apple", "apple")
		},
		func(rng *rand.Rand, i int) {
			if i%2 == 0 {
				_, _ = fs.Reindex("/")
				return
			}
			fs.Index().ForceMerge()
		},
	}
	var wg sync.WaitGroup
	for w, write := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 2)))
			for i := 0; i < 40; i++ {
				write(rng, i)
			}
		}()
	}
	wg.Wait()
	close(writersDone)
	<-saverDone

	leaktest.Settle(t, before, 5*time.Second, "the saves")
	if len(images) == 0 {
		t.Fatal("no save completed")
	}
	t.Logf("%d images", len(images))
	for i, img := range images {
		loaded, err := LoadVolume(bytes.NewReader(img), Options{})
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if problems := loaded.CheckConsistency(); len(problems) != 0 {
			t.Fatalf("image %d: %v", i, problems)
		}
	}
}

// raceWords is the content of the i-th file of TestSaveVolumeRacesWriters.
func raceWords(i int) string {
	words := []string{"apple", "banana", "cherry", "date"}
	return words[i%4] + " " + words[(i/4)%4] + " common"
}

// A full save is O(volume): a SaveVolume of a 1 000-file volume writes
// at least twice the bytes of one of a 200-file volume, and each writes
// at least the 256 random (incompressible) bytes of content per file. (A
// save that stopped writing the blob section, or wrote only a fixed
// head, would fail this.) Bytes, not time: a wall-clock bar fails on a
// loaded machine.
func TestFullSaveGrowsWithVolume(t *testing.T) {
	saved := func(files int) int64 {
		fs := New(cas.New(nil), Options{})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < files; i++ {
			if i%100 == 0 {
				if err := fs.MkdirAll(fmt.Sprintf("/d%04d", i/100)); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, 256)
			rng.Read(buf)
			copy(buf, fmt.Sprintf("file %d ", i)) // unique content
			if err := fs.WriteFile(fmt.Sprintf("/d%04d/f%06d.txt", i/100, i), buf); err != nil {
				t.Fatal(err)
			}
		}
		var w byteCounter
		if err := fs.SaveVolume(&w); err != nil {
			t.Fatal(err)
		}
		if int64(w) < int64(files)*256 {
			t.Fatalf("save of %d files wrote %d B, less than their content", files, w)
		}
		return int64(w)
	}
	small, large := saved(200), saved(1000)
	growth := float64(large) / float64(small)
	t.Logf("full save: 200 files %d B, 1 000 files %d B, growth %.1fx", small, large, growth)
	if growth < 2 {
		t.Fatalf("full save grew %.2fx from 200 to 1 000 files (%d B → %d B); want ≥ 2x", growth, small, large)
	}
}

// byteCounter is an io.Writer that counts what it is given.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// allocVolume builds a volume of n documents in eight directories, each
// document holding a term shared by all of them and one of n/10 others,
// under a semantic directory linking every document and one with a
// permanent link, a renamed transient link and a prohibition.
func allocVolume(t *testing.T, n int) *FS {
	t.Helper()
	fs := New(cas.New(nil), Options{})
	for d := 0; d < 8; d++ {
		if err := fs.MkdirAll(fmt.Sprintf("/docs/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		content := fmt.Sprintf("common t%d", i%(n/10))
		if err := fs.WriteFile(fmt.Sprintf("/docs/d%d/f%05d.txt", i%8, i), []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/all", "common"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/some", "t1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MarkPermanent("/some", "/docs/d0/f00000.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MarkProhibited("/some", "/docs/d1/f00001.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/all/f00002.txt", "/all/renamed.txt"); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSaveAllocs: once a save has sized the buffers it keeps, a save of
// the same volume makes a fixed number of allocations — the same for
// 500 documents as for 5 000, so none per document, posting or link —
// both for Index.Save and for SaveVolume; and no goroutine a save
// started outlives it.
func TestSaveAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5 000-document volume")
	}
	counts := map[int][2]float64{}
	before := runtime.NumGoroutine()
	for _, n := range []int{500, 5000} {
		fs := allocVolume(t, n)
		ix := fs.Index()
		if err := fs.SaveVolume(io.Discard); err != nil { // warm-up
			t.Fatal(err)
		}
		var err error
		ixAllocs := testing.AllocsPerRun(5, func() {
			if e := ix.Save(io.Discard); e != nil {
				err = e
			}
		})
		volAllocs := testing.AllocsPerRun(5, func() {
			if e := fs.SaveVolume(io.Discard); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		counts[n] = [2]float64{ixAllocs, volAllocs}
		t.Logf("%d documents: Index.Save %.0f allocations, SaveVolume %.0f", n, ixAllocs, volAllocs)
	}
	if counts[500] != counts[5000] {
		t.Fatalf("allocations per save grow with the volume: Index.Save %v → %v, SaveVolume %v → %v (500 → 5 000 documents)",
			counts[500][0], counts[5000][0], counts[500][1], counts[5000][1])
	}
	leaktest.Settle(t, before, 5*time.Second, "the saves")
}

// BenchmarkSaveVolume saves a 10 000-document corpus volume with three
// semantic directories after twelve rounds that each rewrite 1 % of its
// files and re-index, to io.Discard: "index" is Index.Save alone (the
// section SaveVolume encodes beside the main frame), "volume" the whole
// SaveVolume.
func BenchmarkSaveVolume(b *testing.B) {
	fs := New(cas.New(nil), Options{})
	if err := fs.MkdirAll("/db"); err != nil {
		b.Fatal(err)
	}
	m, err := corpus.Generate(fs, "/db", corpus.Spec{Files: 10000, MeanWords: 40, Seed: 7001})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Reindex("/db"); err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{"markerfew", "markermid", "markermany"} {
		if err := fs.SemDir("/s-"+q, q); err != nil {
			b.Fatal(err)
		}
	}
	for round := 0; round < 12; round++ {
		for i := round; i < len(m.Files); i += 100 {
			if err := fs.WriteFile(m.Files[i].Path, []byte(fmt.Sprintf("rewritten round%d markermid", round))); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := fs.Reindex("/"); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fs.Index().Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("volume", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fs.SaveVolume(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
