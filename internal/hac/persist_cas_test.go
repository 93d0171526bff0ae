package hac

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// saveImage serializes a volume and returns the raw image bytes.
func saveImage(t *testing.T, fs *FS) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		t.Fatalf("SaveVolume: %v", err)
	}
	return buf.Bytes()
}

// blobSectionLen walks a v4 image's blob section (which starts right
// after the main frame) and returns its length in bytes.
func blobSectionLen(t *testing.T, img []byte, mainLen int) int {
	t.Helper()
	if !bytes.Equal(img[mainLen:mainLen+4], blobSectionMagic[:]) {
		t.Fatalf("no blob section at offset %d", mainLen)
	}
	count := binary.BigEndian.Uint32(img[mainLen+4 : mainLen+8])
	off := mainLen + 8
	for i := uint32(0); i < count; i++ {
		off += 40 + int(binary.BigEndian.Uint64(img[off+32:off+40]))
	}
	return off - mainLen
}

func TestVolumeV4RoundTrip(t *testing.T) {
	fs := newCASTestFS(t, nil)
	if err := fs.SemDir("/sel", "apple AND NOT banana"); err != nil {
		t.Fatal(err)
	}
	img := saveImage(t, fs)
	if v := binary.BigEndian.Uint16(img[4:6]); v != volumeVersion {
		t.Fatalf("cas substrate saved frame version %d, want %d", v, volumeVersion)
	}

	restored, err := LoadVolume(bytes.NewReader(img), Options{})
	if err != nil {
		t.Fatalf("LoadVolume: %v", err)
	}
	data, err := restored.ReadFile("/docs/apple1.txt")
	if err != nil || string(data) != "apple fruit red" {
		t.Fatalf("content = %q, %v", data, err)
	}
	if !restored.IsSemantic("/sel") {
		t.Fatal("semantic flag lost")
	}
	if got, want := targetsOf(t, restored, "/sel"), targetsOf(t, fs, "/sel"); !reflect.DeepEqual(got, want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}
	// The restored substrate is content-addressed again and re-saves in
	// the same format.
	again := saveImage(t, restored)
	if v := binary.BigEndian.Uint16(again[4:6]); v != volumeVersion {
		t.Fatalf("re-save wrote version %d", v)
	}
	if _, err := LoadVolume(bytes.NewReader(again), Options{}); err != nil {
		t.Fatalf("second-generation image rejected: %v", err)
	}
}

func TestVolumeV4ThroughFaultFS(t *testing.T) {
	// The substrate unwrap sees through fault injection, so model checks
	// save and restore content-addressed volumes like any other.
	fault := vfs.NewFaultFS(cas.New(nil), vfs.FaultConfig{})
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
	img := saveImage(t, fs)
	if v := binary.BigEndian.Uint16(img[4:6]); v != volumeVersion {
		t.Fatalf("fault-wrapped cas substrate saved version %d", v)
	}
	restored, err := LoadVolume(bytes.NewReader(img), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantTargets(t, restored, "/sel", "/docs/a.txt")
}

// TestVolumeV4BlobDedupInImage pins the format's storage story: files
// with identical content contribute one blob to the image, so the image
// stays near-flat as duplicates multiply.
func TestVolumeV4BlobDedupInImage(t *testing.T) {
	fs := New(cas.New(nil), Options{})
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("payload "), 512) // 4 KiB
	for _, name := range []string{"/d/a", "/d/b", "/d/c", "/d/d"} {
		if err := fs.WriteFile(name, body); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	img := saveImage(t, fs)
	mainLen := mainFrameLen(t, img)
	if count := binary.BigEndian.Uint32(img[mainLen+4 : mainLen+8]); count != 1 {
		t.Fatalf("image carries %d blobs for 4 identical files, want 1", count)
	}
	if got := blobSectionLen(t, img, mainLen); got > 2*len(body) {
		t.Fatalf("blob section is %d bytes for one %d-byte blob", got, len(body))
	}
	restored, err := LoadVolume(bytes.NewReader(img), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/d/a", "/d/b", "/d/c", "/d/d"} {
		data, err := restored.ReadFile(name)
		if err != nil || !bytes.Equal(data, body) {
			t.Fatalf("%s: content lost (%d bytes, %v)", name, len(data), err)
		}
	}
}

// TestVolumeV4SharedStoreDedup loads two tenants with identical content
// into one shared blob store: the second load adds no unique bytes, and
// unloading one tenant's volume leaves the other's content intact.
func TestVolumeV4SharedStoreDedup(t *testing.T) {
	imgA := saveImage(t, newCASTestFS(t, nil))
	imgB := saveImage(t, newCASTestFS(t, nil))

	shared := cas.NewStore()
	a, err := LoadVolume(bytes.NewReader(imgA), Options{BlobStore: shared})
	if err != nil {
		t.Fatal(err)
	}
	afterA := shared.UniqueBytes()
	if afterA == 0 {
		t.Fatal("first load stored nothing in the shared store")
	}
	b, err := LoadVolume(bytes.NewReader(imgB), Options{BlobStore: shared})
	if err != nil {
		t.Fatal(err)
	}
	if got := shared.UniqueBytes(); got != afterA {
		t.Fatalf("identical second tenant grew unique bytes %d → %d", afterA, got)
	}
	// Tenant A dropping every file must not free tenant B's content.
	for _, p := range []string{"/docs/apple1.txt", "/docs/apple2.txt", "/docs/banana.txt",
		"/docs/cherry.txt", "/mail/m1.txt", "/mail/m2.txt"} {
		if err := a.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	data, err := b.ReadFile("/docs/apple1.txt")
	if err != nil || string(data) != "apple fruit red" {
		t.Fatalf("tenant B content lost after tenant A removal: %q, %v", data, err)
	}
}

// TestVolumeV4CorruptionRejected covers the new sections: truncation
// anywhere and bit flips in the main frame or the blob section reject
// the image with ErrCorruptVolume — a flipped content byte fails the
// blob's own SHA-256, there is no separate checksum to miss.
func TestVolumeV4CorruptionRejected(t *testing.T) {
	fs := newCASTestFS(t, nil)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	good := saveImage(t, fs)
	mainLen := mainFrameLen(t, good)
	blobLen := blobSectionLen(t, good, mainLen)

	cuts := []int{0, 5, 13, 14, mainLen - 1, mainLen, mainLen + 4, mainLen + 9,
		mainLen + blobLen/2, mainLen + blobLen - 1, mainLen + blobLen, len(good) - 1}
	for _, cut := range cuts {
		if cut > len(good) {
			continue
		}
		if _, err := LoadVolume(bytes.NewReader(good[:cut]), Options{}); !errors.Is(err, ErrCorruptVolume) {
			t.Fatalf("truncation at %d of %d: err = %v, want ErrCorruptVolume", cut, len(good), err)
		}
	}
	flips := []int{1, 5, 20, mainLen / 2, mainLen + 1, mainLen + 5, // magic/count
		mainLen + 8 + 7,                         // a hash byte
		mainLen + 8 + 45, mainLen + blobLen - 2} // content bytes
	for _, pos := range flips {
		mut := append([]byte(nil), good...)
		mut[pos] ^= 0x20
		if _, err := LoadVolume(bytes.NewReader(mut), Options{}); !errors.Is(err, ErrCorruptVolume) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorruptVolume", pos, err)
		}
	}
	// Pristine image still loads.
	if _, err := LoadVolume(bytes.NewReader(good), Options{}); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}

// TestVolumeV4FailedLoadLeavesSharedStoreClean: a rejected image must
// not leak blob references into a shared store — tenants that never
// materialized must not pin storage.
func TestVolumeV4FailedLoadLeavesSharedStoreClean(t *testing.T) {
	good := saveImage(t, newCASTestFS(t, nil))
	mainLen := mainFrameLen(t, good)
	blobLen := blobSectionLen(t, good, mainLen)

	shared := cas.NewStore()
	// Flip a byte deep in the blob section: several blobs load (and take
	// temporary references) before the damaged one rejects the image.
	mut := append([]byte(nil), good...)
	mut[mainLen+blobLen-2] ^= 0x01
	if _, err := LoadVolume(bytes.NewReader(mut), Options{BlobStore: shared}); !errors.Is(err, ErrCorruptVolume) {
		t.Fatalf("damaged image accepted: %v", err)
	}
	if got := shared.UniqueBytes(); got != 0 {
		t.Fatalf("failed load left %d bytes pinned in the shared store", got)
	}
	// Truncation after the blob section (inside the index frames) also
	// rejects; the store must again end clean.
	if _, err := LoadVolume(bytes.NewReader(good[:mainLen+blobLen+3]), Options{BlobStore: shared}); !errors.Is(err, ErrCorruptVolume) {
		t.Fatal("truncated index section accepted")
	}
	if got := shared.UniqueBytes(); got != 0 {
		t.Fatalf("failed index load left %d bytes pinned", got)
	}
}

// TestVolumeV4CrashDuringSave tears a v4 save at every section boundary
// region; every torn image is rejected and the previous good image
// still restores the volume.
func TestVolumeV4CrashDuringSave(t *testing.T) {
	fs := newCASTestFS(t, nil)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	good := saveImage(t, fs)
	mainLen := mainFrameLen(t, good)
	blobLen := blobSectionLen(t, good, mainLen)
	for _, limit := range []int{0, 13, 14, mainLen - 2, mainLen, mainLen + 6,
		mainLen + blobLen/2, mainLen + blobLen, len(good) - 1} {
		var torn bytes.Buffer
		if err := fs.SaveVolume(&vfs.CrashWriter{W: &torn, Limit: limit}); err == nil {
			t.Fatalf("save through crashing writer (limit %d) succeeded", limit)
		}
		if _, err := LoadVolume(bytes.NewReader(torn.Bytes()), Options{}); err == nil {
			t.Fatalf("torn image (limit %d) accepted", limit)
		}
	}
	restored, err := LoadVolume(bytes.NewReader(good), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := targetsOf(t, restored, "/sel"), targetsOf(t, fs, "/sel"); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery targets = %v, want %v", got, want)
	}
}

// ---------------------------------------------------------------------
// A v4 image written before the index kept postings in containers.
// testdata/parent-e03e5e5.hac is fixtureVolume saved by commit e03e5e5.
// ---------------------------------------------------------------------

// fixtureVolume builds the volume the checked-in v4 image holds: 300
// files over a content-addressed substrate, four semantic directories
// (one nested, one reading another through a dir: reference), one
// prohibited and one permanent link.
func fixtureVolume(t *testing.T) *FS {
	t.Helper()
	fs := New(cas.New(nil), Options{})
	for i := 0; i < 300; i++ {
		words := []string{"all", fmt.Sprintf("n%d", i)}
		if i%2 == 0 {
			words = append(words, "even")
		}
		if i%3 == 0 {
			words = append(words, "third")
		}
		if i%41 == 0 {
			words = append(words, "sparse")
		}
		p := fmt.Sprintf("/fix/d%d/f%03d.txt", i%5, i)
		if err := fs.MkdirAll(vfs.Dir(p)); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(p, []byte(strings.Join(words, " "))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	for _, sd := range fixtureSemDirs {
		if err := fs.SemDir(sd[0], sd[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Remove("/s-even/f004.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/fix/d1/f001.txt", "/s-even/mine.txt"); err != nil {
		t.Fatal(err)
	}
	return fs
}

var fixtureSemDirs = [][2]string{
	{"/s-even", "even"},
	{"/s-and", "third AND NOT even"},
	{"/s-even/inner", "third"},
	{"/s-ref", "dir:/s-even AND sparse"},
}

func TestLoadVolumeWrittenByParent(t *testing.T) {
	loaded, err := LoadVolumeFile("testdata/parent-e03e5e5.hac", Options{})
	if err != nil {
		t.Fatal(err)
	}
	live := fixtureVolume(t)
	if got, want := loaded.SemanticDirs(), live.SemanticDirs(); !reflect.DeepEqual(got, want) || len(got) != len(fixtureSemDirs) {
		t.Fatalf("semantic directories = %v, want %v", got, want)
	}
	for _, sd := range fixtureSemDirs {
		got, want := targetsOf(t, loaded, sd[0]), targetsOf(t, live, sd[0])
		if !reflect.DeepEqual(got, want) || len(got) == 0 {
			t.Fatalf("%s: loaded image links %d targets, rebuilt volume %d", sd[0], len(got), len(want))
		}
		gotLinks, _ := loaded.Links(sd[0])
		wantLinks, _ := live.Links(sd[0])
		if !reflect.DeepEqual(gotLinks, wantLinks) {
			t.Fatalf("%s: loaded links %v, rebuilt volume %v", sd[0], gotLinks, wantLinks)
		}
	}
	// The image's symlinks, transient and permanent, left the substrate
	// during the load.
	if symlinks := symlinksOn(t, loaded); len(symlinks) != 0 {
		t.Fatalf("symlinks on the loaded substrate = %v", symlinks)
	}
	if problems := loaded.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("loaded volume: %v", problems)
	}
	links, err := loaded.Links("/s-even")
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]LinkClass{}
	for _, l := range links {
		classes[l.Target] = l.Class
	}
	if classes["/fix/d4/f004.txt"] != Prohibited || classes["/fix/d1/f001.txt"] != Permanent {
		t.Fatalf("user edits lost: f004 %v, f001 %v", classes["/fix/d4/f004.txt"], classes["/fix/d1/f001.txt"])
	}
	if data, err := loaded.ReadFile("/fix/d2/f082.txt"); err != nil || string(data) != "all n82 even sparse" {
		t.Fatalf("content = %q, %v", data, err)
	}
	for _, q := range []string{"even AND third", "n2* OR ~sparce", "NOT all", "third AND NOT dir:/s-even"} {
		got, err := loaded.Search(context.Background(), q, WithScope("/fix"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := live.Search(context.Background(), q, WithScope("/fix"))
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.All(), want.All()
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%q: loaded image answers %d paths, rebuilt volume %d", q, len(g), len(w))
		}
	}
	// The index section was usable as loaded: a reindex finds nothing to do.
	if rep, err := loaded.Reindex("/"); err != nil || rep.Added+rep.Updated+rep.Removed != 0 {
		t.Fatalf("reindex after load = %+v, %v", rep, err)
	}
}

// symlinksOn lists every symlink on fs's substrate.
func symlinksOn(t *testing.T, fs *FS) []string {
	t.Helper()
	var symlinks []string
	err := vfs.Walk(fs.Under(), "/", func(p string, info vfs.Info) error {
		if info.Type == vfs.TypeSymlink {
			symlinks = append(symlinks, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return symlinks
}

// permFixtureVolume builds the volume testdata/parent-4496245-perm.hac
// holds, saved by commit 4496245, where permanent links were symlinks:
// a permanent link made each way a user makes one.
func permFixtureVolume(t *testing.T) *FS {
	t.Helper()
	fs := newCASTestFS(t, nil)
	steps := []func() error{
		func() error { return fs.SemDir("/sel", "apple") },
		func() error { return fs.MarkPermanent("/sel", "/docs/apple1.txt") },
		func() error { return fs.MarkPermanent("/sel", "/docs/cherry.txt") },
		func() error { return fs.Symlink("/docs/banana.txt", "/sel/yellow") },
		func() error { return fs.Mkdir("/old") },
		func() error { return fs.Symlink("/mail/m2.txt", "/old/m2") },
		func() error { return fs.SemDir("/old", "cherry") },
		func() error { return fs.Rename("/sel/apple2.txt", "/old/a2.txt") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return fs
}

// TestLoadPermanentLinksWrittenByParent: an image whose permanent links
// are symlinks in the manifest loads with the links its saving volume
// listed, and none of them left on the substrate.
func TestLoadPermanentLinksWrittenByParent(t *testing.T) {
	loaded, err := LoadVolumeFile("testdata/parent-4496245-perm.hac", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]Link{
		"/old": {
			{Name: "a2.txt", Target: "/docs/apple2.txt", Class: Permanent},
			{Name: "cherry.txt", Target: "/docs/cherry.txt", Class: Transient},
			{Name: "m2", Target: "/mail/m2.txt", Class: Permanent},
		},
		"/sel": {
			{Name: "apple1.txt", Target: "/docs/apple1.txt", Class: Permanent},
			{Target: "/docs/apple2.txt", Class: Prohibited},
			{Name: "yellow", Target: "/docs/banana.txt", Class: Permanent},
			{Name: "cherry.txt", Target: "/docs/cherry.txt", Class: Permanent},
			{Name: "m1.txt", Target: "/mail/m1.txt", Class: Transient},
		},
	}
	live := permFixtureVolume(t)
	for _, fs := range []*FS{loaded, live} {
		for dir, links := range want {
			if got, err := fs.Links(dir); err != nil || !reflect.DeepEqual(got, links) {
				t.Fatalf("%s links %+v, %v; want %+v", dir, got, err, links)
			}
		}
		if symlinks := symlinksOn(t, fs); len(symlinks) != 0 {
			t.Fatalf("symlinks on the substrate = %v", symlinks)
		}
		if problems := fs.CheckConsistency(); len(problems) != 0 {
			t.Fatal(problems)
		}
	}
	if target, err := loaded.Readlink("/sel/yellow"); err != nil || target != "/docs/banana.txt" {
		t.Fatalf("loaded /sel/yellow -> %q, %v", target, err)
	}
}

// TestVolumeWithNameBeforeSlashRoundTrips: a volume holding a directory
// and a sibling whose name extends the directory's with a byte below
// '/' ("docs" and "docs.txt") saves to an image that loads — the
// manifest lists its entries in path order, which its decoder requires.
func TestVolumeWithNameBeforeSlashRoundTrips(t *testing.T) {
	fs := New(cas.New(nil), Options{})
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	for p, c := range map[string]string{"/docs/a.txt": "apple", "/docs.txt": "apple pie", "/docs-old": "banana"} {
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
	loaded, err := LoadVolume(bytes.NewReader(saveImage(t, fs)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := loaded.ReadFile("/docs.txt"); err != nil || string(data) != "apple pie" {
		t.Fatalf("/docs.txt loaded as %q, %v", data, err)
	}
	before, err := fs.Links("/s")
	if err != nil {
		t.Fatal(err)
	}
	after, err := loaded.Links("/s")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) || len(after) != 2 {
		t.Fatalf("/s links %v after the load, %v before", after, before)
	}
}
