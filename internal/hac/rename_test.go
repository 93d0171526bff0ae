package hac

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

func TestPermanentLinkFollowsFileRename(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	// A permanent link to a non-matching file.
	if err := fs.Symlink("/docs/cherry.txt", "/sel/keep.txt"); err != nil {
		t.Fatal(err)
	}
	// The file is renamed: the link must keep tracking it.
	if err := fs.Rename("/docs/cherry.txt", "/docs/cherry-v2.txt"); err != nil {
		t.Fatal(err)
	}
	target, err := fs.Readlink("/sel/keep.txt")
	if err != nil || target != "/docs/cherry-v2.txt" {
		t.Fatalf("link target after file rename = %q, %v", target, err)
	}
	data, err := fs.ReadFile("/sel/keep.txt")
	if err != nil || string(data) != "cherry tree dark" {
		t.Fatalf("read through rewritten link = %q, %v", data, err)
	}
	links, _ := fs.Links("/sel")
	for _, l := range links {
		if l.Target == "/docs/cherry.txt" {
			t.Fatal("stale target survives in classification")
		}
		if l.Target == "/docs/cherry-v2.txt" && l.Class != Permanent {
			t.Fatalf("rewritten link class = %v", l.Class)
		}
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("inconsistent after file rename: %v", problems)
	}
}

func TestProhibitionFollowsFileRename(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/sel/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	// The prohibited document moves; the prohibition must follow it.
	if err := fs.Rename("/docs/apple1.txt", "/docs/apple1-renamed.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	for _, target := range targetsOf(t, fs, "/sel") {
		if target == "/docs/apple1-renamed.txt" {
			t.Fatal("prohibition did not follow the renamed document")
		}
	}
}

// TestRenameOntoLinkedFile renames one linked document onto another.
// The destination's entry named the document the rename wrote over: its
// link goes (no unclassified symlink is left behind) and so does its
// prohibition, while a prohibition on the moved document follows it.
func TestRenameOntoLinkedFile(t *testing.T) {
	settled := func(t *testing.T, fs *FS, want map[string]LinkClass) {
		t.Helper()
		if problems := fs.CheckConsistency(); len(problems) != 0 {
			t.Fatalf("inconsistent after rename: %v", problems)
		}
		links, err := fs.Links("/sel")
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]LinkClass{}
		linked := 0
		for _, l := range links {
			got[l.Target] = l.Class
			if l.Class != Prohibited {
				linked++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("links = %v, want %v", got, want)
		}
		entries, err := fs.ReadDir("/sel")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != linked {
			t.Fatalf("ReadDir(/sel) has %d entries for %d classified links", len(entries), linked)
		}
	}
	// rename builds /sel over the test corpus, removes the links named
	// by prohibit, and moves apple1 onto apple2.
	rename := func(t *testing.T, prohibit ...string) *FS {
		t.Helper()
		fs := newTestFS(t)
		if err := fs.SemDir("/sel", "apple"); err != nil {
			t.Fatal(err)
		}
		for _, name := range prohibit {
			if err := fs.Remove("/sel/" + name); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Rename("/docs/apple1.txt", "/docs/apple2.txt"); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	t.Run("linked onto linked", func(t *testing.T) {
		fs := rename(t)
		settled(t, fs, map[string]LinkClass{"/docs/apple2.txt": Transient, "/mail/m1.txt": Transient})
		if data, err := fs.ReadFile("/sel/apple1.txt"); err != nil || string(data) != "apple fruit red" {
			t.Fatalf("moved link reads %q, %v", data, err)
		}
	})
	t.Run("linked onto prohibited", func(t *testing.T) {
		fs := rename(t, "apple2.txt")
		settled(t, fs, map[string]LinkClass{"/docs/apple2.txt": Transient, "/mail/m1.txt": Transient})
	})
	t.Run("prohibited onto linked", func(t *testing.T) {
		fs := rename(t, "apple1.txt")
		want := map[string]LinkClass{"/docs/apple2.txt": Prohibited, "/mail/m1.txt": Transient}
		settled(t, fs, want)
		if err := fs.SyncAll(); err != nil {
			t.Fatal(err)
		}
		settled(t, fs, want)
	})
	for name, under := range map[string]func() vfs.FileSystem{
		"memfs": func() vfs.FileSystem { return vfs.New() },
		"cas":   func() vfs.FileSystem { return cas.New(nil) },
	} {
		t.Run("onto itself/"+name, func(t *testing.T) {
			fs := newTestFSOn(t, under())
			if err := fs.SemDir("/sel", "apple"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Symlink("/docs/cherry.txt", "/sel/pinned.txt"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove("/sel/m1.txt"); err != nil {
				t.Fatal(err)
			}
			want := map[string]LinkClass{
				"/docs/apple1.txt": Transient, "/docs/apple2.txt": Transient,
				"/docs/cherry.txt": Permanent, "/mail/m1.txt": Prohibited,
			}
			settled(t, fs, want)
			for _, p := range []string{"/docs/apple1.txt", "/docs/cherry.txt", "/docs", "/mail", "/sel/pinned.txt", "/sel/apple2.txt"} {
				if err := fs.Rename(p, p); err != nil {
					t.Fatalf("Rename(%s, %s): %v", p, p, err)
				}
				settled(t, fs, want)
			}
		})
	}
}

// TestDirRenameOntoStaleIndexedPath removes files outside an auto-sync
// prefix, so the index still holds them, then renames a directory onto
// their directory's name: each moved document replaces the stale one at
// its new path, which neither stays indexed nor lends the moved file its
// old content's matches.
func TestDirRenameOntoStaleIndexedPath(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/new"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/new/m1.txt", []byte("plum")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/mail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/new", "/mail"); err != nil {
		t.Fatal(err)
	}
	sn := fs.Index().Snapshot()
	all, n := sn.Paths(sn.AllDocs()), 0
	for _, p := range all {
		if p == "/mail/m1.txt" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("the index names /mail/m1.txt %d times: %v", n, all)
	}
	for _, p := range sn.Paths(sn.Lookup("apple")) {
		if p == "/mail/m1.txt" {
			t.Fatal("/mail/m1.txt still matches the content of the file it replaced")
		}
	}
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	for _, target := range targetsOf(t, fs, "/sel") {
		if target == "/mail/m1.txt" {
			t.Fatal("/sel links /mail/m1.txt, which holds plum")
		}
	}
}

// TestRenameOverLink moves a link, then a file, onto another link of
// the semantic directory. The link written over is gone as if removed
// — its target prohibited — so no two classified targets share a link
// name and later passes neither fail nor re-point the survivor.
func TestRenameOverLink(t *testing.T) {
	for name, under := range map[string]func() vfs.FileSystem{
		"memfs": func() vfs.FileSystem { return vfs.New() },
		"cas":   func() vfs.FileSystem { return cas.New(nil) },
	} {
		t.Run(name, func(t *testing.T) {
			fs := newTestFSOn(t, under())
			if err := fs.SemDir("/sel", "apple"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename("/sel/apple1.txt", "/sel/apple2.txt"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/notes.txt", []byte("plain note")); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename("/notes.txt", "/sel/m1.txt"); err != nil {
				t.Fatal(err)
			}
			want := []Link{
				{Name: "apple2.txt", Target: "/docs/apple1.txt", Class: Permanent},
				{Target: "/docs/apple2.txt", Class: Prohibited},
				{Target: "/mail/m1.txt", Class: Prohibited},
			}
			for pass := 0; pass < 2; pass++ {
				if err := fs.SyncAll(); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if links, _ := fs.Links("/sel"); !reflect.DeepEqual(links, want) {
					t.Fatalf("pass %d: links = %+v, want %+v", pass, links, want)
				}
				if got, err := fs.Readlink("/sel/apple2.txt"); err != nil || got != "/docs/apple1.txt" {
					t.Fatalf("pass %d: /sel/apple2.txt -> %q, %v", pass, got, err)
				}
				if problems := fs.CheckConsistency(); len(problems) != 0 {
					t.Fatalf("pass %d: %v", pass, problems)
				}
			}
		})
	}
}

// TestMoveLinkSupersedes: a link moved into a semantic directory that
// links its target permanently under another name supersedes that link,
// as Symlink does — the directory links each target once and no
// unclassified symlink is left behind — whether the moved link was
// transient or permanent.
func TestMoveLinkSupersedes(t *testing.T) {
	for _, permanent := range []bool{false, true} {
		t.Run(fmt.Sprintf("permanent=%v", permanent), func(t *testing.T) {
			fs := newTestFS(t)
			for _, sd := range [][2]string{{"/a", "apple"}, {"/b", "cherry"}} {
				if err := fs.SemDir(sd[0], sd[1]); err != nil {
					t.Fatal(err)
				}
			}
			if permanent {
				if err := fs.MarkPermanent("/a", "/docs/apple1.txt"); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Symlink("/docs/apple1.txt", "/b/keep.txt"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename("/a/apple1.txt", "/b/moved.txt"); err != nil {
				t.Fatal(err)
			}
			if problems := fs.CheckConsistency(); len(problems) != 0 {
				t.Fatalf("after the move: %v", problems)
			}
			if _, err := fs.Lstat("/b/keep.txt"); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("superseded link still there: %v", err)
			}
			links, _ := fs.Links("/b")
			for _, l := range links {
				if l.Target == "/docs/apple1.txt" && (l.Name != "moved.txt" || l.Class != Permanent) {
					t.Fatalf("/b links /docs/apple1.txt as %+v", l)
				}
			}
		})
	}
}

func TestLinksFollowDirectoryRename(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/docs/cherry.txt", "/sel/pinned.txt"); err != nil {
		t.Fatal(err)
	}
	// Renaming the whole directory rewrites every target under it.
	if err := fs.Rename("/docs", "/papers"); err != nil {
		t.Fatal(err)
	}
	target, err := fs.Readlink("/sel/pinned.txt")
	if err != nil || target != "/papers/cherry.txt" {
		t.Fatalf("permanent link after dir rename = %q, %v", target, err)
	}
	// Transient links were rewritten too; everything readable.
	for _, tg := range targetsOf(t, fs, "/sel") {
		if _, _, remote := splitRemoteTarget(tg); remote {
			continue
		}
		if _, err := fs.ReadFile(tg); err != nil {
			t.Fatalf("target %s unreadable after dir rename: %v", tg, err)
		}
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("inconsistent after dir rename: %v", problems)
	}
}

// TestConcurrentRenameAndSync races Rename against Sync, Search,
// Reindex and the background segment merger. The snapshot-pinned
// evaluation must never observe a half-renamed ID space: no operation
// may fail, and once the dust settles the volume is fully consistent.
// CI runs this under the race detector.
func TestConcurrentRenameAndSync(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	stopMerger := fs.Index().StartMerger(time.Millisecond)
	defer stopMerger()

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // renames a matching file back and forth
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := fs.Rename("/docs/apple1.txt", "/docs/apple1-moved.txt"); err != nil {
				t.Errorf("rename out: %v", err)
				return
			}
			if err := fs.Rename("/docs/apple1-moved.txt", "/docs/apple1.txt"); err != nil {
				t.Errorf("rename back: %v", err)
				return
			}
		}
	}()
	go func() { // re-syncs the semantic directory
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := fs.Sync("/sel"); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	go func() { // searches against pinned snapshots
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := searchSorted(fs, "apple", "/"); err != nil {
				t.Errorf("search: %v", err)
				return
			}
		}
	}()
	go func() { // keeps the index churning (staleness detection + merge)
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			if err := fs.WriteFile("/docs/churn.txt", []byte(fmt.Sprintf("apple churn %d", i))); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if _, err := fs.Reindex("/docs"); err != nil {
				t.Errorf("reindex: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settle and audit.
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("inconsistent after concurrent rename/sync: %v", problems)
	}
	got, err := searchSorted(fs, "apple", "/")
	if err != nil {
		t.Fatal(err)
	}
	if want := targetsOf(t, fs, "/sel"); !reflect.DeepEqual(got, want) {
		t.Fatalf("search = %v, targets = %v", got, want)
	}
}

// TestDirRenameUnderQueryRefAcrossCrash interleaves a directory rename
// with a crash and recovery: a semantic directory referenced by another
// directory's dir: query is renamed while the substrate dies mid-way,
// and the volume is recovered from the last good image via LoadVolume +
// Reindex. The dir: reference must stay bound (by UID, §2.5) on every
// path through the interleaving — clean rename before the save, crashed
// rename after it — and the recovered volume must be fully consistent.
func TestDirRenameUnderQueryRefAcrossCrash(t *testing.T) {
	fault := vfs.NewFaultFS(cas.New(nil), vfs.FaultConfig{Seed: 11, TornWrites: true})
	fs := New(fault, Options{})
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	for p, c := range map[string]string{
		"/docs/apple1.txt": "apple fruit red",
		"/docs/apple2.txt": "apple banana mixed",
		"/docs/cherry.txt": "cherry fruit dark",
	} {
		if err := fs.WriteFile(p, []byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	// /apples references /fruit by dir: — the dependency the rename
	// must not sever.
	if err := fs.SemDir("/fruit", "fruit"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/apples", "apple AND dir:/fruit"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/apples", "/docs/apple1.txt")

	// Save a good image with the reference in place.
	var good bytes.Buffer
	if err := fs.SaveVolume(&good); err != nil {
		t.Fatal(err)
	}

	// The machine dies partway through renaming the referenced
	// directory. The substrate-level rename may or may not have
	// happened; the HAC layer must report the failure either way.
	fault.CrashAfter(2)
	renameErr := fs.Rename("/fruit", "/basket")
	if renameErr == nil {
		t.Fatal("rename on crashing store succeeded")
	}
	if !errors.Is(renameErr, vfs.ErrCrashed) && !errors.Is(renameErr, vfs.ErrInjected) {
		t.Fatalf("rename error = %v, want injected crash", renameErr)
	}

	// Recovery: the good image loads on a fresh substrate and the
	// reference still resolves — /fruit is back under its saved name.
	rec, err := LoadVolume(bytes.NewReader(good.Bytes()), Options{})
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	if _, err := rec.Reindex("/"); err != nil {
		t.Fatalf("recovery reindex: %v", err)
	}
	if problems := rec.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("recovered volume inconsistent: %v", problems)
	}
	wantTargets(t, rec, "/apples", "/docs/apple1.txt")
	if q, err := rec.QueryDisplay("/apples"); err != nil || !strings.Contains(q, "dir:/fruit") {
		t.Fatalf("recovered query = %q, %v; want dir:/fruit reference", q, err)
	}

	// The same rename now completes cleanly on the recovered volume:
	// the dir: reference follows the directory to its new name, and
	// the whole state survives another save/load cycle.
	if err := rec.Rename("/fruit", "/basket"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, rec, "/apples", "/docs/apple1.txt")
	if q, err := rec.QueryDisplay("/apples"); err != nil || !strings.Contains(q, "dir:/basket") {
		t.Fatalf("query after rename = %q, %v; want dir:/basket", q, err)
	}
	var again bytes.Buffer
	if err := rec.SaveVolume(&again); err != nil {
		t.Fatal(err)
	}
	rec2, err := LoadVolume(bytes.NewReader(again.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantTargets(t, rec2, "/apples", "/docs/apple1.txt")
	if q, err := rec2.QueryDisplay("/apples"); err != nil || !strings.Contains(q, "dir:/basket") {
		t.Fatalf("reloaded query = %q, %v; want dir:/basket", q, err)
	}
	if problems := rec2.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("reloaded volume inconsistent: %v", problems)
	}
}
