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
	fault := vfs.NewFaultFS(vfs.New(), vfs.FaultConfig{Seed: 11, TornWrites: true})
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
