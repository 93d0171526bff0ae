package hacfs_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hacfs"
	"hacfs/internal/catalog"
	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/remote"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// TestFullStack drives every subsystem in one scenario: a corpus-backed
// volume with transducers and auto-sync, dir-reference queries, a
// semantically mounted remote library, volume persistence, a served
// volume mounted by a second user, and the published catalog. After
// each phase the volume must pass the consistency audit.
func TestFullStack(t *testing.T) {
	audit := func(fs *hacfs.FS, phase string) {
		t.Helper()
		if problems := fs.CheckConsistency(); len(problems) != 0 {
			t.Fatalf("%s: consistency audit failed:\n%s", phase, strings.Join(problems, "\n"))
		}
	}

	// --- Phase 1: local volume with corpus, transducers, queries. -----
	fs := hacfs.NewVolume(
		hacfs.WithTransducer(".eml", hacfs.EmailTransducer),
		hacfs.WithTransducer("", hacfs.PathTransducer))
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	man, err := corpus.Generate(fs, "/docs", corpus.Spec{Files: 200, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/topic0", man.TopicTerm[0]); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/topic0")
	if err != nil || len(targets) != len(man.TopicFiles[0]) {
		t.Fatalf("topic0 targets = %d, want %d (%v)", len(targets), len(man.TopicFiles[0]), err)
	}
	// Attribute query from the path transducer.
	if err := fs.SemDir("/emails", "ext:eml"); err != nil {
		t.Fatal(err)
	}
	emails, _ := fs.LinkTargets("/emails")
	if len(emails) == 0 {
		t.Fatal("no emails matched ext:eml")
	}
	audit(fs, "phase 1")

	// --- Phase 2: user edits + dir-reference query + rename. ----------
	victim := targets[0]
	if err := fs.Remove("/topic0/" + vfs.Base(victim)); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/combo", "dir:/topic0 AND markermany"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/topic0", "/topic-renamed"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync("/"); err != nil {
		t.Fatal(err)
	}
	disp, err := fs.QueryDisplay("/combo")
	if err != nil || !strings.Contains(disp, "dir:/topic-renamed") {
		t.Fatalf("query display after rename = %q, %v", disp, err)
	}
	comboTargets, _ := fs.LinkTargets("/combo")
	for _, target := range comboTargets {
		if target == victim {
			t.Fatal("pruned target leaked through dir reference")
		}
	}
	audit(fs, "phase 2")

	// --- Phase 3: auto-sync + scheduler. --------------------------------
	if err := fs.MkdirAll("/mail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/mail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fresh", "dir:/mail AND urgentword"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mail/new.eml", []byte("from boss\n\nurgentword here\n")); err != nil {
		t.Fatal(err)
	}
	fresh, _ := fs.LinkTargets("/fresh")
	if len(fresh) != 1 || fresh[0] != "/mail/new.eml" {
		t.Fatalf("auto-sync targets = %v", fresh)
	}
	audit(fs, "phase 3")

	// --- Phase 4: semantic mount of a remote query system. -------------
	libFS := vfs.New()
	if err := libFS.MkdirAll("/papers"); err != nil {
		t.Fatal(err)
	}
	if err := libFS.WriteFile("/papers/deep.txt", []byte("markermany appears remotely")); err != nil {
		t.Fatal(err)
	}
	backend, err := remote.NewIndexBackend(libFS, "/")
	if err != nil {
		t.Fatal(err)
	}
	cbaSrv := remote.NewServer(backend, nil)
	cbaL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go cbaSrv.Serve(cbaL)
	defer cbaSrv.Close()

	if err := fs.MkdirAll("/library"); err != nil {
		t.Fatal(err)
	}
	lib := remote.DialBin("lib", cbaL.Addr().String())
	defer lib.Close()
	if err := fs.SemanticMount("/library", lib); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/wide", "markermany"); err != nil {
		t.Fatal(err)
	}
	wide, _ := fs.LinkTargets("/wide")
	var sawRemote bool
	for _, target := range wide {
		if strings.HasPrefix(target, "remote://lib/") {
			sawRemote = true
		}
	}
	if !sawRemote {
		t.Fatalf("no remote results in /wide (%d targets)", len(wide))
	}
	audit(fs, "phase 4")

	// --- Phase 5: persistence round trip. -------------------------------
	var img bytes.Buffer
	if err := fs.SaveVolume(&img); err != nil {
		t.Fatal(err)
	}
	restored, err := hacfs.LoadVolume(&img, hacfs.Options{
		Transducers: map[string][]hacfs.Transducer{
			".eml": {hacfs.EmailTransducer},
			"":     {hacfs.PathTransducer},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	restoredTargets, err := restored.LinkTargets("/topic-renamed")
	if err != nil {
		t.Fatal(err)
	}
	// One target was pruned in phase 2.
	if len(restoredTargets) != len(man.TopicFiles[0])-1 {
		t.Fatalf("restored targets = %d, want %d", len(restoredTargets), len(man.TopicFiles[0])-1)
	}
	audit(restored, "phase 5")

	// --- Phase 6: serve the volume; a coworker mounts and browses. -----
	volSrv := remotefs.NewServer(fs, nil)
	volL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go volSrv.Serve(volL)
	defer volSrv.Close()

	coworker := hacfs.NewVolume()
	if err := coworker.MkdirAll("/peer"); err != nil {
		t.Fatal(err)
	}
	if err := coworker.Under().(*cas.FS).Mount("/peer", hacfs.DialFS(volL.Addr().String())); err != nil {
		t.Fatal(err)
	}
	peerEntries, err := coworker.ReadDir("/peer/topic-renamed")
	if err != nil || len(peerEntries) == 0 {
		t.Fatalf("coworker browse = %v, %v", peerEntries, err)
	}
	audit(coworker, "phase 6")

	// --- Phase 7: the central catalog. -----------------------------------
	catSrv := remotefs.NewServer(catalog.New(), nil)
	catL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go catSrv.Serve(catL)
	defer catSrv.Close()

	cc := remotefs.DialMux(catL.Addr().String())
	defer cc.Close()
	n, err := catalog.Publish(cc, "owner", fs)
	if err != nil || n < 4 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	hits, err := catalog.Search(cc, "markermany")
	if err != nil || len(hits) == 0 {
		t.Fatalf("catalog search = %v, %v", hits, err)
	}
	audit(fs, "final")
}

// TestManyVolumesScale exercises dozens of volumes with cross-publishes
// — a smoke test that nothing global leaks between instances.
func TestManyVolumesScale(t *testing.T) {
	cat := catalog.New()
	for i := 0; i < 20; i++ {
		fs := hac.New(vfs.New(), hac.Options{})
		dir := fmt.Sprintf("/u%02d", i)
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(dir+"/f.txt", []byte(fmt.Sprintf("token%02d shared", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Reindex("/"); err != nil {
			t.Fatal(err)
		}
		if err := fs.SemDir("/sel", "shared"); err != nil {
			t.Fatal(err)
		}
		if _, err := catalog.Publish(cat, fmt.Sprintf("user%02d", i), fs); err != nil {
			t.Fatal(err)
		}
		if problems := fs.CheckConsistency(); len(problems) != 0 {
			t.Fatalf("volume %d inconsistent: %v", i, problems)
		}
	}
	if entries, err := catalog.Entries(cat); err != nil || len(entries) != 20 {
		t.Fatalf("catalog entries = %d, %v", len(entries), err)
	}
	hits, err := catalog.Search(cat, "shared")
	if err != nil || len(hits) != 20 {
		t.Fatalf("hits = %d, %v", len(hits), err)
	}
}

// TestSchedulerWithRemoteVolume pairs the auto-reindex scheduler with a
// remote substrate: periodic passes run against a file system on the
// other side of a TCP connection.
func TestSchedulerWithRemoteVolume(t *testing.T) {
	srv := remotefs.NewServer(vfs.New(), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	fs := hacfs.New(hacfs.DialFS(l.Addr().String()))
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel", "needle"); err != nil {
		t.Fatal(err)
	}
	sched := fs.StartAutoReindex("/", time.Hour)
	defer sched.Stop()
	if err := fs.WriteFile("/d/n.txt", []byte("needle over tcp")); err != nil {
		t.Fatal(err)
	}
	if err := sched.TriggerNow(); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/sel")
	if err != nil || len(targets) != 1 {
		t.Fatalf("targets = %v, %v", targets, err)
	}
}
