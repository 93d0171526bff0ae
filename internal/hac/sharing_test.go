package hac

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"hacfs/internal/vfs"
)

func TestMakeSyntactic(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/sel/apple2.txt"); err != nil { // a prohibition
		t.Fatal(err)
	}
	before, _ := fs.ReadDir("/sel")

	if err := fs.MakeSyntactic("/sel"); err != nil {
		t.Fatal(err)
	}
	if fs.IsSemantic("/sel") {
		t.Fatal("still semantic")
	}
	// Links kept as plain symlinks.
	after, _ := fs.ReadDir("/sel")
	if len(after) != len(before) {
		t.Fatalf("links changed: %d → %d", len(before), len(after))
	}
	// No query anymore.
	if _, err := fs.Query("/sel"); !errors.Is(err, ErrNotSemantic) {
		t.Fatalf("Query err = %v", err)
	}
	// Consistency passes leave it alone now.
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	final, _ := fs.ReadDir("/sel")
	if len(final) != len(after) {
		t.Fatal("reindex touched a syntactic directory's links")
	}
	// And CBA can be re-added at any time (the paper's promise).
	if err := fs.SemDir("/sel", "cherry"); err != nil {
		t.Fatal(err)
	}
	// Old links were adopted as permanent; cherry matches joined them.
	targets := targetsOf(t, fs, "/sel")
	if len(targets) < len(after) {
		t.Fatalf("adoption lost links: %v", targets)
	}
	if err := fs.MakeSyntactic("/docs"); !errors.Is(err, ErrNotSemantic) {
		t.Fatalf("MakeSyntactic on syntactic dir err = %v", err)
	}
}

// TestCoworkerSharing reproduces §3.2: "Other users (e.g., coworkers on
// the same project) can use syntactic mount points to browse through
// one user's personal classification ... and retrieve relevant
// information."
func TestCoworkerSharing(t *testing.T) {
	// Alice curates a fingerprint collection in her HAC volume.
	alice := newTestFS(t)
	if err := alice.SemDir("/fingerprint", "apple OR cherry"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Remove("/fingerprint/m2.txt"); err != nil { // her pruning
		t.Fatal(err)
	}

	// Bob syntactically mounts Alice's volume into his own substrate.
	bobUnder := vfs.New()
	bob := New(bobUnder, Options{})
	if err := bob.MkdirAll("/alice"); err != nil {
		t.Fatal(err)
	}
	if err := bobUnder.Mount("/alice", alice); err != nil {
		t.Fatal(err)
	}

	// Bob browses Alice's personal classification without running any
	// searches himself.
	entries, err := bob.ReadDir("/alice/fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no links visible through the mount")
	}
	for _, e := range entries {
		if strings.Contains(e.Name, "m2") {
			t.Fatal("Alice's pruning not reflected")
		}
	}
	// He can read a result through her links.
	data, err := bob.ReadFile("/alice/fingerprint/apple1.txt")
	if err != nil || string(data) != "apple fruit red" {
		t.Fatalf("read through shared classification = %q, %v", data, err)
	}
	// Alice keeps curating; Bob sees it live.
	if err := alice.Symlink("/docs/banana.txt", "/fingerprint/extra"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.ReadFile("/alice/fingerprint/extra"); err != nil {
		t.Fatalf("live update invisible: %v", err)
	}
}

// TestConcurrentUse hammers one volume from several goroutines; run
// with -race.
func TestConcurrentUse(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch g % 3 {
				case 0: // writer
					p := "/docs/w" + string(rune('a'+g)) + ".txt"
					if err := fs.WriteFile(p, []byte("apple concurrent")); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					if _, err := fs.Stat(p); err != nil {
						t.Errorf("stat: %v", err)
						return
					}
				case 1: // searcher + syncer
					if _, err := searchSorted(fs, "apple", "/"); err != nil {
						t.Errorf("search: %v", err)
						return
					}
					if err := fs.Sync("/sel"); err != nil {
						t.Errorf("sync: %v", err)
						return
					}
				case 2: // reader + reindexer
					if _, err := fs.ReadDir("/sel"); err != nil {
						t.Errorf("readdir: %v", err)
						return
					}
					if i%10 == 0 {
						if _, err := fs.Reindex("/docs"); err != nil {
							t.Errorf("reindex: %v", err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	// The volume is still coherent.
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if got := targetsOf(t, fs, "/sel"); len(got) < 3 {
		t.Fatalf("targets after concurrency = %v", got)
	}
}
