package hacfs_test

import (
	"bytes"
	"errors"
	"testing"

	"hacfs"
)

// TestPublicAPIEndToEnd exercises the full public surface the way a
// downstream user would.
func TestPublicAPIEndToEnd(t *testing.T) {
	fs := hacfs.NewVolume()

	// Hierarchical operations.
	if err := fs.MkdirAll("/mail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mail/m1.eml", []byte("from alice\n\nfingerprint dataset ready\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/mail/m2.eml", []byte("from bob\n\nlunch plans\n")); err != nil {
		t.Fatal(err)
	}

	// Transducers and indexing.
	fs.RegisterTransducer(".eml", hacfs.EmailTransducer)
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}

	// Semantic directory with an attribute query.
	if err := fs.SemDir("/from-alice", "from:alice"); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/from-alice")
	if err != nil || len(targets) != 1 || targets[0] != "/mail/m1.eml" {
		t.Fatalf("targets = %v, %v", targets, err)
	}

	// Link classification.
	links, err := fs.Links("/from-alice")
	if err != nil || len(links) != 1 || links[0].Class != hacfs.Transient {
		t.Fatalf("links = %v, %v", links, err)
	}

	// Error sentinels work through the facade.
	if _, err := fs.ReadFile("/nope"); !errors.Is(err, hacfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.Query("/mail"); !errors.Is(err, hacfs.ErrNotSemantic) {
		t.Fatalf("err = %v", err)
	}

	// Persistence round trip.
	var buf bytes.Buffer
	if err := fs.SaveVolume(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := hacfs.LoadVolume(&buf, hacfs.Options{
		// Transducers are code, not data: supply the same set the
		// saving volume used so the load-time reindex rebuilds the
		// attribute terms.
		Transducers: map[string][]hacfs.Transducer{".eml": {hacfs.EmailTransducer}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := restored.LinkTargets("/from-alice"); len(got) != 1 {
		t.Fatalf("restored targets = %v", got)
	}

	// Walk helper.
	var files []string
	err = hacfs.Walk(fs, "/", func(p string, info hacfs.Info) error {
		if info.Type == hacfs.FileType {
			files = append(files, p)
		}
		return nil
	})
	if err != nil || len(files) != 2 {
		t.Fatalf("walk files = %v, %v", files, err)
	}
}

func TestNewOverExistingSubstrate(t *testing.T) {
	under := hacfs.NewMemFS()
	if err := under.WriteFile("/pre-existing.txt", []byte("apple")); err != nil {
		t.Fatal(err)
	}
	fs := hacfs.New(under)
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/sel")
	if err != nil || len(targets) != 1 {
		t.Fatalf("targets = %v, %v", targets, err)
	}
}
