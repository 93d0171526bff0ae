package catalog

import (
	"strings"
	"testing"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
)

func userVolume(t *testing.T, files map[string]string, dirs map[string]string) *hac.FS {
	t.Helper()
	fs := hac.New(vfs.New(), hac.Options{})
	for p, content := range files {
		if err := fs.MkdirAll(vfs.Dir(p)); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	for dir, q := range dirs {
		if err := fs.SemDir(dir, q); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func sharedFiles() map[string]string {
	return map[string]string{
		"/docs/fp1.txt":    "fingerprint matching algorithms",
		"/docs/fp2.txt":    "fingerprint sensor design",
		"/docs/iris.txt":   "iris recognition",
		"/docs/cook.txt":   "apple pie recipe",
		"/docs/garden.txt": "tomato growing guide",
	}
}

func TestPublishAndSearch(t *testing.T) {
	alice := userVolume(t, sharedFiles(), map[string]string{
		"/fingerprint": "fingerprint",
		"/recipes":     "recipe",
	})
	bob := userVolume(t, sharedFiles(), map[string]string{
		"/biometrics": "fingerprint OR iris",
	})

	c := New()
	if n, err := c.Publish("alice", alice); err != nil || n != 2 {
		t.Fatalf("Publish(alice) = %d, %v", n, err)
	}
	if n, err := c.Publish("bob", bob); err != nil || n != 1 {
		t.Fatalf("Publish(bob) = %d, %v", n, err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}

	// Search by query vocabulary.
	hits, err := c.Search("fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("fingerprint hits = %+v", hits)
	}
	// Search by user.
	hits, err = c.Search("alice AND recipe")
	if err != nil || len(hits) != 1 || hits[0].Path != "/recipes" {
		t.Fatalf("alice+recipe hits = %+v, %v", hits, err)
	}
	// Search matching result paths (targets are indexed too).
	hits, err = c.Search("fp1")
	if err != nil || len(hits) != 2 {
		t.Fatalf("target-path hits = %+v, %v", hits, err)
	}
	// No match.
	hits, err = c.Search("nonexistentterm")
	if err != nil || len(hits) != 0 {
		t.Fatalf("miss = %+v, %v", hits, err)
	}
}

func TestSimilarTo(t *testing.T) {
	alice := userVolume(t, sharedFiles(), map[string]string{"/fp": "fingerprint"})
	bob := userVolume(t, sharedFiles(), map[string]string{"/bio": "fingerprint OR iris"})
	carol := userVolume(t, sharedFiles(), map[string]string{"/food": "recipe OR tomato"})

	c := New()
	for user, fs := range map[string]*hac.FS{"alice": alice, "bob": bob, "carol": carol} {
		if _, err := c.Publish(user, fs); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := c.SimilarTo("alice", "/fp")
	if err != nil {
		t.Fatal(err)
	}
	// Bob overlaps (fingerprint files); Carol does not.
	if len(matches) != 1 || matches[0].Entry.User != "bob" {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].Similarity <= 0 || matches[0].Similarity > 1 {
		t.Fatalf("similarity = %f", matches[0].Similarity)
	}
	// Unknown entry.
	if _, err := c.SimilarTo("nobody", "/x"); err == nil {
		t.Fatal("unknown entry accepted")
	}
}

func TestRepublishReplaces(t *testing.T) {
	alice := userVolume(t, sharedFiles(), map[string]string{"/fp": "fingerprint"})
	c := New()
	if _, err := c.Publish("alice", alice); err != nil {
		t.Fatal(err)
	}
	// Alice renames her query; republish replaces the entry.
	if err := alice.SetQuery("/fp", "iris"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("alice", alice); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after republish = %d", c.Len())
	}
	hits, _ := c.Search("iris")
	if len(hits) != 1 {
		t.Fatalf("new query not searchable: %+v", hits)
	}
	hits, _ = c.Search("fingerprint")
	for _, h := range hits {
		if strings.Contains(h.Query, "fingerprint") {
			t.Fatalf("stale entry remains: %+v", h)
		}
	}
}

func TestRemove(t *testing.T) {
	c := New()
	c.Add(Entry{User: "u", Path: "/d", Query: "x", Targets: []string{"/f"}})
	if !c.Remove("u", "/d") {
		t.Fatal("Remove failed")
	}
	if c.Remove("u", "/d") {
		t.Fatal("second Remove succeeded")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
	hits, _ := c.Search("x")
	if len(hits) != 0 {
		t.Fatalf("removed entry searchable: %+v", hits)
	}
}

func TestEntriesSorted(t *testing.T) {
	c := New()
	c.Add(Entry{User: "zed", Path: "/a"})
	c.Add(Entry{User: "amy", Path: "/z"})
	c.Add(Entry{User: "amy", Path: "/a"})
	es := c.Entries()
	if es[0].User != "amy" || es[0].Path != "/a" || es[2].User != "zed" {
		t.Fatalf("Entries order = %+v", es)
	}
}
