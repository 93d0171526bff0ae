package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"hacfs/internal/hac"
	"hacfs/internal/remotefs"
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

// eachForm runs fn against a fresh catalog of each form: the volume
// in-process, and the same volume served as cmd/haccatd serves it,
// dialed over loopback.
func eachForm(t *testing.T, fn func(t *testing.T, cat Volume)) {
	t.Run("in-process", func(t *testing.T) { fn(t, New()) })
	t.Run("served", func(t *testing.T) { fn(t, served(t)) })
}

// served returns a client of a fresh catalog served on loopback.
func served(tb testing.TB) Volume {
	srv := remotefs.NewServer(New(), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(l)
	tb.Cleanup(srv.Close)
	c := remotefs.DialMux(l.Addr().String())
	tb.Cleanup(func() { c.Close() })
	return c
}

func publish(t *testing.T, cat Volume, user string, fs *hac.FS, want int) {
	t.Helper()
	if n, err := Publish(cat, user, fs); err != nil || n != want {
		t.Fatalf("Publish(%s) = %d, %v; want %d", user, n, err, want)
	}
}

func keys[T any](xs []T, key func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = key(x)
	}
	return out
}

func entryKey(e Entry) string { return e.User + ":" + e.Path }

// TestPublishAndSearch: an entry is searchable as soon as Publish
// returns, by its user, path, query and targets.
func TestPublishAndSearch(t *testing.T) {
	eachForm(t, func(t *testing.T, cat Volume) {
		publish(t, cat, "alice", userVolume(t, sharedFiles(), map[string]string{
			"/fingerprint": "fingerprint",
			"/recipes":     "recipe",
		}), 2)
		publish(t, cat, "bob", userVolume(t, sharedFiles(), map[string]string{
			"/biometrics": "fingerprint OR iris",
		}), 1)
		for q, want := range map[string][]string{
			"fingerprint":        {"alice:/fingerprint", "bob:/biometrics"},
			"alice AND recipe":   {"alice:/recipes"},
			"fp1":                {"alice:/fingerprint", "bob:/biometrics"}, // targets are indexed too
			"nonexistentterm":    {},
			"bob AND biometrics": {"bob:/biometrics"},
		} {
			hits, err := Search(cat, q)
			if got := keys(hits, entryKey); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("Search(%q) = %v, %v; want %v", q, got, err, want)
			}
		}
		if _, err := Search(cat, "(((bad"); err == nil {
			t.Error("bad query accepted")
		}
	})
}

func TestRepublishReplaces(t *testing.T) {
	eachForm(t, func(t *testing.T, cat Volume) {
		alice := userVolume(t, sharedFiles(), map[string]string{"/fp": "fingerprint"})
		publish(t, cat, "alice", alice, 1)
		if err := alice.SetQuery("/fp", "iris"); err != nil {
			t.Fatal(err)
		}
		publish(t, cat, "alice", alice, 1)
		all, err := Entries(cat)
		if err != nil || len(all) != 1 || all[0].Query != "iris" || !reflect.DeepEqual(all[0].Targets, []string{"/docs/iris.txt"}) {
			t.Fatalf("Entries after republish = %+v, %v", all, err)
		}
		if hits, err := Search(cat, "iris"); err != nil || len(hits) != 1 {
			t.Fatalf("new query not searchable: %+v, %v", hits, err)
		}
		if hits, err := Search(cat, "fingerprint"); err != nil || len(hits) != 0 {
			t.Fatalf("stale entry remains: %+v, %v", hits, err)
		}
	})
}

// TestRepublishDropsDeletedDirs: a publish leaves the user exactly the
// entries of the directories the volume holds now, and leaves other
// users' entries alone.
func TestRepublishDropsDeletedDirs(t *testing.T) {
	eachForm(t, func(t *testing.T, cat Volume) {
		alice := userVolume(t, sharedFiles(), map[string]string{"/fp": "fingerprint", "/r": "recipe"})
		publish(t, cat, "alice", alice, 2)
		if err := alice.RemoveAll("/r"); err != nil {
			t.Fatal(err)
		}
		publish(t, cat, "alice", alice, 1)
		all, err := Entries(cat)
		if got, want := keys(all, entryKey), []string{"alice:/fp"}; err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Entries after republish = %v, %v; want %v", got, err, want)
		}
		if hits, err := Search(cat, "recipe"); err != nil || len(hits) != 0 {
			t.Fatalf("deleted directory still searchable: %+v, %v", hits, err)
		}
		publish(t, cat, "bob", userVolume(t, sharedFiles(), map[string]string{"/r": "recipe"}), 1)
		publish(t, cat, "alice", alice, 1)
		if all, err = Entries(cat); err != nil || len(all) != 2 {
			t.Fatalf("Entries after another user's publish = %v, %v; want alice:/fp and bob:/r", keys(all, entryKey), err)
		}
	})
}

// TestSimilarTo: matches rank by Jaccard overlap, ties by user, then path.
func TestSimilarTo(t *testing.T) {
	eachForm(t, func(t *testing.T, cat Volume) {
		publish(t, cat, "alice", userVolume(t, sharedFiles(), map[string]string{
			"/fp":   "fingerprint",
			"/mine": "fingerprint", // same user: never a match
		}), 2)
		publish(t, cat, "zed", userVolume(t, sharedFiles(), map[string]string{"/bio": "fingerprint OR iris"}), 1)
		publish(t, cat, "bob", userVolume(t, sharedFiles(), map[string]string{
			"/bio":    "fingerprint OR iris",
			"/sensor": "sensor",
		}), 2)
		publish(t, cat, "carol", userVolume(t, sharedFiles(), map[string]string{"/food": "recipe OR tomato"}), 1)
		matches, err := SimilarTo(cat, "alice", "/fp")
		if err != nil {
			t.Fatal(err)
		}
		got := keys(matches, func(m Match) string { return entryKey(m.Entry) })
		if want := []string{"bob:/bio", "zed:/bio", "bob:/sensor"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("SimilarTo order = %v, want %v", got, want)
		}
		for i, want := range []float64{2.0 / 3, 2.0 / 3, 1.0 / 2} {
			if matches[i].Similarity != want {
				t.Errorf("similarity of %s = %f, want %f", got[i], matches[i].Similarity, want)
			}
		}
		if _, err := SimilarTo(cat, "nobody", "/x"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("unknown entry: err = %v, want ErrNotExist", err)
		}
	})
}

func TestEntriesSorted(t *testing.T) {
	eachForm(t, func(t *testing.T, cat Volume) {
		// "/a/b" escapes to a name that lists before "/a-b"'s.
		publish(t, cat, "zed", userVolume(t, sharedFiles(), map[string]string{"/a": "iris"}), 1)
		files := sharedFiles()
		files["/a/note.txt"] = "iris notes"
		publish(t, cat, "amy", userVolume(t, files, map[string]string{
			"/z":   "iris",
			"/a/b": "iris",
			"/a-b": "iris",
		}), 3)
		all, err := Entries(cat)
		want := []string{"amy:/a-b", "amy:/a/b", "amy:/z", "zed:/a"}
		if got := keys(all, entryKey); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Entries = %v, %v; want %v", got, err, want)
		}
	})
}

func TestUserNameIsOneComponent(t *testing.T) {
	eachForm(t, func(t *testing.T, cat Volume) {
		fs := userVolume(t, sharedFiles(), map[string]string{"/fp": "fingerprint"})
		for _, user := range []string{"", ".", "..", "a/b", "/a", "a/"} {
			if _, err := Publish(cat, user, fs); !errors.Is(err, vfs.ErrInvalid) {
				t.Errorf("Publish(%q) err = %v, want ErrInvalid", user, err)
			}
			if _, err := SimilarTo(cat, user, "/fp"); !errors.Is(err, vfs.ErrInvalid) {
				t.Errorf("SimilarTo(%q) err = %v, want ErrInvalid", user, err)
			}
		}
		if all, err := Entries(cat); err != nil || len(all) != 0 {
			t.Fatalf("Entries after rejected publishes = %+v, %v", all, err)
		}
	})
}

// TestEntryNamingAnotherUserRejected: an entry file whose content names
// another user than its directory is an error, never a silent merge.
func TestEntryNamingAnotherUserRejected(t *testing.T) {
	eachForm(t, func(t *testing.T, cat Volume) {
		publish(t, cat, "alice", userVolume(t, sharedFiles(), map[string]string{"/fp": "fingerprint"}), 1)
		data, err := json.Marshal(Entry{User: "alice", Path: "/stolen", Query: "fingerprint"})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.MkdirAll("/mallory"); err != nil {
			t.Fatal(err)
		}
		if err := cat.WriteFile(entryFile("mallory", "/stolen"), data); err != nil {
			t.Fatal(err)
		}
		if _, err := Entries(cat); !errors.Is(err, vfs.ErrInvalid) || !strings.Contains(err.Error(), "alice:/stolen") {
			t.Errorf("Entries err = %v, want ErrInvalid naming alice:/stolen", err)
		}
		if _, err := Search(cat, "stolen"); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("Search err = %v, want ErrInvalid", err)
		}
		if _, err := SimilarTo(cat, "mallory", "/stolen"); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("SimilarTo err = %v, want ErrInvalid", err)
		}
	})
}

// BenchmarkCatalog times Search (100 of 1 000 entries match),
// SimilarTo and Entries over 50 users × 20 entries of 20 targets each.
func BenchmarkCatalog(b *testing.B) {
	for _, form := range []struct {
		name string
		open func(testing.TB) Volume
	}{{"in-process", func(testing.TB) Volume { return New() }}, {"served", served}} {
		cat := form.open(b)
		for i := 0; i < 1000; i++ {
			e := Entry{User: fmt.Sprintf("u%02d", i/20), Path: fmt.Sprintf("/d%02d", i%20), Query: fmt.Sprintf("topic%d", i%10)}
			for j := 0; j < 20; j++ {
				e.Targets = append(e.Targets, fmt.Sprintf("/docs/f%03d.txt", (i*7+j*13)%500))
			}
			data, err := json.Marshal(e)
			if err != nil {
				b.Fatal(err)
			}
			if err := cat.MkdirAll("/" + e.User); err != nil {
				b.Fatal(err)
			}
			if err := cat.WriteFile(entryFile(e.User, e.Path), data); err != nil {
				b.Fatal(err)
			}
		}
		for _, op := range []struct {
			name string
			run  func() (int, error)
		}{
			{"Search", func() (int, error) { es, err := Search(cat, "topic3"); return len(es), err }},
			{"SimilarTo", func() (int, error) { ms, err := SimilarTo(cat, "u00", "/d00"); return len(ms), err }},
			{"Entries", func() (int, error) { es, err := Entries(cat); return len(es), err }},
		} {
			b.Run(form.name+"/"+op.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if n, err := op.run(); err != nil || n == 0 {
						b.Fatalf("%s = %d, %v", op.name, n, err)
					}
				}
			})
		}
	}
}

// TestPublishRejectsNonUTF8: JSON cannot carry a name that is not
// UTF-8, so Publish refuses one rather than write an entry that would
// come back under another name and fail every later read.
func TestPublishRejectsNonUTF8(t *testing.T) {
	eachForm(t, func(t *testing.T, cat Volume) {
		for _, fs := range []*hac.FS{
			userVolume(t, sharedFiles(), map[string]string{"/s\xfe": "fingerprint"}),
			userVolume(t, map[string]string{"/docs/\xff.txt": "fingerprint"}, map[string]string{"/s": "fingerprint"}),
		} {
			if _, err := Publish(cat, "u", fs); !errors.Is(err, vfs.ErrInvalid) {
				t.Errorf("Publish err = %v, want ErrInvalid", err)
			}
		}
		if all, err := Entries(cat); err != nil || len(all) != 0 {
			t.Fatalf("Entries after rejected publishes = %+v, %v", all, err)
		}
	})
}
