package hac

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hacfs/internal/bitset"
	"hacfs/internal/index"
	"hacfs/internal/query"
	"hacfs/internal/vfs"
)

// fakeNS is an in-process Namespace backed by a map of documents. It
// evaluates queries with the real query language over a private index,
// standing in for a remote search engine.
type fakeNS struct {
	name     string
	docs     map[string]string
	searches int
}

func newFakeNS(name string, docs map[string]string) *fakeNS {
	return &fakeNS{name: name, docs: docs}
}

func (n *fakeNS) Name() string { return n.name }

func (n *fakeNS) Search(q string) ([]string, error) {
	n.searches++
	ix := index.New()
	for p, content := range n.docs {
		ix.Add(p, []byte(content))
	}
	ast, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	sn := ix.Snapshot()
	bm, err := query.Eval(ast, &nsEnv{sn})
	if err != nil {
		return nil, err
	}
	return sn.Paths(bm), nil
}

func (n *fakeNS) Fetch(path string) ([]byte, error) {
	content, ok := n.docs[path]
	if !ok {
		return nil, fmt.Errorf("fakeNS: no document %s", path)
	}
	return []byte(content), nil
}

// nsEnv evaluates queries over a bare index: directory references are
// meaningless remotely and resolve to the empty set.
type nsEnv struct{ sn *index.Snapshot }

func (e *nsEnv) Term(w string) (*bitset.Segmented, error)   { return e.sn.Lookup(w), nil }
func (e *nsEnv) Prefix(p string) (*bitset.Segmented, error) { return e.sn.LookupPrefix(p), nil }
func (e *nsEnv) Fuzzy(w string) (*bitset.Segmented, error)  { return e.sn.LookupFuzzy(w), nil }
func (e *nsEnv) Universe() (*bitset.Segmented, error)       { return e.sn.AllDocs(), nil }
func (e *nsEnv) DirRef(*query.DirRef) (*bitset.Segmented, error) {
	return e.sn.AllDocs(), nil // degrade gracefully: dir refs don't filter remotely
}

func digLibrary() *fakeNS {
	return newFakeNS("diglib", map[string]string{
		"/papers/fp-matching.ps":  "fingerprint matching algorithms survey",
		"/papers/fp-sensors.ps":   "fingerprint sensor hardware design",
		"/papers/iris.ps":         "iris recognition methods",
		"/papers/crime-report.ps": "fingerprint evidence in murder case",
	})
}

func TestSemanticMountImportsResults(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", digLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	targets := targetsOf(t, fs, "/fp")
	want := []string{
		"remote://diglib/papers/crime-report.ps",
		"remote://diglib/papers/fp-matching.ps",
		"remote://diglib/papers/fp-sensors.ps",
	}
	sort.Strings(want)
	if len(targets) != 3 {
		t.Fatalf("targets = %v, want %v", targets, want)
	}
	for i := range want {
		if targets[i] != want[i] {
			t.Fatalf("targets = %v, want %v", targets, want)
		}
	}
	// The links are real symlinks with namespace-derived names.
	entries, _ := fs.ReadDir("/fp")
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	if !strings.HasPrefix(names[0], "diglib.") {
		t.Fatalf("remote link names = %v", names)
	}
}

func TestSemanticMountMixedLocalRemote(t *testing.T) {
	fs := newTestFS(t)
	// Local file mentioning fingerprints.
	if err := fs.WriteFile("/docs/fp-notes.txt", []byte("my fingerprint notes apple")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", digLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	targets := targetsOf(t, fs, "/fp")
	if len(targets) != 4 {
		t.Fatalf("mixed targets = %v, want 1 local + 3 remote", targets)
	}
	hasLocal := false
	for _, tg := range targets {
		if tg == "/docs/fp-notes.txt" {
			hasLocal = true
		}
	}
	if !hasLocal {
		t.Fatal("local result missing from mixed query")
	}
}

func TestMultipleSemanticMount(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", digLibrary()); err != nil {
		t.Fatal(err)
	}
	other := newFakeNS("websearch", map[string]string{
		"/results/fp-wiki": "fingerprint biometrics overview",
	})
	// Same mount point: a multiple semantic mount point (§3.2).
	if err := fs.SemanticMount("/lib", other); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	targets := targetsOf(t, fs, "/fp")
	if len(targets) != 4 {
		t.Fatalf("multiple-mount targets = %v", targets)
	}
	// Results are disjoint per namespace.
	byNS := map[string]int{}
	for _, tg := range targets {
		ns, _, ok := splitRemoteTarget(tg)
		if !ok {
			t.Fatalf("unexpected local target %s", tg)
		}
		byNS[ns]++
	}
	if byNS["diglib"] != 3 || byNS["websearch"] != 1 {
		t.Fatalf("per-namespace counts = %v", byNS)
	}
	mounts := fs.SemanticMounts()
	if got := mounts["/lib"]; len(got) != 2 {
		t.Fatalf("SemanticMounts = %v", mounts)
	}
}

func TestDuplicateNamespaceRejected(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/a", digLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/b", digLibrary()); err == nil {
		t.Fatal("duplicate namespace name accepted")
	}
}

func TestSemanticUnmount(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", digLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	if len(targetsOf(t, fs, "/fp")) != 3 {
		t.Fatal("setup failed")
	}
	if err := fs.SemanticUnmount("/lib", "diglib"); err != nil {
		t.Fatal(err)
	}
	// Unmount re-syncs: remote transients disappear.
	wantTargets(t, fs, "/fp")
	if err := fs.SemanticUnmount("/lib", "diglib"); !errors.Is(err, ErrNoNamespace) {
		t.Fatalf("double unmount err = %v", err)
	}
}

func TestRemoteScopeRefinement(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", digLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	// Child of a semantic dir: remote scope is the parent's remote
	// links. "matching" only matches fp-matching.ps, which the parent
	// holds.
	if err := fs.SemDir("/fp/match", "matching"); err != nil {
		t.Fatal(err)
	}
	targets := targetsOf(t, fs, "/fp/match")
	if len(targets) != 1 || targets[0] != "remote://diglib/papers/fp-matching.ps" {
		t.Fatalf("child remote targets = %v", targets)
	}
	// Prohibit a remote link in the parent: the child loses it.
	entries, _ := fs.ReadDir("/fp")
	var matchingName string
	for _, e := range entries {
		if strings.Contains(e.Name, "fp-matching") {
			matchingName = e.Name
		}
	}
	if matchingName == "" {
		t.Fatal("no fp-matching link in parent")
	}
	if err := fs.Remove(vfs.Join("/fp", matchingName)); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/fp/match")
}

func TestRemoteProhibition(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", digLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	// The paper's example: remove the crime story even though it
	// matches. (Query "fingerprint AND NOT murder" would also work —
	// "but often it is easier to remove a few files manually".)
	entries, _ := fs.ReadDir("/fp")
	for _, e := range entries {
		if strings.Contains(e.Name, "crime") {
			if err := fs.Remove(vfs.Join("/fp", e.Name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync("/"); err != nil {
		t.Fatal(err)
	}
	for _, tg := range targetsOf(t, fs, "/fp") {
		if strings.Contains(tg, "crime") {
			t.Fatal("prohibited remote link returned")
		}
	}
}

func TestExtractRemote(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", digLibrary()); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/fp", "sensor"); err != nil {
		t.Fatal(err)
	}
	entries, _ := fs.ReadDir("/fp")
	if len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
	data, err := fs.Extract(vfs.Join("/fp", entries[0].Name))
	if err != nil || !strings.Contains(string(data), "sensor hardware") {
		t.Fatalf("Extract remote = %q, %v", data, err)
	}
}

func TestMountErrorsHAC(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemanticMount("/missing", digLibrary()); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("mount on missing err = %v", err)
	}
	if err := fs.SemanticMount("/docs/apple1.txt", digLibrary()); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("mount on file err = %v", err)
	}
	if err := fs.SemanticMount("/docs", nil); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("nil namespace err = %v", err)
	}
}

func TestScopeExcludesMountOutsideParent(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", digLibrary()); err != nil {
		t.Fatal(err)
	}
	// A semantic dir whose parent is /docs: the mount at /lib is not in
	// its scope, so no remote results appear.
	if err := fs.SemDir("/docs/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/docs/fp")
}

func TestRemoteTargetHelpers(t *testing.T) {
	target := RemoteTarget("lib", "/a/b.ps")
	if target != "remote://lib/a/b.ps" {
		t.Fatalf("RemoteTarget = %q", target)
	}
	ns, p, ok := splitRemoteTarget(target)
	if !ok || ns != "lib" || p != "/a/b.ps" {
		t.Fatalf("splitRemoteTarget = %q %q %v", ns, p, ok)
	}
	if IsRemoteTarget("/local/path") {
		t.Fatal("local path reported remote")
	}
	if _, _, ok := splitRemoteTarget("remote://noslash"); ok {
		t.Fatal("malformed remote target accepted")
	}
	// Paths without leading slash are normalized.
	if got := RemoteTarget("ns", "rel/path"); got != "remote://ns/rel/path" {
		t.Fatalf("RemoteTarget rel = %q", got)
	}
}
