package hac

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// newTestFS builds a HAC volume over MemFS holding a small corpus with
// known terms:
//
//	/docs/apple1.txt   "apple fruit red"
//	/docs/apple2.txt   "apple banana mixed"
//	/docs/banana.txt   "banana only yellow"
//	/docs/cherry.txt   "cherry tree dark"
//	/mail/m1.txt       "apple message mail"
//	/mail/m2.txt       "cherry message mail"
func newTestFS(t *testing.T) *FS {
	t.Helper()
	return newTestFSOn(t, vfs.New())
}

// newCASTestFS builds the standard test corpus over a content-addressed
// substrate — the one a volume is saved on — optionally backed by a
// shared blob store.
func newCASTestFS(t *testing.T, store *cas.BlobStore) *FS {
	t.Helper()
	return newTestFSOn(t, cas.New(store))
}

// newTestFSOn builds the standard test corpus over under.
func newTestFSOn(t *testing.T, under vfs.FileSystem) *FS {
	t.Helper()
	fs := New(under, Options{})
	files := map[string]string{
		"/docs/apple1.txt": "apple fruit red",
		"/docs/apple2.txt": "apple banana mixed",
		"/docs/banana.txt": "banana only yellow",
		"/docs/cherry.txt": "cherry tree dark",
		"/mail/m1.txt":     "apple message mail",
		"/mail/m2.txt":     "cherry message mail",
	}
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
	return fs
}

// searchSorted drains an ad-hoc Search under scope into one sorted
// slice.
func searchSorted(fs *FS, q, scope string) ([]string, error) {
	res, err := fs.Search(context.Background(), q, WithScope(scope))
	if err != nil {
		return nil, err
	}
	paths := res.All()
	sort.Strings(paths)
	return paths, nil
}

// targetsOf returns the sorted link targets (transient+permanent) of a
// semantic directory.
func targetsOf(t *testing.T, fs *FS, dir string) []string {
	t.Helper()
	targets, err := fs.LinkTargets(dir)
	if err != nil {
		t.Fatalf("LinkTargets(%s): %v", dir, err)
	}
	sort.Strings(targets)
	return targets
}

func wantTargets(t *testing.T, fs *FS, dir string, want ...string) {
	t.Helper()
	got := targetsOf(t, fs, dir)
	sort.Strings(want)
	if want == nil {
		want = []string{}
	}
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("%s targets = %v, want %v", dir, got, want)
	}
}

func TestSemDirPopulates(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if !fs.IsSemantic("/sel") {
		t.Fatal("IsSemantic = false")
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")

	// Through HAC the links list as symlinks.
	entries, err := fs.ReadDir("/sel")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("ReadDir(/sel) has %d entries, want 3", len(entries))
	}
	for _, e := range entries {
		if e.Type != vfs.TypeSymlink {
			t.Fatalf("entry %s is %v, want symlink", e.Name, e.Type)
		}
	}
	// Reading through a link reaches the file (regular FS semantics).
	data, err := fs.ReadFile("/sel/apple1.txt")
	if err != nil || string(data) != "apple fruit red" {
		t.Fatalf("read through link = %q, %v", data, err)
	}
}

func TestSemDirEmptyQuery(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/empty", ""); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/empty")
	q, err := fs.Query("/empty")
	if err != nil || q != "" {
		t.Fatalf("Query = %q, %v", q, err)
	}
}

func TestSemDirBadQuery(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/bad", "((("); err == nil {
		t.Fatal("SemDir with bad query succeeded")
	}
	// Directory must not have been created.
	if _, err := fs.Stat("/bad"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("directory left behind: %v", err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple AND NOT banana"); err != nil {
		t.Fatal(err)
	}
	q, err := fs.Query("/sel")
	if err != nil {
		t.Fatal(err)
	}
	if q != "(apple AND (NOT banana))" {
		t.Fatalf("Query = %q", q)
	}
	wantTargets(t, fs, "/sel", "/docs/apple1.txt", "/mail/m1.txt")
	if _, err := fs.Query("/docs"); !errors.Is(err, ErrNotSemantic) {
		t.Fatalf("Query on syntactic dir err = %v", err)
	}
}

func TestScopeRefinement(t *testing.T) {
	fs := newTestFS(t)
	// Parent scoped to /docs via its position in the hierarchy.
	if err := fs.SemDir("/docs/fruity", "apple OR banana"); err != nil {
		t.Fatal(err)
	}
	// Scope of /docs/fruity is the /docs subtree: /mail/m1.txt excluded.
	wantTargets(t, fs, "/docs/fruity",
		"/docs/apple1.txt", "/docs/apple2.txt", "/docs/banana.txt")

	// Child refines the parent's scope (§2.3): only files that are in
	// the parent's link set can appear.
	if err := fs.SemDir("/docs/fruity/apples", "apple"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/docs/fruity/apples",
		"/docs/apple1.txt", "/docs/apple2.txt")

	// cherry matches nothing within the parent's scope.
	if err := fs.SemDir("/docs/fruity/cherries", "cherry"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/docs/fruity/cherries")
}

func TestPermanentLinkSurvivesSync(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	// User adds a link to a non-matching file: it becomes permanent.
	if err := fs.Symlink("/docs/cherry.txt", "/sel/cherry.txt"); err != nil {
		t.Fatal(err)
	}
	links, err := fs.Links("/sel")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, l := range links {
		if l.Target == "/docs/cherry.txt" {
			found = true
			if l.Class != Permanent {
				t.Fatalf("user link class = %v, want Permanent", l.Class)
			}
		}
	}
	if !found {
		t.Fatal("user link not classified")
	}
	// A consistency pass must not delete it.
	if err := fs.Sync("/sel"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt", "/docs/cherry.txt")
}

func TestProhibitedNeverReturns(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	// User deletes a transient link → prohibited.
	if err := fs.Remove("/sel/apple2.txt"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel", "/docs/apple1.txt", "/mail/m1.txt")

	links, _ := fs.Links("/sel")
	var prohibited bool
	for _, l := range links {
		if l.Target == "/docs/apple2.txt" && l.Class == Prohibited {
			prohibited = true
		}
	}
	if !prohibited {
		t.Fatal("deleted link not recorded as prohibited")
	}
	// Sync and Reindex must not bring it back (§2.3).
	if err := fs.Sync("/"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel", "/docs/apple1.txt", "/mail/m1.txt")

	// An explicit re-add by the user overrides the prohibition.
	if err := fs.Symlink("/docs/apple2.txt", "/sel/apple2.txt"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")
}

func TestUnprohibit(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/sel/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel", "/docs/apple2.txt", "/mail/m1.txt")
	if err := fs.Unprohibit("/sel", "/docs/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	// The target is eligible again and the immediate pass restores it.
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")
}

func TestMarkPermanentAndProhibited(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	// Footnote-1 API: direct manipulation of the link sets.
	if err := fs.MarkPermanent("/sel", "/docs/banana.txt"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/docs/banana.txt", "/mail/m1.txt")
	// Promote an existing transient link.
	if err := fs.MarkPermanent("/sel", "/docs/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	// Change the query: permanent links survive even though they do not
	// match, transient ones are replaced.
	if err := fs.SetQuery("/sel", "cherry"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/banana.txt", "/docs/cherry.txt", "/mail/m2.txt")

	if err := fs.MarkProhibited("/sel", "/docs/cherry.txt"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/banana.txt", "/mail/m2.txt")
	if err := fs.MarkPermanent("/x", "/y"); !errors.Is(err, vfs.ErrNotExist) && !errors.Is(err, ErrNotSemantic) {
		t.Fatalf("MarkPermanent on missing dir err = %v", err)
	}
}

func TestSetQueryPropagatesToChildren(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple OR cherry"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel/mailonly", "mail"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel/mailonly", "/mail/m1.txt", "/mail/m2.txt")

	// Narrow the parent: child must lose the out-of-scope link.
	if err := fs.SetQuery("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel/mailonly", "/mail/m1.txt")
}

func TestParentEditPropagates(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel/sub", "apple"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel/sub",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")

	// Deleting a link in the parent shrinks the child's scope (§2.3
	// scope-inconsistency case 1) — immediately.
	if err := fs.Remove("/sel/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel/sub", "/docs/apple2.txt", "/mail/m1.txt")

	// Adding a permanent link to the parent widens the child's scope.
	if err := fs.Symlink("/docs/banana.txt", "/sel/banana.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetQuery("/sel/sub", "banana"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel/sub", "/docs/apple2.txt", "/docs/banana.txt")
}

func TestDataConsistencyIsLazy(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	// A new matching file does not appear until Reindex (§2.4).
	if err := fs.WriteFile("/docs/apple3.txt", []byte("apple new")); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")
	rep, err := fs.Reindex("/")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 {
		t.Fatalf("Reindex added %d, want 1", rep.Added)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/docs/apple3.txt", "/mail/m1.txt")

	// A deleted file's link disappears at the next Reindex.
	if err := fs.Remove("/docs/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple2.txt", "/docs/apple3.txt", "/mail/m1.txt")

	// A file modified to stop matching also drops out.
	if err := fs.WriteFile("/docs/apple2.txt", []byte("pear now")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel", "/docs/apple3.txt", "/mail/m1.txt")
}

func TestDirRefQueries(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/curated", "apple"); err != nil {
		t.Fatal(err)
	}
	// Hand-tune the curated set.
	if err := fs.Remove("/curated/m1.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/docs/cherry.txt", "/curated/cherry.txt"); err != nil {
		t.Fatal(err)
	}
	// A query combining search with the curated directory (§2.5).
	if err := fs.SemDir("/combo", "dir:/curated AND NOT banana"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/combo", "/docs/apple1.txt", "/docs/cherry.txt")

	// Editing the referenced directory propagates to the referrer even
	// though it is not a hierarchical descendant.
	if err := fs.Remove("/curated/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/combo", "/docs/cherry.txt")
}

func TestDAGScopingSkipsParentRestriction(t *testing.T) {
	fs := newTestFS(t)
	// A semantic dir inside an unrelated, empty syntactic directory.
	if err := fs.MkdirAll("/folders"); err != nil {
		t.Fatal(err)
	}
	// Hierarchical scoping: the parent provides no files, so a plain
	// query matches nothing.
	if err := fs.SemDir("/folders/plain", "apple"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/folders/plain")

	// DAG scoping (§2.5): an explicit dir: reference replaces the
	// implicit parent restriction, so the folder can classify files
	// that live elsewhere.
	if err := fs.SemDir("/folders/bydir", "dir:/docs AND apple"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/folders/bydir", "/docs/apple1.txt", "/docs/apple2.txt")
}

func TestDirRefSurvivesRename(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/curated", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/combo", "dir:/curated"); err != nil {
		t.Fatal(err)
	}
	// §2.5: renaming the referenced directory only updates the global
	// map; the query keeps working.
	if err := fs.Rename("/curated", "/renamed"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync("/"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/combo",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")
	disp, err := fs.QueryDisplay("/combo")
	if err != nil {
		t.Fatal(err)
	}
	if disp != "dir:/renamed" {
		t.Fatalf("QueryDisplay = %q, want dir:/renamed", disp)
	}
}

func TestDirRefCycleRejected(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/a", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/b", "dir:/a"); err != nil {
		t.Fatal(err)
	}
	err := fs.SetQuery("/a", "dir:/b")
	if err == nil {
		t.Fatal("cycle accepted")
	}
	// The old query must still be in force.
	q, _ := fs.Query("/a")
	if q != "apple" {
		t.Fatalf("query after failed SetQuery = %q", q)
	}
}

func TestDanglingDirRef(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "dir:/nonexistent"); !errors.Is(err, ErrDanglingRef) {
		t.Fatalf("dangling ref err = %v", err)
	}
}

func TestRemoveReferencedDirRefused(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/curated", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/combo", "dir:/curated"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/curated"); !errors.Is(err, ErrDependedOn) {
		t.Fatalf("RemoveAll of referenced dir err = %v", err)
	}
	// Removing the referrer first unblocks it.
	if err := fs.RemoveAll("/combo"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/curated"); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveReferencedSubtreeNamesOffender checks the subtree rule of
// Remove: references from inside the removed subtree do not block it, a
// reference from outside does, and the error names the least referenced
// path, then the least referencing one, however the maps iterate.
func TestRemoveReferencedSubtreeNamesOffender(t *testing.T) {
	fs := newTestFS(t)
	for _, d := range []string{"/t", "/t/y", "/t/x"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, sd := range []struct{ path, query string }{
		{"/t/inner", "dir:/t/x"},
		{"/q2", "dir:/t/y OR dir:/t/x"},
		{"/q1", "dir:/t/y"},
		{"/q0", "dir:/t/x"},
	} {
		if err := fs.SemDir(sd.path, sd.query); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		err := fs.RemoveAll("/t")
		if !errors.Is(err, ErrDependedOn) {
			t.Fatalf("RemoveAll /t err = %v", err)
		}
		if want := "/t/x referenced by query of /q0"; !strings.Contains(err.Error(), want) {
			t.Fatalf("RemoveAll /t err = %v, want it to name %q", err, want)
		}
	}
	for _, q := range []string{"/q0", "/q1", "/q2"} {
		if err := fs.RemoveAll(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.RemoveAll("/t"); err != nil {
		t.Fatalf("RemoveAll /t referenced only from inside: %v", err)
	}
}

// TestRemoveDropsScopeEpochs is a regression test: removing a directory
// drops its scope epoch with the rest of its bookkeeping, so repeated
// SemDir + RemoveAll leaves the epoch map no larger.
func TestRemoveDropsScopeEpochs(t *testing.T) {
	fs := newTestFS(t)
	cycle := func() {
		t.Helper()
		if err := fs.SemDir("/s", "apple"); err != nil {
			t.Fatal(err)
		}
		if err := fs.SemDir("/s/t", "dir:/s OR banana"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Search(context.Background(), "apple", WithScope("/s")); err != nil {
			t.Fatal(err)
		}
		if err := fs.RemoveAll("/s"); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	fs.mu.RLock()
	after1 := len(fs.scopeEpoch)
	fs.mu.RUnlock()
	for i := 0; i < 50; i++ {
		cycle()
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if n := len(fs.scopeEpoch); n != after1 {
		t.Errorf("scope epochs after 51 cycles = %d, after 1 = %d", n, after1)
	}
	for uid := range fs.scopeEpoch {
		if _, ok := fs.dirs[uid]; !ok {
			t.Errorf("scope epoch kept for removed directory uid %d", uid)
		}
	}
}

func TestMoveSemanticDirChangesScope(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/docs/sel", "apple OR cherry"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/docs/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/docs/cherry.txt")

	// §2.3 scope-inconsistency case 2: moving the semantic directory to
	// a different parent changes its scope.
	if err := fs.Rename("/docs/sel", "/mail/sel"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/mail/sel", "/mail/m1.txt", "/mail/m2.txt")
	// Its query is intact.
	q, err := fs.Query("/mail/sel")
	if err != nil || q != "(apple OR cherry)" {
		t.Fatalf("query after move = %q, %v", q, err)
	}
}

func TestMoveLinkBetweenSemanticDirs(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/apples", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/cherries", "cherry"); err != nil {
		t.Fatal(err)
	}
	// Move a query result from one semantic dir to another: deletion
	// (prohibition) at the source, permanent link at the destination.
	if err := fs.Rename("/apples/apple1.txt", "/cherries/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/apples", "/docs/apple2.txt", "/mail/m1.txt")
	wantTargets(t, fs, "/cherries",
		"/docs/apple1.txt", "/docs/cherry.txt", "/mail/m2.txt")

	links, _ := fs.Links("/cherries")
	for _, l := range links {
		if l.Target == "/docs/apple1.txt" && l.Class != Permanent {
			t.Fatalf("moved link class = %v, want Permanent", l.Class)
		}
	}
	// And the prohibition holds at the source across syncs.
	if err := fs.Sync("/"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/apples", "/docs/apple2.txt", "/mail/m1.txt")
}

func TestSemDirConvertsInPlace(t *testing.T) {
	fs := newTestFS(t)
	// /docs exists with files; convert it in place.
	if err := fs.MkdirAll("/hand"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/mail/m2.txt", "/hand/keep.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/hand", "apple"); err != nil {
		t.Fatal(err)
	}
	// Pre-existing symlink adopted as permanent; query results added.
	wantTargets(t, fs, "/hand",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt", "/mail/m2.txt")
	links, _ := fs.Links("/hand")
	for _, l := range links {
		if l.Target == "/mail/m2.txt" && l.Class != Permanent {
			t.Fatalf("adopted link class = %v", l.Class)
		}
	}
	if err := fs.SemDir("/docs/apple1.txt", "x"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("SemDir on file err = %v", err)
	}
}

func TestFuzzyQueryEndToEnd(t *testing.T) {
	fs := newTestFS(t)
	// "~aple" is one edit from "apple"; Glimpse-style approximate match.
	if err := fs.SemDir("/sel", "~aple"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/sel",
		"/docs/apple1.txt", "/docs/apple2.txt", "/mail/m1.txt")
}

func TestSearch(t *testing.T) {
	fs := newTestFS(t)
	got, err := searchSorted(fs, "apple AND banana", "/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"/docs/apple2.txt"}) {
		t.Fatalf("Search = %v", got)
	}
	// Scoped search.
	got, err = searchSorted(fs, "apple", "/mail")
	if err != nil || !reflect.DeepEqual(got, []string{"/mail/m1.txt"}) {
		t.Fatalf("scoped Search = %v, %v", got, err)
	}
	// Empty query.
	got, err = searchSorted(fs, "", "/")
	if err != nil || got != nil {
		t.Fatalf("empty Search = %v, %v", got, err)
	}
}

func TestExtractLocal(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "cherry"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Extract("/sel/cherry.txt")
	if err != nil || string(data) != "cherry tree dark" {
		t.Fatalf("Extract = %q, %v", data, err)
	}
	// Extract on a plain file reads the file.
	data, err = fs.Extract("/docs/banana.txt")
	if err != nil || string(data) != "banana only yellow" {
		t.Fatalf("Extract plain = %q, %v", data, err)
	}
}

func TestLinkNameCollisions(t *testing.T) {
	fs := New(vfs.New(), Options{})
	for _, p := range []string{"/a", "/b"} {
		if err := fs.MkdirAll(p); err != nil {
			t.Fatal(err)
		}
	}
	// Two files with the same base name, both matching.
	if err := fs.WriteFile("/a/same.txt", []byte("needle one")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b/same.txt", []byte("needle two")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel", "needle"); err != nil {
		t.Fatal(err)
	}
	entries, err := fs.ReadDir("/sel")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected 2 links, got %d", len(entries))
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name] = true
	}
	if !names["same.txt"] || !names["same.txt~2"] {
		t.Fatalf("collision names = %v", names)
	}
}

func TestPassThroughEquivalence(t *testing.T) {
	// Invariant I8: hierarchical operations behave exactly like the raw
	// substrate.
	raw := vfs.New()
	layered := New(vfs.New(), Options{})

	type op func(fs vfs.FileSystem) error
	ops := []op{
		func(fs vfs.FileSystem) error { return fs.MkdirAll("/a/b") },
		func(fs vfs.FileSystem) error { return fs.WriteFile("/a/b/f.txt", []byte("hello")) },
		func(fs vfs.FileSystem) error { return fs.Symlink("/a/b/f.txt", "/a/ln") },
		func(fs vfs.FileSystem) error { return fs.Rename("/a/b/f.txt", "/a/b/g.txt") },
		func(fs vfs.FileSystem) error { return fs.Mkdir("/a/c") },
		func(fs vfs.FileSystem) error { return fs.Remove("/a/c") },
		func(fs vfs.FileSystem) error { return fs.WriteFile("/a/b/h.txt", []byte("h")) },
		func(fs vfs.FileSystem) error { return fs.RemoveAll("/a/b") },
	}
	for i, o := range ops {
		errRaw := o(raw)
		errHAC := o(layered)
		if (errRaw == nil) != (errHAC == nil) {
			t.Fatalf("op %d diverged: raw=%v hac=%v", i, errRaw, errHAC)
		}
	}
	rawFiles, _ := vfs.Files(raw, "/")
	hacFiles, _ := vfs.Files(layered, "/")
	if !reflect.DeepEqual(rawFiles, hacFiles) {
		t.Fatalf("file sets diverged: %v vs %v", rawFiles, hacFiles)
	}
}

// TestStatCoherence: Stat answers what the last write, handle write or
// removal left, never an earlier answer.
func TestStatCoherence(t *testing.T) {
	fs := newTestFS(t)
	before, err := fs.Stat("/docs/apple1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/docs/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	// A write shows.
	if err := fs.WriteFile("/docs/apple1.txt", []byte("much longer content than before")); err != nil {
		t.Fatal(err)
	}
	after, err := fs.Stat("/docs/apple1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if after.Size == before.Size {
		t.Fatalf("stale Stat after WriteFile: size %d", after.Size)
	}
	// A write through a handle shows too.
	f, err := fs.OpenFile("/docs/apple1.txt", vfs.OWrite|vfs.OAppend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("xxxx")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	again, _ := fs.Stat("/docs/apple1.txt")
	if again.Size != after.Size+4 {
		t.Fatalf("stale Stat after handle write: %d, want %d", again.Size, after.Size+4)
	}
	// So does a removal.
	if err := fs.Remove("/docs/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/docs/apple1.txt"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Stat of removed file err = %v", err)
	}
}

// TestStatThroughRepointedLink: a Stat through a link answers for the
// link's target as it is now — after the target was rewritten under its
// own name, and after the link went with its directory's next
// consistency pass.
func TestStatThroughRepointedLink(t *testing.T) {
	t.Run("target rewritten", func(t *testing.T) {
		fs := newTestFS(t)
		if err := fs.SemDir("/sel", "apple"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Symlink("/docs/cherry.txt", "/sel/pinned.txt"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Symlink("/docs", "/alias"); err != nil {
			t.Fatal(err)
		}
		// A view link, a permanent link, and a path through a symlinked
		// directory.
		for link, target := range map[string]string{
			"/sel/apple1.txt":   "/docs/apple1.txt",
			"/sel/pinned.txt":   "/docs/cherry.txt",
			"/alias/banana.txt": "/docs/banana.txt",
		} {
			if _, err := fs.Stat(link); err != nil {
				t.Fatal(err)
			}
			grown := []byte("rewritten well past its former size")
			if err := fs.WriteFile(target, grown); err != nil {
				t.Fatal(err)
			}
			if info, err := fs.Stat(link); err != nil || info.Size != int64(len(grown)) {
				t.Fatalf("Stat(%s) after rewriting %s = size %d, %v; want %d", link, target, info.Size, err, len(grown))
			}
		}
	})
	t.Run("link dropped", func(t *testing.T) {
		fs := newTestFS(t)
		if err := fs.SemDir("/sel", "apple"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat("/sel/m1.txt"); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/mail/m1.txt", []byte("no match")); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Reindex("/"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Lstat("/sel/m1.txt"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("Lstat of the dropped link = %v", err)
		}
		if info, err := fs.Stat("/sel/m1.txt"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("Stat of the dropped link = size %d, %v; Lstat says it is gone", info.Size, err)
		}
	})
}

func TestRenameDirKeepsIndexAndCache(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Rename("/docs", "/papers"); err != nil {
		t.Fatal(err)
	}
	// The index followed the rename without a Reindex.
	got, err := searchSorted(fs, "cherry", "/papers")
	if err != nil || len(got) != 1 || got[0] != "/papers/cherry.txt" {
		t.Fatalf("Search after dir rename = %v, %v", got, err)
	}
	if _, err := fs.Stat("/docs/apple1.txt"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("Stat of the old path answers after the rename")
	}
}

func TestStatsAndFootprints(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	s := fs.Stats()
	if s.SemanticDirs != 1 || s.Directories < 3 || s.GraphNodes < 3 {
		t.Fatalf("Stats = %+v", s)
	}
	if fs.MetadataBytes() <= 0 {
		t.Fatal("MetadataBytes not positive")
	}
	if s.OpenHandles != 0 {
		t.Fatalf("OpenHandles = %d, want 0", s.OpenHandles)
	}
}

func TestSyncIdempotent(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple OR banana"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel/sub", "banana"); err != nil {
		t.Fatal(err)
	}
	first := targetsOf(t, fs, "/sel/sub")
	for i := 0; i < 3; i++ {
		if err := fs.Sync("/"); err != nil {
			t.Fatal(err)
		}
	}
	if got := targetsOf(t, fs, "/sel/sub"); !reflect.DeepEqual(got, first) {
		t.Fatalf("Sync not idempotent: %v → %v", first, got)
	}
}
