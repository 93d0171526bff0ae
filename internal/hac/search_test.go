package hac

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hacfs/internal/vfs"
)

// newPagingFS builds a volume with many matching files so paging has
// several pages to walk.
func newPagingFS(t *testing.T, n int) *FS {
	t.Helper()
	fs := New(vfs.New(), Options{})
	if err := fs.MkdirAll("/corpus"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/corpus/f%03d.txt", i)
		if err := fs.WriteFile(p, []byte("common payload")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestSearchPagedIteration(t *testing.T) {
	fs := newPagingFS(t, 20)
	res, err := fs.Search(context.Background(), "common", WithPageSize(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 20 {
		t.Fatalf("Len = %d, want 20", res.Len())
	}
	var all []string
	pages := 0
	for {
		page, ok := res.Next()
		if !ok {
			break
		}
		pages++
		if len(page) > 7 {
			t.Fatalf("page %d has %d paths, page size 7", pages, len(page))
		}
		all = append(all, page...)
	}
	if pages != 3 {
		t.Fatalf("pages = %d, want 3 (7+7+6)", pages)
	}
	want, err := searchSorted(fs, "common", "/")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(all)
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("paged union = %v\nwant %v", all, want)
	}
}

func TestSearchCursorResume(t *testing.T) {
	fs := newPagingFS(t, 12)
	res, err := fs.Search(context.Background(), "common", WithPageSize(5))
	if err != nil {
		t.Fatal(err)
	}
	first, ok := res.Next()
	if !ok || len(first) != 5 {
		t.Fatalf("first page = %v", first)
	}
	// Resume from the cursor with a fresh Search: must yield exactly the
	// remaining documents.
	rest, err := fs.Search(context.Background(), "common", WithAfter(res.Cursor()))
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]string{}, first...), rest.All()...)
	sort.Strings(got)
	want, _ := searchSorted(fs, "common", "/")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor resume union = %v\nwant %v", got, want)
	}
}

func TestSearchLimit(t *testing.T) {
	fs := newPagingFS(t, 20)
	res, err := fs.Search(context.Background(), "common", WithLimit(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 || len(res.All()) != 4 {
		t.Fatalf("limited Len = %d", res.Len())
	}
}

func TestSearchPageProtocolShape(t *testing.T) {
	fs := newPagingFS(t, 9)
	var got []string
	var cursor uint64
	for rounds := 0; ; rounds++ {
		if rounds > 10 {
			t.Fatal("SearchPage did not terminate")
		}
		page, next, err := fs.SearchPageContext(context.Background(), "common", "/", cursor, 4)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		if next == 0 {
			break
		}
		cursor = next
	}
	want, _ := searchSorted(fs, "common", "/")
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SearchPage union = %v\nwant %v", got, want)
	}
}

func TestSearchCacheHitAndVersionInvalidation(t *testing.T) {
	fs := newTestFS(t)
	r1, err := fs.Search(context.Background(), "apple", WithScope("/docs"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats().Cached {
		t.Fatal("first search reported cached")
	}
	r2, err := fs.Search(context.Background(), "apple", WithScope("/docs"))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats().Cached {
		t.Fatal("identical second search not served from cache")
	}
	if !reflect.DeepEqual(r2.All(), r1.All()) {
		t.Fatal("cached result differs from computed result")
	}
	// Any index mutation advances the version and invalidates.
	if err := fs.WriteFile("/docs/apple9.txt", []byte("apple late")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/docs"); err != nil {
		t.Fatal(err)
	}
	r3, err := fs.Search(context.Background(), "apple", WithScope("/docs"))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats().Cached {
		t.Fatal("stale entry served after index mutation")
	}
	paths := r3.All()
	sort.Strings(paths)
	want, _ := searchSorted(fs, "apple", "/docs")
	if !reflect.DeepEqual(paths, want) || len(paths) != 3 {
		t.Fatalf("post-mutation result = %v", paths)
	}
}

func TestSearchCacheDepgraphInvalidation(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	// Warm the cache through both semantic inputs: /sel as scope and as
	// a dir: reference.
	warm := func(q, scope string) []string {
		t.Helper()
		res, err := fs.Search(context.Background(), q, WithScope(scope))
		if err != nil {
			t.Fatal(err)
		}
		return res.All()
	}
	warm("fruit", "/sel")
	warm("dir:/sel AND fruit", "/")
	assertCached := func(q, scope string, want bool) {
		t.Helper()
		res, err := fs.Search(context.Background(), q, WithScope(scope))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats().Cached != want {
			t.Fatalf("cached(%q, %q) = %v, want %v", q, scope, res.Stats().Cached, want)
		}
	}
	assertCached("fruit", "/sel", true)
	assertCached("dir:/sel AND fruit", "/", true)

	// Prohibiting a target changes the scope /sel provides; both cached
	// entries must die even though the index itself did not change.
	if err := fs.MarkProhibited("/sel", "/docs/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	res, err := fs.Search(context.Background(), "fruit", WithScope("/sel"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().Cached {
		t.Fatal("scope-stale entry served after MarkProhibited")
	}
	for _, p := range res.All() {
		if p == "/docs/apple1.txt" {
			t.Fatal("prohibited target still in scoped search result")
		}
	}
	res, err = fs.Search(context.Background(), "dir:/sel AND fruit", WithScope("/"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().Cached {
		t.Fatal("ref-stale entry served after MarkProhibited")
	}
}

func TestSearchCacheTransitiveDepgraphInvalidation(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/base", "apple"); err != nil {
		t.Fatal(err)
	}
	// /derived's query references /base, so the depgraph records the
	// dependency; a link change in /base must invalidate searches that
	// only read /derived.
	if err := fs.SemDir("/derived", "dir:/base AND fruit"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := fs.Search(ctx, "fruit", WithScope("/derived")); err != nil {
		t.Fatal(err)
	}
	res, err := fs.Search(ctx, "fruit", WithScope("/derived"))
	if err != nil || !res.Stats().Cached {
		t.Fatalf("warmup not cached (err=%v)", err)
	}
	if err := fs.MarkProhibited("/base", "/docs/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	res, err = fs.Search(ctx, "fruit", WithScope("/derived"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().Cached {
		t.Fatal("transitively stale entry served: /base changed, /derived scope cached")
	}
	for _, p := range res.All() {
		if p == "/docs/apple1.txt" {
			t.Fatal("prohibited upstream target leaked into derived scope")
		}
	}
}

func TestSearchWithoutCache(t *testing.T) {
	fs := newTestFS(t)
	ctx := context.Background()
	if _, err := fs.Search(ctx, "apple", WithoutCache()); err != nil {
		t.Fatal(err)
	}
	res, err := fs.Search(ctx, "apple", WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().Cached {
		t.Fatal("WithoutCache search served from cache")
	}
	if fs.qcache.Len() != 0 {
		t.Fatalf("WithoutCache populated the cache (%d entries)", fs.qcache.Len())
	}
}

func TestSearchDanglingRefTypedError(t *testing.T) {
	fs := newTestFS(t)
	_, err := fs.Search(context.Background(), "dir:/nowhere")
	if !errors.Is(err, ErrDanglingRef) {
		t.Fatalf("err = %v, want ErrDanglingRef", err)
	}
	var pe *vfs.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *vfs.PathError", err)
	}
	if pe.Op != "search" || pe.Path != "dir:/nowhere" {
		t.Fatalf("PathError = {Op:%q Path:%q}", pe.Op, pe.Path)
	}
}

func TestSearchContextCanceled(t *testing.T) {
	fs := newTestFS(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fs.Search(ctx, "apple"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSearchExplainAndStats(t *testing.T) {
	fs := newTestFS(t)
	res, err := fs.Search(context.Background(), "apple AND fruit", WithScope("/docs"))
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain()
	if ex == "" || res.Plan() == nil {
		t.Fatalf("Explain = %q, Plan = %v", ex, res.Plan())
	}
	if res.Stats().Leaves == 0 {
		t.Fatalf("stats = %+v, want evaluated leaves", res.Stats())
	}
	// Empty query: a well-formed empty result.
	empty, err := fs.Search(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.Plan() != nil {
		t.Fatalf("empty query result = %+v", empty)
	}
	if _, ok := empty.Next(); ok {
		t.Fatal("empty result produced a page")
	}
}

func TestSearchEquivalentToOldSemantics(t *testing.T) {
	// A sorted drain of Search must agree
	// with naive evaluation for a spread of query shapes and scopes.
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"apple", "apple AND banana", "apple OR cherry",
		"NOT apple", "apple AND NOT banana", "fru*", "mesage~",
		"dir:/sel AND fruit", "NOT (apple OR banana)",
	}
	scopes := []string{"/", "/docs", "/mail", "/sel"}
	for _, q := range queries {
		for _, scope := range scopes {
			got, err := searchSorted(fs, q, scope)
			if err != nil {
				t.Fatalf("searchSorted(%q, %q): %v", q, scope, err)
			}
			// Second run exercises the cache path; must be identical.
			again, err := searchSorted(fs, q, scope)
			if err != nil || !reflect.DeepEqual(got, again) {
				t.Fatalf("cached searchSorted(%q, %q) = %v, first %v (err=%v)",
					q, scope, again, got, err)
			}
		}
	}
}
