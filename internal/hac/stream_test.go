package hac

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

var streamVocab = []string{"alpha", "alpine", "beta", "gamma", "delta", "epsilon", "common"}

// newStreamFS builds a volume whose documents spread over several
// sealed segments and the active one: files under /c/d0../d4 holding
// "common" plus a few seeded vocabulary words, a semantic directory
// /sel (query "alpha") at the root, and auto-sync on /c.
func newStreamFS(t testing.TB, seed int64, under vfs.FileSystem, files int) (*FS, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs := New(under, Options{})
	fs.Index().SetSealThreshold(16)
	for d := 0; d < 5; d++ {
		if err := fs.MkdirAll(fmt.Sprintf("/c/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i++ {
		body := "common"
		for _, w := range streamVocab[:6] {
			if rng.Intn(3) == 0 {
				body += " " + w
			}
		}
		if err := fs.WriteFile(fmt.Sprintf("/c/d%d/f%04d.txt", rng.Intn(5), i), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	// A pass per directory: a sealed segment each.
	for d := 0; d < 5; d++ {
		if _, err := fs.Reindex(fmt.Sprintf("/c/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.SemDir("/sel", "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/c"); err != nil {
		t.Fatal(err)
	}
	return fs, rng
}

// streamQueries generates one query of every leaf and operator kind,
// with the scope to run it under.
func streamQueries(rng *rand.Rand) [][2]string {
	w := func() string { return streamVocab[rng.Intn(len(streamVocab))] }
	return [][2]string{
		{w(), "/"},
		{"common", "/"},
		{w() + " AND " + w(), "/"},
		{w() + " OR " + w(), "/"},
		{"common AND NOT " + w(), "/"},
		{"NOT " + w(), "/"},
		{"(" + w() + " OR " + w() + ") AND NOT (" + w() + " AND " + w() + ")", "/"},
		{w()[:2] + "*", "/"},
		{"~" + w()[1:], "/"},
		{"dir:/sel AND " + w(), "/"},
		{"dir:/c/d1 OR " + w(), "/"},
		{"common", "/sel"},
		{w() + " OR " + w(), "/sel"},
		{"common", fmt.Sprintf("/c/d%d", rng.Intn(5))},
		{"nosuchword", "/"},
	}
}

type streamedPage struct {
	paths []string
	next  uint64
}

func collectStream(t *testing.T, fs *FS, q, scope string, after uint64, pageSize int) []streamedPage {
	t.Helper()
	var pages []streamedPage
	err := fs.SearchStream(context.Background(), q, scope, after, pageSize, 0, func(page []string, next uint64) error {
		if pageSize > 0 && len(page) > pageSize {
			t.Fatalf("%q under %s: page of %d paths, page size %d", q, scope, len(page), pageSize)
		}
		pages = append(pages, streamedPage{append([]string(nil), page...), next})
		return nil
	})
	if err != nil {
		t.Fatalf("SearchStream(%q, %s, after %d, size %d): %v", q, scope, after, pageSize, err)
	}
	if pages[len(pages)-1].next != 0 {
		t.Fatalf("%q under %s: last page carries cursor %d", q, scope, pages[len(pages)-1].next)
	}
	return pages
}

func flatten(pages []streamedPage) []string {
	var out []string
	for _, p := range pages {
		out = append(out, p.paths...)
	}
	return out
}

// TestStreamPagedAndSortedSearchAgree: for generated queries and page
// sizes {1, 7, 512, more than the matches}, the streamed pages, the
// page-by-page SearchPageContext walk, a resume from every intermediate
// cursor and sorted searchSorted name the same documents, none twice,
// on both substrates.
func TestStreamPagedAndSortedSearchAgree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		var under vfs.FileSystem = vfs.New()
		name := "memfs"
		if seed%2 == 0 {
			under, name = cas.New(cas.NewStore()), "cas"
		}
		t.Run(fmt.Sprintf("seed%d-%s", seed, name), func(t *testing.T) {
			fs, rng := newStreamFS(t, seed, under, 150)
			for _, qs := range streamQueries(rng) {
				q, scope := qs[0], qs[1]
				want, err := searchSorted(fs, q, scope)
				if err != nil {
					t.Fatalf("searchSorted(%q, %s): %v", q, scope, err)
				}
				for i := 1; i < len(want); i++ {
					if want[i] == want[i-1] {
						t.Fatalf("%q under %s: searchSorted names %s twice", q, scope, want[i])
					}
				}
				for _, ps := range []int{1, 7, 512, len(want) + 10} {
					pages := collectStream(t, fs, q, scope, 0, ps)
					streamed := flatten(pages)
					sorted := append([]string{}, streamed...)
					sort.Strings(sorted)
					if !slices.Equal(sorted, want) {
						t.Fatalf("%q under %s by %d: streamed %v\nsearchSorted %v", q, scope, ps, sorted, want)
					}

					var walked []string
					for after, rounds := uint64(0), 0; ; rounds++ {
						page, next, err := fs.SearchPageContext(context.Background(), q, scope, after, ps)
						if err != nil || rounds > len(want)+1 {
							t.Fatalf("%q under %s by %d: page walk round %d: %v", q, scope, ps, rounds, err)
						}
						walked = append(walked, page...)
						if next == 0 {
							break
						}
						after = next
					}
					if !slices.Equal(walked, streamed) {
						t.Fatalf("%q under %s by %d: page walk %v\nstream %v", q, scope, ps, walked, streamed)
					}

					for i := 0; i+1 < len(pages); i++ {
						resumed := flatten(collectStream(t, fs, q, scope, pages[i].next, ps))
						if rest := flatten(pages[i+1:]); !slices.Equal(resumed, rest) {
							t.Fatalf("%q under %s by %d: resume from cursor %d of page %d = %v\nwant %v",
								q, scope, ps, pages[i].next, i, resumed, rest)
						}
					}
				}
			}
		})
	}
}

// TestStreamAnswersFromOneEvaluation: a stream that has handed out its
// first page keeps answering from the evaluation it started with while
// auto-synced writes add matching documents, rewrite and remove others
// and a forced merge retires its segments — every later page is the
// pre-burst answer's, except that a match removed before its page is
// skipped rather than reported.
func TestStreamAnswersFromOneEvaluation(t *testing.T) {
	for _, sub := range []string{"memfs", "cas"} {
		t.Run(sub, func(t *testing.T) {
			var under vfs.FileSystem = vfs.New()
			if sub == "cas" {
				under = cas.New(cas.NewStore())
			}
			fs, _ := newStreamFS(t, 7, under, 120)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			pre, err := searchSorted(fs, "alpha", "/")
			must(err)
			others, err := searchSorted(fs, "common AND NOT alpha", "/")
			must(err)
			if len(pre) < 30 || len(others) < 10 {
				t.Fatalf("corpus too small: %d matches, %d others", len(pre), len(others))
			}

			delivered := map[string]bool{}
			var removed []string
			var got []string
			pages := 0
			err = fs.SearchStream(context.Background(), "alpha", "/", 0, 7, 0, func(page []string, next uint64) error {
				pages++
				got = append(got, page...)
				for _, p := range page {
					delivered[p] = true
				}
				if pages != 1 {
					return nil
				}
				// The burst, between page 1 and page 2.
				for i := 0; i < 40; i++ {
					must(fs.WriteFile(fmt.Sprintf("/c/d%d/late%03d.txt", i%5, i), []byte("common alpha late")))
				}
				for i, p := range others[:10] {
					if i%2 == 0 {
						must(fs.WriteFile(p, []byte("common alpha now")))
					} else {
						must(fs.Remove(p))
					}
				}
				for _, p := range pre {
					if !delivered[p] && len(removed) < 3 {
						must(fs.Remove(p))
						removed = append(removed, p)
					}
				}
				fs.Index().ForceMerge()
				for i := 0; i < 20; i++ {
					must(fs.WriteFile(fmt.Sprintf("/c/d%d/later%03d.txt", i%5, i), []byte("alpha")))
				}
				return nil
			})
			must(err)
			if len(removed) != 3 {
				t.Fatalf("burst removed %v", removed)
			}
			var want []string
			for _, p := range pre {
				if p != removed[0] && p != removed[1] && p != removed[2] {
					want = append(want, p)
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("stream across the burst = %v\nwant the pre-burst answer less %v: %v", got, removed, want)
			}
			// A new evaluation sees the burst.
			now, err := searchSorted(fs, "alpha", "/")
			must(err)
			if len(now) != len(pre)-3+40+5+20 {
				t.Fatalf("post-burst answer has %d paths, want %d", len(now), len(pre)-3+40+5+20)
			}
		})
	}
}

// TestStreamStopsWhenContextEnds: once ctx is done the stream ends at
// the next page boundary with ctx's error, and emit's own error ends it
// at once.
func TestStreamStopsWhenContextEnds(t *testing.T) {
	fs := newPagingFS(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	pages := 0
	err := fs.SearchStream(ctx, "common", "/", 0, 4, 0, func([]string, uint64) error {
		if pages++; pages == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || pages != 2 {
		t.Fatalf("cancelled stream = %v after %d pages, want context.Canceled after 2", err, pages)
	}
	boom := errors.New("stop")
	pages = 0
	err = fs.SearchStream(context.Background(), "common", "/", 0, 4, 0, func([]string, uint64) error {
		pages++
		return boom
	})
	if err != boom || pages != 1 {
		t.Fatalf("emit error = %v after %d pages, want %v after 1", err, pages, boom)
	}
	// The page budget ends a stream with the resume cursor still set.
	var last uint64
	pages = 0
	err = fs.SearchStream(context.Background(), "common", "/", 0, 4, 3, func(_ []string, next uint64) error {
		pages++
		last = next
		return nil
	})
	if err != nil || pages != 3 || last == 0 {
		t.Fatalf("budgeted stream = %v, %d pages, last cursor %d; want 3 pages and a resume cursor", err, pages, last)
	}
}

// TestCacheHitsStayEqualToFreshEvaluation: the result cache hands every
// hit the one set it holds, so nothing on the search path may mutate
// it. After 1000 searches of mixed queries, page sizes and cursors
// from four goroutines (a mutation would also be a -race report), each
// query's cached answer still equals an uncached evaluation.
func TestCacheHitsStayEqualToFreshEvaluation(t *testing.T) {
	fs, rng := newStreamFS(t, 11, vfs.New(), 150)
	queries := streamQueries(rng)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 250; i++ {
				qs := queries[rng.Intn(len(queries))]
				after := uint64(rng.Intn(3)) << 32 * uint64(rng.Intn(2))
				err := fs.SearchStream(context.Background(), qs[0], qs[1], after, []int{1, 7, 64, 0}[rng.Intn(4)], rng.Intn(4),
					func([]string, uint64) error { return nil })
				if err != nil {
					t.Errorf("search %q under %s: %v", qs[0], qs[1], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ctx := context.Background()
	for _, qs := range queries {
		hit, err := fs.Search(ctx, qs[0], WithScope(qs[1]), WithPageSize(0))
		if err != nil || !hit.Stats().Cached {
			t.Fatalf("%q under %s: cached = %v, err %v; want a hit", qs[0], qs[1], hit.Stats().Cached, err)
		}
		fresh, err := fs.Search(ctx, qs[0], WithScope(qs[1]), WithPageSize(0), WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hit.All(), fresh.All(); !slices.Equal(got, want) || hit.Len() != fresh.Len() {
			t.Fatalf("%q under %s: cache hit %v\nfresh evaluation %v", qs[0], qs[1], got, want)
		}
	}
}

// TestStreamedPageAllocatesOnlyItsPaths: handing out one more page of a
// stream allocates the page's []string and nothing that grows with the
// page or the match count — measured as the difference between walking
// the same result in 48 pages and in 24.
func TestStreamedPageAllocatesOnlyItsPaths(t *testing.T) {
	fs := newPagingFS(t, 24*64)
	walk := func(pageSize int) float64 {
		return testing.AllocsPerRun(20, func() {
			pages := 0
			err := fs.SearchStream(context.Background(), "common", "/", 0, pageSize, 0, func([]string, uint64) error {
				pages++
				return nil
			})
			if err != nil || pages != 24*64/pageSize {
				t.Fatalf("walk by %d: %d pages, %v", pageSize, pages, err)
			}
		})
	}
	if perPage := (walk(32) - walk(64)) / 24; perPage > 1.5 {
		t.Fatalf("one more streamed page costs %.1f allocations, want the []string alone", perPage)
	}
}
