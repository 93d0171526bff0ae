package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hacfs/internal/bitset"
	"hacfs/internal/index"
	"hacfs/internal/query"
)

// buildCorpus indexes a randomized tree with controllable segment
// layout and churn, returning the index and a few interior dirs.
func buildCorpus(rng *rand.Rand, files int) (*index.Index, []string) {
	ix := index.New()
	ix.SetSealThreshold(1 + rng.Intn(40)) // vary segment layouts
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "rare"}
	dirs := []string{"/a", "/a/x", "/b", "/b/y", "/c"}
	for i := 0; i < files; i++ {
		d := dirs[rng.Intn(len(dirs))]
		var content []string
		for _, w := range words {
			if rng.Intn(3) == 0 {
				content = append(content, w)
			}
		}
		content = append(content, fmt.Sprintf("u%d", i))
		ix.Add(fmt.Sprintf("%s/f%03d.txt", d, i), []byte(strings.Join(content, " ")))
	}
	// Churn: removes and renames to exercise tombstones + dirs moves.
	for i := 0; i < files/5; i++ {
		j := rng.Intn(files)
		p := fmt.Sprintf("%s/f%03d.txt", dirs[j%len(dirs)], j)
		switch rng.Intn(3) {
		case 0:
			ix.Remove(p)
		case 1:
			ix.RenamePath(p, fmt.Sprintf("/c/m%03d.txt", j))
		case 2:
			ix.Add(p, []byte("alpha rewritten"))
		}
	}
	if rng.Intn(2) == 0 {
		ix.ForceMerge()
	}
	return ix, dirs
}

// randomAST generates a random query over the corpus vocabulary,
// including prefix, fuzzy, and dir-reference leaves.
func randomAST(rng *rand.Rand, depth int) query.Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(6) {
		case 0:
			return &query.Term{Text: "alpha"}
		case 1:
			return &query.Term{Text: []string{"beta", "gamma", "rare", "missing"}[rng.Intn(4)]}
		case 2:
			return &query.Prefix{Text: []string{"ga", "ze", "u1"}[rng.Intn(3)]}
		case 3:
			return &query.Fuzzy{Text: "alpka"}
		case 4:
			return &query.DirRef{UID: uint64(1 + rng.Intn(3))}
		default:
			return &query.Term{Text: "delta"}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &query.And{L: randomAST(rng, depth-1), R: randomAST(rng, depth-1)}
	case 1:
		return &query.Or{L: randomAST(rng, depth-1), R: randomAST(rng, depth-1)}
	default:
		return &query.Not{X: randomAST(rng, depth-1)}
	}
}

// naiveScoped is the oracle: naive Eval, then intersect with the scope
// documents — the semantics the old FS.Search implemented.
func naiveScoped(t *testing.T, ast query.Node, env *SnapEnv, sc Scope) *bitset.Segmented {
	t.Helper()
	res, err := query.Eval(ast, env)
	if err != nil {
		t.Fatalf("naive eval: %v", err)
	}
	docs := env.Snap.DocsUnder(sc.prefixRoot())
	if sc.Set != nil {
		docs.And(sc.Set)
	}
	res.And(docs)
	return res
}

func TestPlannerMatchesNaiveEval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 150; trial++ {
		ix, dirs := buildCorpus(rng, 40+rng.Intn(80))
		snap := ix.Snapshot()

		// Random directory-reference link sets out of the corpus.
		refs := map[uint64]*bitset.Segmented{}
		all := snap.AllDocs().Slice()
		for uid := uint64(1); uid <= 3; uid++ {
			set := bitset.NewSegmented()
			for _, id := range all {
				if rng.Intn(4) == 0 {
					set.Add(id)
				}
			}
			refs[uid] = set
		}
		env := &SnapEnv{Snap: snap, Refs: refs}

		ast := randomAST(rng, 1+rng.Intn(3))

		// Random scope: unrestricted, syntactic, semantic, or both.
		sc := Scope{}
		switch rng.Intn(4) {
		case 1:
			sc.Prefix = dirs[rng.Intn(len(dirs))]
		case 2:
			sc.Set = refs[1].Clone()
		case 3:
			sc.Prefix = dirs[rng.Intn(len(dirs))]
			sc.Set = refs[2].Clone()
		}

		want := naiveScoped(t, ast, env, sc)

		p, err := Build(ast, sc, env)
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		got, err := p.Exec()
		if err != nil {
			t.Fatalf("trial %d: exec: %v", trial, err)
		}
		if !got.Equal(want) || !want.Equal(got) {
			t.Fatalf("trial %d: plan mismatch for %s (scope %+v):\n got %v\nwant %v\nplan:\n%s",
				trial, ast.String(), sc, got, want, p.Explain())
		}

		// Re-exec must be stable.
		again, err := p.Exec()
		if err != nil || !again.Equal(got) {
			t.Fatalf("trial %d: re-exec diverged (err=%v)", trial, err)
		}
	}
}

func TestPlannerScopePruningSkipsPostings(t *testing.T) {
	ix := index.New()
	ix.SetSealThreshold(8)
	for i := 0; i < 32; i++ {
		ix.Add(fmt.Sprintf("/big/f%d.txt", i), []byte("common"))
	}
	for i := 0; i < 4; i++ {
		ix.Add(fmt.Sprintf("/tiny/f%d.txt", i), []byte("common"))
	}
	env := &SnapEnv{Snap: ix.Snapshot()}
	p, err := Build(&query.Term{Text: "common"}, Scope{Prefix: "/tiny"}, env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("scoped search found %d docs, want 4", res.Len())
	}
	if p.Stats().PostingsSkipped < 32 {
		t.Fatalf("postings skipped = %d, want >= 32", p.Stats().PostingsSkipped)
	}
}

func TestPlannerOrdersAndCheapestFirst(t *testing.T) {
	ix := index.New()
	for i := 0; i < 100; i++ {
		content := "common"
		if i == 0 {
			content = "common needle"
		}
		ix.Add(fmt.Sprintf("/f%d.txt", i), []byte(content))
	}
	env := &SnapEnv{Snap: ix.Snapshot()}
	ast := &query.And{L: &query.Term{Text: "common"}, R: &query.Term{Text: "needle"}}
	p, err := Build(ast, Scope{}, env)
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	// needle (cost 1) must come before common (cost 100).
	if ni, ci := strings.Index(ex, "needle"), strings.Index(ex, "common"); ni < 0 || ci < 0 || ni > ci {
		t.Fatalf("AND not reordered cheapest-first:\n%s", ex)
	}
	res, err := p.Exec()
	if err != nil || res.Len() != 1 {
		t.Fatalf("exec: %v, len %d", err, res.Len())
	}
}

// TestPlannerPrefixFuzzySelectivity pins the cost model for prefix and
// fuzzy leaves: they get real estimates from the per-segment term
// dictionaries, so a selective prefix or fuzzy leaf now runs before a
// common bare term in an AND chain instead of always sorting last.
func TestPlannerPrefixFuzzySelectivity(t *testing.T) {
	for _, seal := range []int{4, 1 << 20} { // sealed dictionaries and active-only scan
		ix := index.New()
		ix.SetSealThreshold(seal)
		for i := 0; i < 100; i++ {
			content := "common"
			if i < 2 {
				content += " zygote"
			}
			if i < 3 {
				content += " alpka"
			}
			ix.Add(fmt.Sprintf("/f%d.txt", i), []byte(content))
		}
		env := &SnapEnv{Snap: ix.Snapshot()}

		if got := env.PrefixCost("zy"); got != 2 {
			t.Errorf("seal=%d: PrefixCost(zy) = %d, want 2", seal, got)
		}
		if got := env.PrefixCost("common"); got != 100 {
			t.Errorf("seal=%d: PrefixCost(common) = %d, want 100", seal, got)
		}
		if got := env.FuzzyCost("alpha"); got != 3 { // "alpka" is one edit away
			t.Errorf("seal=%d: FuzzyCost(alpha) = %d, want 3", seal, got)
		}
		if got := env.FuzzyCost("zzzzzzz"); got != 0 {
			t.Errorf("seal=%d: FuzzyCost(zzzzzzz) = %d, want 0", seal, got)
		}

		// The selective prefix leaf must be ordered before the common term.
		ast := &query.And{L: &query.Term{Text: "common"}, R: &query.Prefix{Text: "zy"}}
		p, err := Build(ast, Scope{}, env)
		if err != nil {
			t.Fatal(err)
		}
		ex := p.Explain()
		if pi, ci := strings.Index(ex, "zy"), strings.Index(ex, "common"); pi < 0 || ci < 0 || pi > ci {
			t.Fatalf("seal=%d: prefix leaf not ordered before common term:\n%s", seal, ex)
		}
		if strings.Contains(ex, "cost=scan") {
			t.Fatalf("seal=%d: prefix leaf still priced as scan:\n%s", seal, ex)
		}
		if res, err := p.Exec(); err != nil || res.Len() != 2 {
			t.Fatalf("seal=%d: exec: %v, len %d", seal, err, res.Len())
		}

		// Same for a selective fuzzy leaf.
		ast2 := &query.And{L: &query.Term{Text: "common"}, R: &query.Fuzzy{Text: "alpha"}}
		p2, err := Build(ast2, Scope{}, env)
		if err != nil {
			t.Fatal(err)
		}
		ex2 := p2.Explain()
		if fi, ci := strings.Index(ex2, "alpha"), strings.Index(ex2, "common"); fi < 0 || ci < 0 || fi > ci {
			t.Fatalf("seal=%d: fuzzy leaf not ordered before common term:\n%s", seal, ex2)
		}
	}
}

func TestCacheVersionInvalidation(t *testing.T) {
	c := NewCache(8)
	res := bitset.SegmentedOf(1, 2, 3)
	c.Put("k", res, 7, nil)
	if got, ok := c.Get("k", 7, nil); !ok || got.Len() != 3 {
		t.Fatalf("valid entry missed")
	}
	if _, ok := c.Get("k", 8, nil); ok {
		t.Fatalf("version-stale entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted")
	}
}

func TestCacheDepInvalidation(t *testing.T) {
	c := NewCache(8)
	c.Put("k", bitset.SegmentedOf(9), 1, []Dep{{UID: 42, Epoch: 1}})
	if _, ok := c.Get("k", 1, []Dep{{UID: 42, Epoch: 1}}); !ok {
		t.Fatalf("valid entry missed")
	}
	// The referenced directory's links changed.
	if _, ok := c.Get("k", 1, []Dep{{UID: 42, Epoch: 2}}); ok {
		t.Fatalf("dep-stale entry served")
	}
}

// TestCacheSharesOneImmutableSet: every hit is the very set that was
// Put — no copy on either side — and concurrent readers of one hit,
// racing Puts and evictions of other keys, only ever read it (run
// under -race: a mutation anywhere on the hit path is a data race).
func TestCacheSharesOneImmutableSet(t *testing.T) {
	c := NewCache(4)
	res := bitset.NewSegmented()
	for i := uint64(0); i < 6000; i++ {
		res.Add(i%3<<32 | i)
	}
	want := res.Clone()
	c.Put("k", res, 1, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, ok := c.Get("k", 1, nil)
				if !ok || got != res {
					t.Errorf("reader %d: hit = %p, %v; want the published set %p", g, got, ok, res)
					return
				}
				if n := len(got.AppendFrom(nil, uint64(i), 64)); n != 64 || got.CountFrom(0) != 6000 {
					t.Errorf("reader %d: page of %d from a %d-element hit", g, n, got.CountFrom(0))
					return
				}
				c.Put(fmt.Sprintf("other%d", (g+i)%3), bitset.SegmentedOf(uint64(i)), 1, nil)
			}
		}(g)
	}
	wg.Wait()
	if got, _ := c.Get("k", 1, nil); !got.Equal(want) {
		t.Fatalf("shared entry changed under its readers")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", bitset.SegmentedOf(1), 1, nil)
	c.Put("b", bitset.SegmentedOf(2), 1, nil)
	c.Get("a", 1, nil) // touch a; b is now oldest
	c.Put("c", bitset.SegmentedOf(3), 1, nil)
	if _, ok := c.Get("b", 1, nil); ok {
		t.Fatalf("LRU kept the least-recently-used entry")
	}
	if _, ok := c.Get("a", 1, nil); !ok {
		t.Fatalf("LRU evicted the recently-used entry")
	}
}
