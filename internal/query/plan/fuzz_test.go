package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hacfs/internal/bitset"
	"hacfs/internal/index"
	"hacfs/internal/index/indextest"
	"hacfs/internal/query"
)

// FuzzPlanVsEval is the always-on companion of the model check: a
// generated query, executed by the planner over a snapshot of a real
// (segmented, churned, sometimes merged) index, must name exactly the
// paths that the naive query.Eval finds over indextest.Model — a map
// from path to words that knows nothing of segments, IDs, containers,
// cost estimates or scope pushdown. The seed picks the corpus and its
// history, the program bytes the query and its scope.

var (
	fuzzWords   = []string{"alpha", "alpka", "alph", "beta", "betas", "gamma", "gamut", "delta", "rare"}
	fuzzProbes  = []string{"alpha", "alpah", "bet", "gamm", "zzz", "rare"} // terms, prefixes and fuzzy texts to ask for
	fuzzDirs    = []string{"/a", "/a/x", "/b", "/b/y", "/c"}
	fuzzRefUIDs = []uint64{1, 2, 3}
)

// fuzzCorpus applies one seeded history to an index and the model.
func fuzzCorpus(rng *rand.Rand) (*index.Index, indextest.Model) {
	ix, m := index.New(), indextest.Model{}
	ix.SetSealThreshold(1 + rng.Intn(24))
	add := func(p string) {
		words := []string{"every"}
		for _, w := range fuzzWords {
			if rng.Intn(3) == 0 {
				words = append(words, w)
			}
		}
		c := strings.Join(words, " ")
		ix.Add(p, []byte(c))
		m.Add(p, c)
	}
	files := 10 + rng.Intn(60)
	for i := 0; i < files; i++ {
		add(fmt.Sprintf("%s/f%02d.txt", fuzzDirs[rng.Intn(len(fuzzDirs))], i))
	}
	for i := 0; i < files/3; i++ {
		paths := m.All()
		sort.Strings(paths)
		p := paths[rng.Intn(len(paths))]
		switch rng.Intn(4) {
		case 0:
			ix.Remove(p)
			delete(m, p)
		case 1:
			to := fmt.Sprintf("/c/moved%02d.txt", i)
			ix.RenamePath(p, to)
			m.Rename(p, to)
		case 2:
			add(p)
		default:
			ix.ForceMerge()
		}
	}
	return ix, m
}

// modelEnv is query.Env over the model: a document's ID is its rank in
// the sorted path list.
type modelEnv struct {
	m     indextest.Model
	paths []string // sorted
	refs  map[uint64][]string
}

func (e *modelEnv) set(paths []string) (*bitset.Segmented, error) {
	out := bitset.NewSegmented()
	for _, p := range paths {
		out.Add(uint64(sort.SearchStrings(e.paths, p)))
	}
	return out, nil
}

func (e *modelEnv) Term(w string) (*bitset.Segmented, error)   { return e.set(e.m.Term(w)) }
func (e *modelEnv) Prefix(p string) (*bitset.Segmented, error) { return e.set(e.m.Prefix(p)) }
func (e *modelEnv) Fuzzy(w string) (*bitset.Segmented, error)  { return e.set(e.m.Fuzzy(w)) }
func (e *modelEnv) Universe() (*bitset.Segmented, error)       { return e.set(e.paths) }
func (e *modelEnv) DirRef(r *query.DirRef) (*bitset.Segmented, error) {
	return e.set(e.refs[r.UID])
}

// fuzzAST decodes a query from program bytes — one byte per operator,
// one more per leaf; an exhausted program reads as zeros, so every input
// is a query.
func fuzzAST(prog *[]byte, depth int) query.Node {
	next := func() int {
		if len(*prog) == 0 {
			return 0
		}
		b := (*prog)[0]
		*prog = (*prog)[1:]
		return int(b)
	}
	op := next() % 8
	if depth == 0 {
		op %= 5
	}
	switch op {
	case 5:
		return &query.And{L: fuzzAST(prog, depth-1), R: fuzzAST(prog, depth-1)}
	case 6:
		return &query.Or{L: fuzzAST(prog, depth-1), R: fuzzAST(prog, depth-1)}
	case 7:
		return &query.Not{X: fuzzAST(prog, depth-1)}
	}
	arg := next()
	probe := fuzzProbes[arg%len(fuzzProbes)]
	switch op {
	case 2:
		return &query.Prefix{Text: probe[:1+arg%3]}
	case 3:
		return &query.Fuzzy{Text: probe}
	case 4:
		return &query.DirRef{UID: fuzzRefUIDs[arg%len(fuzzRefUIDs)]}
	default:
		return &query.Term{Text: probe}
	}
}

func FuzzPlanVsEval(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 5, 0, 0, 7, 3, 1})                 // dir: scope; alpha AND NOT ~alpah
	f.Add(int64(3), []byte{0, 6, 2, 8, 5, 4, 1, 1, 2})           // unscoped; bet* OR (dir:#2 AND bet)
	f.Add(int64(4), []byte{10, 7, 7, 6, 0, 5, 3, 3})             // set scope; NOT NOT (rare OR ~gamm)
	f.Add(int64(5), []byte{15, 5, 5, 0, 0, 2, 3, 7, 4, 0, 0, 4}) // both scopes, nested ANDs
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		rng := rand.New(rand.NewSource(seed))
		ix, m := fuzzCorpus(rng)
		snap := ix.Snapshot()
		paths := m.All()
		sort.Strings(paths)
		menv := &modelEnv{m: m, paths: paths, refs: map[uint64][]string{}}
		env := &SnapEnv{Snap: snap, Refs: map[uint64]*bitset.Segmented{}}
		for _, uid := range fuzzRefUIDs {
			for _, p := range paths {
				if rng.Intn(3) == 0 {
					menv.refs[uid] = append(menv.refs[uid], p)
				}
			}
			env.Refs[uid] = snap.IDsOf(menv.refs[uid])
		}

		// The first program byte picks the scope: a dir: prefix (a file
		// path included), a semantic scope set, both or neither.
		sel := 0
		if len(prog) > 0 {
			sel, prog = int(prog[0]), prog[1:]
		}
		sc, root, inSet := Scope{}, "/", paths
		if sel&1 != 0 {
			roots := append(append([]string{}, fuzzDirs...), "/nowhere", paths[(sel>>2)%len(paths)])
			root = roots[(sel>>2)%len(roots)]
			sc.Prefix = root
		}
		if sel&2 != 0 {
			inSet = menv.refs[fuzzRefUIDs[(sel>>2)%len(fuzzRefUIDs)]]
			sc.Set = snap.IDsOf(inSet)
		}
		ast := fuzzAST(&prog, 4)

		res, err := query.Eval(ast, menv)
		if err != nil {
			t.Fatal(err)
		}
		scope, _ := menv.set(indextest.Under(inSet, root))
		res.And(scope)
		want := []string{}
		res.Range(func(id uint64) bool {
			want = append(want, paths[id])
			return true
		})

		p, err := Build(ast, sc, env)
		if err != nil {
			t.Fatalf("build %s: %v", ast, err)
		}
		set, err := p.Exec()
		if err != nil {
			t.Fatalf("exec %s: %v", ast, err)
		}
		got := snap.Paths(set)
		if len(got) != set.Len() {
			t.Fatalf("%s: result holds %d ids but %d live paths", ast, set.Len(), len(got))
		}
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("seed %d, %s under %q (set scope %v):\nplanner %v\n  model %v\nplan:\n%s",
				seed, ast, sc.Prefix, sc.Set != nil, got, want, p.Explain())
		}
	})
}
