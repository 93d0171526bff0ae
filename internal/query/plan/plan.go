// Package plan implements HAC's cost-based query evaluator. The naive
// query.Eval walks the AST left-to-right, materializes the full
// universe for every NOT, and evaluates dir:-scoped queries over all
// postings before filtering; this package plans first and evaluates
// second:
//
//   - the AST is normalized to negation normal form and AND/OR chains
//     are flattened into n-ary nodes;
//   - each leaf gets a selectivity estimate from segment statistics
//     (TermCost: posting cardinality; ScopeCost: the slots in the
//     scope's range of each segment's path order);
//   - AND chains re-order cheapest-first, so the accumulator shrinks as
//     early as possible and later intersections gallop over small
//     arrays instead of scanning dense bitmaps;
//   - negations execute as AndNot against the (already scope-bounded)
//     accumulator instead of materializing the universe;
//   - a syntactic scope pushes down into term lookups (LookupUnder),
//     touching only in-scope postings and skipping whole segments that
//     hold nothing under the scope root.
//
// The planned result is provably the naive result restricted to the
// scope: every rewrite preserves exec(n, scope) = Eval(n) ∧ scope,
// which the equivalence property tests in plan_test.go check across
// randomized queries and corpora.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"hacfs/internal/bitset"
	"hacfs/internal/query"
)

// Scope restricts evaluation to a subset of the document space.
// Prefix is a syntactic scope root ("" or "/" means unrestricted) and
// is pushed down into term lookups; Set is an explicit document set (a
// semantic directory's resolved scope), intersected with every result.
// Both may apply at once.
type Scope struct {
	Prefix string
	Set    *bitset.Segmented
}

// unrestricted reports whether the scope admits every document.
func (sc Scope) unrestricted() bool {
	return (sc.Prefix == "" || sc.Prefix == "/") && sc.Set == nil
}

// prefixRoot returns the effective syntactic root.
func (sc Scope) prefixRoot() string {
	if sc.Prefix == "" {
		return "/"
	}
	return sc.Prefix
}

// Env supplies the primitives a plan evaluates over: the naive
// query.Env surface plus the statistics and scoped lookups the cost
// model needs. SnapEnv adapts an index snapshot.
type Env interface {
	query.Env
	// TermUnder returns the live documents containing word whose path
	// lies under root, plus how many posting entries the scope pruning
	// skipped.
	TermUnder(word, root string) (*bitset.Segmented, int, error)
	// TermCost estimates the posting cardinality of word.
	TermCost(word string) int
	// PrefixCost estimates the total posting cardinality of terms with
	// the given prefix.
	PrefixCost(prefix string) int
	// FuzzyCost estimates the total posting cardinality of terms within
	// edit distance 1 of word.
	FuzzyCost(word string) int
	// DocsUnder returns the live documents under root.
	DocsUnder(root string) (*bitset.Segmented, error)
	// ScopeCost estimates how many documents lie under root.
	ScopeCost(root string) int
	// RefCost estimates the link-set size of a directory reference.
	RefCost(ref *query.DirRef) int
}

// costExpensive marks operators with no cheap selectivity estimate
// (negations, saturated OR chains); they sort last in an AND chain so
// the accumulator is already small when they run.
const costExpensive = 1 << 30

// node ops.
const (
	opAnd = iota
	opOr
	opNot
	opLeaf
)

// node is one planned operator. And/Or are n-ary after flattening; Not
// has exactly one child; Leaf wraps a Term/Prefix/Fuzzy/DirRef.
type node struct {
	op   int
	kids []*node
	leaf query.Node
	cost int
}

// Plan is a compiled, reusable evaluation plan for one query under one
// scope. Exec may be called repeatedly (e.g. against the same pinned
// snapshot); it is not safe for concurrent use.
type Plan struct {
	root     *node
	scope    Scope
	env      Env
	scopeSet *bitset.Segmented // memoized scope document set (exec.go)
	stats    Stats
	executed bool // Exec ran at least once; Explain shows its stats
}

// Stats describes what one Exec did.
type Stats struct {
	Leaves          int // leaf lookups evaluated
	PostingsSkipped int // posting entries scope pruning avoided
	CacheHit        bool
}

// Build compiles ast into a plan over env, restricted to scope. The
// ast is not modified.
func Build(ast query.Node, scope Scope, env Env) (*Plan, error) {
	if root := scope.prefixRoot(); root != "/" && env.ScopeCost(root) == env.ScopeCost("/") {
		// The prefix admits every document — a scope's path ranges keep
		// tombstoned slots, so the counts match exactly only when nothing
		// lies outside root. Drop it so term lookups take the
		// unscoped fast path instead of cloning full-segment containers.
		scope.Prefix = "/"
	}
	n, err := lower(ast, false, env)
	if err != nil {
		return nil, err
	}
	return &Plan{root: n, scope: scope, env: env}, nil
}

// lower converts a query AST to a planned node tree: De Morgan pushes
// negation down to the leaves (neg tracks parity), And/Or chains
// flatten, and every AND's children sort cheapest-first with negations
// last.
func lower(ast query.Node, neg bool, env Env) (*node, error) {
	switch x := ast.(type) {
	case *query.And:
		op := opAnd
		if neg { // NOT (a AND b) = NOT a OR NOT b
			op = opOr
		}
		l, err := lower(x.L, neg, env)
		if err != nil {
			return nil, err
		}
		r, err := lower(x.R, neg, env)
		if err != nil {
			return nil, err
		}
		return combine(op, l, r), nil
	case *query.Or:
		op := opOr
		if neg { // NOT (a OR b) = NOT a AND NOT b
			op = opAnd
		}
		l, err := lower(x.L, neg, env)
		if err != nil {
			return nil, err
		}
		r, err := lower(x.R, neg, env)
		if err != nil {
			return nil, err
		}
		return combine(op, l, r), nil
	case *query.Not:
		return lower(x.X, !neg, env)
	case *query.Term, *query.Prefix, *query.Fuzzy, *query.DirRef:
		n := &node{op: opLeaf, leaf: x, cost: leafCost(x, env)}
		if neg {
			return &node{op: opNot, kids: []*node{n}, cost: costExpensive}, nil
		}
		return n, nil
	default:
		return nil, fmt.Errorf("plan: unknown node type %T", ast)
	}
}

// combine builds an n-ary node, flattening children with the same op,
// and orders AND children for execution.
func combine(op int, kids ...*node) *node {
	n := &node{op: op}
	for _, k := range kids {
		if k.op == op {
			n.kids = append(n.kids, k.kids...)
		} else {
			n.kids = append(n.kids, k)
		}
	}
	if op == opAnd {
		orderAnd(n)
	}
	n.cost = naryCost(op, n.kids)
	return n
}

// orderAnd sorts an AND's children: positive children cheapest-first
// (the accumulator shrinks fastest), then negations (executed as
// AndNot against the shrunken accumulator), also cheapest-first. The
// sort is stable so equal-cost children keep source order, which keeps
// Explain output deterministic.
func orderAnd(n *node) {
	sort.SliceStable(n.kids, func(i, j int) bool {
		ni, nj := n.kids[i], n.kids[j]
		if (ni.op == opNot) != (nj.op == opNot) {
			return nj.op == opNot
		}
		return ni.cost < nj.cost
	})
}

func naryCost(op int, kids []*node) int {
	if len(kids) == 0 {
		return 0
	}
	switch op {
	case opAnd:
		// The chain costs what its most selective positive costs.
		best := costExpensive
		for _, k := range kids {
			if k.op != opNot && k.cost < best {
				best = k.cost
			}
		}
		return best
	case opOr:
		total := 0
		for _, k := range kids {
			if total += k.cost; total >= costExpensive {
				return costExpensive
			}
		}
		return total
	default:
		return costExpensive
	}
}

// leafCost prices a leaf by its estimated result cardinality. Prefix
// and fuzzy leaves get real estimates from the per-segment term
// dictionaries (index/dict.go) — summed posting cardinalities over the
// matching vocabulary range — so a selective prefix ("zyg*") now sorts
// before a common bare term in an AND chain instead of always last.
func leafCost(leaf query.Node, env Env) int {
	switch x := leaf.(type) {
	case *query.Term:
		return env.TermCost(x.Text)
	case *query.Prefix:
		return env.PrefixCost(x.Text)
	case *query.Fuzzy:
		return env.FuzzyCost(x.Text)
	case *query.DirRef:
		return env.RefCost(x)
	default:
		return costExpensive
	}
}

// Stats returns what the last Exec did.
func (p *Plan) Stats() Stats { return p.stats }

// Explain renders the plan as an indented tree with per-node cost
// estimates, for the shell's `explain` command and SearchResult.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scope: %s", p.scope.prefixRoot())
	if p.scope.Set != nil {
		fmt.Fprintf(&sb, " ∩ set(%d docs)", p.scope.Set.Len())
	} else if !p.scope.unrestricted() {
		fmt.Fprintf(&sb, " (≈%d docs)", p.env.ScopeCost(p.scope.prefixRoot()))
	}
	sb.WriteByte('\n')
	p.root.explain(&sb, 0)
	// Estimates above, reality below: once the plan has run, append what
	// the execution actually did, so a captured slow-query plan shows
	// both sides (a cache-served search never ran, and shows none).
	if p.executed {
		fmt.Fprintf(&sb, "exec: leaves=%d postings_skipped=%d\n",
			p.stats.Leaves, p.stats.PostingsSkipped)
	}
	return sb.String()
}

func (n *node) explain(sb *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n.op {
	case opAnd:
		fmt.Fprintf(sb, "%sAND %s\n", indent, costStr(n.cost))
	case opOr:
		fmt.Fprintf(sb, "%sOR %s\n", indent, costStr(n.cost))
	case opNot:
		fmt.Fprintf(sb, "%sNOT\n", indent)
	case opLeaf:
		fmt.Fprintf(sb, "%s%s %s\n", indent, n.leaf.String(), costStr(n.cost))
		return
	}
	for _, k := range n.kids {
		k.explain(sb, depth+1)
	}
}

func costStr(c int) string {
	if c >= costExpensive {
		return "(cost=scan)"
	}
	return fmt.Sprintf("(cost=%d)", c)
}
