package plan

import (
	"hacfs/internal/bitset"
	"hacfs/internal/query"
)

// Exec evaluates the plan and returns the matching documents,
// restricted to the plan's scope. The result is owned by the caller.
//
// Every node maintains the invariant
//
//	exec(n) = query.Eval(n, env) ∧ scopeDocs
//
// which makes two shortcuts sound: an AND's negations run as AndNot
// against the accumulator (acc ⊆ scopeDocs, so subtracting the scoped
// or unscoped operand is the same set), and the complement base for a
// bare NOT is the scope's document set, not the whole universe.
func (p *Plan) Exec() (*bitset.Segmented, error) {
	p.stats = Stats{}
	p.executed = true
	return p.exec(p.root)
}

// scopeDocs materializes the scope's full document set, memoized for
// the lifetime of the plan: it is only needed by bare negations and
// non-term leaves, and as a range of each segment's path order it is
// O(scope), not O(corpus). The returned set is a clone.
func (p *Plan) scopeDocs() (*bitset.Segmented, error) {
	if p.scopeSet == nil {
		sc := p.scope
		base, err := p.env.DocsUnder(sc.prefixRoot())
		if err != nil {
			return nil, err
		}
		if sc.Set != nil {
			base.And(sc.Set)
		}
		p.scopeSet = base
	}
	return p.scopeSet.Clone(), nil
}

func (p *Plan) exec(n *node) (*bitset.Segmented, error) {
	switch n.op {
	case opLeaf:
		return p.execLeaf(n.leaf)
	case opNot:
		base, err := p.scopeDocs()
		if err != nil {
			return nil, err
		}
		if !base.Any() {
			return base, nil
		}
		v, err := p.exec(n.kids[0])
		if err != nil {
			return nil, err
		}
		base.AndNot(v)
		return base, nil
	case opOr:
		acc := bitset.NewSegmented()
		for _, k := range n.kids {
			v, err := p.exec(k)
			if err != nil {
				return nil, err
			}
			acc.Or(v)
		}
		return acc, nil
	case opAnd:
		return p.execAnd(n)
	}
	return nil, errUnknownOp
}

var errUnknownOp = &planError{"unknown plan operator"}

type planError struct{ msg string }

func (e *planError) Error() string { return "plan: " + e.msg }

// execAnd evaluates an n-ary AND: positive children first (already
// cost-ordered, so the accumulator shrinks as early as possible, and
// an empty accumulator short-circuits the rest), then negations as
// AndNot.
func (p *Plan) execAnd(n *node) (*bitset.Segmented, error) {
	var acc *bitset.Segmented
	for _, k := range n.kids {
		if k.op == opNot {
			continue
		}
		if acc != nil && !acc.Any() {
			return acc, nil
		}
		v, err := p.exec(k)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = v
		} else {
			acc.And(v)
		}
	}
	if acc == nil {
		// Pure negation: subtract from the scope's documents.
		base, err := p.scopeDocs()
		if err != nil {
			return nil, err
		}
		acc = base
	}
	for _, k := range n.kids {
		if k.op != opNot {
			continue
		}
		if !acc.Any() {
			return acc, nil
		}
		// acc ⊆ scopeDocs, so subtracting the scoped operand equals
		// subtracting the unscoped one.
		v, err := p.exec(k.kids[0])
		if err != nil {
			return nil, err
		}
		acc.AndNot(v)
	}
	return acc, nil
}

// execLeaf evaluates one primitive, scope applied. Terms push the
// syntactic scope down into the composite index; other primitives
// evaluate fully and intersect with the scope's document set.
func (p *Plan) execLeaf(leaf query.Node) (*bitset.Segmented, error) {
	p.stats.Leaves++
	sc := p.scope
	if t, ok := leaf.(*query.Term); ok {
		var res *bitset.Segmented
		if root := sc.prefixRoot(); root != "/" {
			r, skipped, err := p.env.TermUnder(t.Text, root)
			if err != nil {
				return nil, err
			}
			p.stats.PostingsSkipped += skipped
			res = r
		} else {
			r, err := p.env.Term(t.Text)
			if err != nil {
				return nil, err
			}
			res = r
		}
		if sc.Set != nil {
			res.And(sc.Set)
		}
		return res, nil
	}

	var res *bitset.Segmented
	var err error
	switch x := leaf.(type) {
	case *query.Prefix:
		res, err = p.env.Prefix(x.Text)
	case *query.Fuzzy:
		res, err = p.env.Fuzzy(x.Text)
	case *query.DirRef:
		res, err = p.env.DirRef(x)
	default:
		return nil, errUnknownOp
	}
	if err != nil {
		return nil, err
	}
	if !sc.unrestricted() && res.Any() {
		docs, err := p.scopeDocs()
		if err != nil {
			return nil, err
		}
		res.And(docs)
	}
	return res, nil
}
