package hac

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/index"
	"hacfs/internal/obs"
	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs"
)

// DefaultPageSize is the page size SearchResult.Next uses unless
// WithPageSize overrides it.
const DefaultPageSize = 256

// SearchOption configures one Search call.
type SearchOption func(*searchConfig)

type searchConfig struct {
	scope    string
	pageSize int
	limit    int
	after    uint64
	noCache  bool
}

// WithScope restricts the search to the scope provided by path: a
// syntactic directory contributes its subtree, a semantic directory its
// current link targets (§2.3). The default scope is the root.
func WithScope(path string) SearchOption {
	return func(c *searchConfig) { c.scope = path }
}

// WithPageSize sets how many paths each SearchResult.Next call
// materializes (default DefaultPageSize; <= 0 means one page with
// everything).
func WithPageSize(n int) SearchOption {
	return func(c *searchConfig) { c.pageSize = n }
}

// WithLimit caps the total number of matches the result iterates over
// (<= 0, the default, means unlimited).
func WithLimit(n int) SearchOption {
	return func(c *searchConfig) { c.limit = n }
}

// WithAfter resumes iteration from a cursor previously returned by
// SearchResult.Cursor: only matches at or beyond the cursor position
// are returned. The zero cursor starts from the beginning.
func WithAfter(cursor uint64) SearchOption {
	return func(c *searchConfig) { c.after = cursor }
}

// WithoutCache bypasses the volume's query-result cache for this call,
// neither reading nor populating it.
func WithoutCache() SearchOption {
	return func(c *searchConfig) { c.noCache = true }
}

// SearchStats summarizes how one Search was answered.
type SearchStats struct {
	Matches         int  // total matches the result iterates over
	Cached          bool // answered from the query-result cache
	Leaves          int  // leaf lookups the plan evaluated (0 when cached)
	PostingsSkipped int  // posting entries scope pruning avoided
}

// SearchResult is a paged view over one search's matches: the match set
// the one evaluation produced (possibly the result cache's own, shared
// and never mutated) plus the index snapshot it was evaluated against.
// Pages materialize lazily — a Next call seeks no further into the set
// than its page and resolves only that page's paths — so every page of
// one result answers from the same evaluation however the volume moves
// meanwhile (a document removed since is skipped, not reported).
// Iteration order is document-ID order (stable for a given volume), not
// lexicographic. A SearchResult is not safe for concurrent use.
type SearchResult struct {
	snap      *index.Snapshot
	it        *bitset.SegmentedIter // positioned at the next match; nil when empty
	remaining int                   // matches not handed out yet
	ids       []index.DocID         // page buffer, reused by Next
	pageSize  int
	cursor    uint64
	plan      *plan.Plan
	stats     SearchStats
}

// Len returns the total number of matches (after cursor and limit).
func (r *SearchResult) Len() int { return r.stats.Matches }

// Next materializes the next page of matching paths off the pinned
// snapshot. It returns false when the result is exhausted.
func (r *SearchResult) Next() ([]string, bool) { return r.appendNext(nil) }

// appendNext is Next appending the page to dst.
func (r *SearchResult) appendNext(dst []string) ([]string, bool) {
	n := r.remaining
	if r.pageSize > 0 && r.pageSize < n {
		n = r.pageSize
	}
	if n == 0 {
		return dst, false
	}
	r.ids = r.it.Append(r.ids[:0], n)
	r.remaining -= n
	r.cursor = r.ids[n-1] + 1
	if dst == nil {
		dst = make([]string, 0, n)
	}
	return r.snap.AppendPathsOf(dst, r.ids), true
}

// More reports whether pages remain.
func (r *SearchResult) More() bool { return r.remaining > 0 }

// Cursor returns an opaque resume position: passing it to a new Search
// via WithAfter continues where iteration stopped, even across index
// mutations (matches that still exist keep their position).
func (r *SearchResult) Cursor() uint64 { return r.cursor }

// All drains the remaining pages into one slice, in iteration order.
func (r *SearchResult) All() []string {
	var out []string
	for {
		page, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, page...)
	}
}

// Plan returns the compiled evaluation plan (nil for an empty query).
func (r *SearchResult) Plan() *plan.Plan { return r.plan }

// Explain renders the evaluation plan with per-node cost estimates.
func (r *SearchResult) Explain() string {
	if r.plan == nil {
		return "empty query\n"
	}
	return r.plan.Explain()
}

// Stats returns how the search was answered.
func (r *SearchResult) Stats() SearchStats { return r.stats }

// Search evaluates an ad-hoc query without creating a semantic
// directory — the programmatic equivalent of running Glimpse directly,
// restricted to a HAC scope (WithScope). The query is compiled by the
// cost-based planner (package plan) and answered from the volume's
// epoch-keyed result cache when a previous identical search is still
// valid.
//
// The volume lock is held only while directory references are bound,
// the snapshot is pinned and semantic scopes are resolved to document
// sets; plan evaluation and path materialization run without it, so a
// long search no longer blocks mutations.
func (fs *FS) Search(ctx context.Context, queryStr string, opts ...SearchOption) (out *SearchResult, err error) {
	searchStart := time.Now()
	defer fs.met.searchSeconds.ObserveSince(searchStart)
	cfg := searchConfig{scope: "/", pageSize: DefaultPageSize}
	for _, o := range opts {
		o(&cfg)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// StartFrom, not StartCtx: nothing below Search starts spans of its
	// own, so re-wrapping the span into ctx would be pure overhead on
	// the serving hot path.
	var sp *obs.Span
	if cfg.scope != "/" {
		sp = fs.obsv.Tracer().StartFrom(ctx, "hac.Search", "query", queryStr, "scope", cfg.scope)
	} else {
		sp = fs.obsv.Tracer().StartFrom(ctx, "hac.Search", "query", queryStr)
	}
	defer func() {
		sp.FinishErr(err)
		// Over-threshold searches land in the slow-op log with the plan
		// that ran, so /debug/slow answers "which plan was that" after
		// the fact (capture cost is paid only once already slow).
		dur := time.Since(searchStart)
		if slow := fs.obsv.Slow(); slow.Over(dur) {
			op := obs.SlowOp{
				Op:     "hac.Search",
				Tenant: obs.TenantFromContext(ctx),
				Arg:    queryStr,
				Dur:    dur,
				Trace:  sp.Context().Trace,
			}
			if err != nil {
				op.Err = err.Error()
			}
			if out != nil && out.plan != nil {
				op.Detail = out.Explain()
			}
			slow.Record(op)
		}
	}()
	clean, err := vfs.Clean(cfg.scope)
	if err != nil {
		return nil, &vfs.PathError{Op: "search", Path: cfg.scope, Err: err}
	}
	ast, err := fs.parseQueryTimed(queryStr)
	if err != nil {
		return nil, err
	}
	if ast == nil {
		return &SearchResult{pageSize: cfg.pageSize, cursor: cfg.after}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fs.mu.RLock()
	b, err := fs.bindLocked(ast, clean)
	fs.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	p, err := fs.buildPlan(ast, b)
	if err != nil {
		return nil, err
	}

	// The key is the canonical bound query plus the scope's identity;
	// validity is the index version the entry was computed at plus the
	// link-set epoch of every directory it read.
	scopeKey := "p:" + clean
	if b.scopeUID != 0 {
		scopeKey = "u:" + strconv.FormatUint(b.scopeUID, 10)
	}
	key := ast.String() + "\x00" + scopeKey
	version := b.env.Snap.Version()
	var res *bitset.Segmented
	cached := false
	if !cfg.noCache {
		if res, cached = fs.qcache.Get(key, version, b.deps); cached {
			fs.met.planCacheHits.Add(1)
		} else {
			fs.met.planCacheMisses.Add(1)
		}
	}
	if !cached {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res, err = fs.execPlan(p); err != nil {
			return nil, err
		}
		if !cfg.noCache {
			// Published as is: the set is read-only from here on, for
			// this result as for every later hit (plan.Cache).
			fs.qcache.Put(key, res, version, b.deps)
		}
	}

	matches := res.CountFrom(cfg.after)
	if cfg.limit > 0 && matches > cfg.limit {
		matches = cfg.limit
	}
	st := p.Stats()
	return &SearchResult{
		snap:      b.env.Snap,
		it:        res.IterFrom(cfg.after),
		remaining: matches,
		pageSize:  cfg.pageSize,
		cursor:    cfg.after,
		plan:      p,
		stats: SearchStats{
			Matches:         matches,
			Cached:          cached,
			Leaves:          st.Leaves,
			PostingsSkipped: st.PostingsSkipped,
		},
	}, nil
}

// boundQuery is a query ready to plan: the snapshot it will run against
// with every directory reference resolved to a document set, the scope
// as the planner takes it, and the link-set epochs the answer depends
// on.
type boundQuery struct {
	env      *plan.SnapEnv
	scope    plan.Scope
	scopeUID uint64 // the scope directory's UID when it is semantic, else 0
	deps     []plan.Dep
}

// bindLocked is the one place a query meets the index and the directory
// state — under an ad-hoc Search and under every semantic-directory
// evaluation alike. It binds dir: paths in ast to UIDs, pins one index
// snapshot, resolves every referenced directory and the scope to the
// document set it provides (§2.3), and records the epochs of the link
// sets it read. scopePath "" is no scope at all: a directory whose
// query carries dir: references has chosen DAG-based scoping, and the
// paper leaves its scope entirely to the query. Everything a plan does
// afterwards runs off the snapshot alone. Caller holds fs.mu (read
// suffices: a stored query's references are already bound, so nothing
// is written).
func (fs *FS) bindLocked(ast query.Node, scopePath string) (boundQuery, error) {
	b := boundQuery{env: &plan.SnapEnv{Snap: fs.ix.Snapshot()}}
	refs := query.Refs(ast)
	if len(refs) > 0 {
		b.env.Refs = make(map[uint64]*bitset.Segmented, len(refs))
	}
	for _, ref := range refs {
		if ref.UID == 0 {
			rp, cerr := vfs.Clean(ref.Path)
			if cerr != nil {
				return b, &vfs.PathError{Op: "search", Path: "dir:" + ref.Path, Err: ErrDanglingRef}
			}
			uid, ok := fs.names.UIDOf(rp)
			if !ok {
				return b, &vfs.PathError{Op: "search", Path: "dir:" + rp, Err: ErrDanglingRef}
			}
			ref.UID = uid
		}
		if _, seen := b.env.Refs[ref.UID]; seen {
			continue
		}
		p, ok := fs.pathOfLocked(ref.UID)
		if !ok {
			return b, &vfs.PathError{Op: "search", Path: fmt.Sprintf("dir:#%d", ref.UID), Err: ErrDanglingRef}
		}
		b.env.Refs[ref.UID] = fs.providedScopeLocalLocked(b.env.Snap, p)
		b.deps = append(b.deps, plan.Dep{UID: ref.UID, Epoch: fs.scopeEpoch[ref.UID]})
	}
	b.scope = plan.Scope{Prefix: scopePath}
	if ds, ok := fs.stateAtLocked(scopePath); ok && ds.semantic {
		b.scope = plan.Scope{Set: fs.providedScopeLocalLocked(b.env.Snap, scopePath)}
		b.scopeUID = ds.uid
		b.deps = append(b.deps, plan.Dep{UID: ds.uid, Epoch: fs.scopeEpoch[ds.uid]})
	}
	return b, nil
}

// buildPlan compiles a bound query with the cost-based planner.
func (fs *FS) buildPlan(ast query.Node, b boundQuery) (*plan.Plan, error) {
	p, err := plan.Build(ast, b.scope, b.env)
	if err == nil {
		fs.met.plansBuilt.Add(1)
	}
	return p, err
}

// execPlan runs a plan against the snapshot it was bound to. It takes
// no volume lock.
func (fs *FS) execPlan(p *plan.Plan) (*bitset.Segmented, error) {
	start := time.Now()
	res, err := p.Exec()
	fs.met.queryEvalSeconds.ObserveSince(start)
	if err == nil {
		fs.met.postingsSkipped.Add(int64(p.Stats().PostingsSkipped))
	}
	return res, err
}

// SearchStream is the one paging entry point under every served search:
// it evaluates queryStr once (Search) and hands emit one page of at
// most pageSize paths (<= 0 = everything in one page) at a time, all
// from that evaluation, starting at cursor after (0 = the beginning)
// and stopping after maxPages pages (<= 0 = no budget). next is the
// cursor a later call resumes from — into a new evaluation — and 0 on
// the page that ends the result; a result with no matches is one empty
// page. Between pages the stream stops with ctx.Err() once ctx is done,
// and with emit's error as soon as emit returns one. Every page is
// handed over in the same slice: emit must be done with it — encoded,
// copied — when it returns.
func (fs *FS) SearchStream(ctx context.Context, queryStr, scopePath string, after uint64, pageSize, maxPages int, emit func(page []string, next uint64) error) error {
	res, err := fs.Search(ctx, queryStr, WithScope(scopePath), WithAfter(after), WithPageSize(pageSize))
	if err != nil {
		return err
	}
	var page []string
	for n := 1; ; n++ {
		page, _ = res.appendNext(page[:0])
		var next uint64
		if res.More() {
			next = res.Cursor()
		}
		if err := emit(page, next); err != nil {
			return err
		}
		if next == 0 || n == maxPages {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// SearchPageContext returns one page of matches starting at the given
// cursor (0 = first page) with at most limit paths (<= 0 = everything),
// plus the cursor for the next page — 0 when no pages remain: a
// SearchStream of one page.
func (fs *FS) SearchPageContext(ctx context.Context, queryStr, scopePath string, after uint64, limit int) (page []string, next uint64, err error) {
	err = fs.SearchStream(ctx, queryStr, scopePath, after, limit, 1, func(p []string, n uint64) error {
		page, next = p, n
		return nil
	})
	return page, next, err
}
