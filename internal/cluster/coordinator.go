package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/obs"
	"hacfs/internal/remote"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// ShardConn is the coordinator's view of one replica connection. It is
// exactly the surface of *remote.BinClient, so the default dialer just
// returns one; tests substitute in-process fakes.
type ShardConn interface {
	SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) ([]string, uint64, uint64, error)
	Resync(ctx context.Context) error
	Status(ctx context.Context) (epoch, version uint64, docs int, err error)
	FetchContext(ctx context.Context, path string) ([]byte, error)
	PingContext(ctx context.Context) error
	Close() error
}

// Options configures a Coordinator.
type Options struct {
	// Name is the namespace name used when dialing shards.
	Name string
	// AllowPartial serves a search that lost a shard as a partial
	// result (annotated in the Explain plan, the trace and
	// cluster_partial_results_total) instead of failing it.
	AllowPartial bool
	// Timeout bounds each replica attempt; a replica that exceeds it is
	// marked down and the next replica is tried while the caller's own
	// context still stands. 0 means 5s.
	Timeout time.Duration
	// Cooldown is how long a failed replica is skipped before being
	// probed again. 0 means 2s.
	Cooldown time.Duration
	// PageSize is the per-shard fetch granularity for scatter paging.
	// 0 means 512.
	PageSize int
	// MaxCursors bounds the paged-search cursor table; the least
	// recently used cursor is evicted beyond it. 0 means 1024.
	MaxCursors int
	// ResyncStagger separates consecutive replica reindexes within one
	// shard during a rolling Resync, jittered by up to half its value so
	// shards do not thunder in lockstep. Replicas of a shard always
	// resync one at a time regardless; 0 just removes the pause between
	// them.
	ResyncStagger time.Duration
	// Observer receives metrics and spans (default obs.Default()).
	Observer *obs.Observer
	// Dial opens a connection to one replica of a shard. Nil dials the
	// binary protocol via remote.DialBin.
	Dial func(shard int, addr string) ShardConn
}

// replica is one dialed replica of a shard. downUntil is a unix-nano
// cooldown deadline: failed replicas are skipped until it passes.
type replica struct {
	addr      string
	conn      ShardConn
	downUntil atomic.Int64
}

// shardState is the live state of one shard: its replicas and the
// round-robin read-balancing counter.
type shardState struct {
	id       int
	replicas []*replica
	next     atomic.Uint32
}

// state pairs an immutable Map with the dialed shard connections; a
// reload swaps the whole state pointer.
type state struct {
	m      *Map
	shards map[int]*shardState
}

// Coordinator fans Search, Resync and Fetch out to the cluster's
// shards (DESIGN.md §14). It implements the remote server's backend
// interfaces, so `remote.NewServer(coord, …)` serves the whole cluster
// behind the ordinary single-node wire protocol — clients cannot tell
// a coordinator from a big shard, except that it is faster.
type Coordinator struct {
	opts    Options
	st      atomic.Pointer[state]
	gen     atomic.Uint64
	met     *metrics
	obsv    *obs.Observer
	cursors *cursorTable

	closeMu sync.Mutex
	closed  bool
}

// New builds a coordinator over the given shard map.
func New(m *Map, opts Options) *Coordinator {
	if opts.Observer == nil {
		opts.Observer = obs.Default()
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 2 * time.Second
	}
	if opts.PageSize <= 0 {
		opts.PageSize = 512
	}
	if opts.MaxCursors <= 0 {
		opts.MaxCursors = 1024
	}
	if opts.Name == "" {
		opts.Name = "cluster"
	}
	if opts.Dial == nil {
		opts.Dial = func(shard int, addr string) ShardConn {
			cl := remote.DialBin(opts.Name+"/"+strconv.Itoa(shard), addr)
			cl.SetObserver(opts.Observer)
			return cl
		}
	}
	c := &Coordinator{
		opts: opts,
		met:  newMetrics(opts.Observer),
		obsv: opts.Observer,
	}
	c.cursors = newCursorTable(opts.MaxCursors, c.met.cursorsActive)
	c.install(m, nil)
	return c
}

// install swaps in a new map, reusing connections for replicas that
// persist (their cooldown state survives too) and closing dropped
// ones.
func (c *Coordinator) install(m *Map, old *state) {
	m.gen = c.gen.Add(1)
	ns := &state{m: m, shards: make(map[int]*shardState, len(m.order))}
	reuse := make(map[string]*replica)
	if old != nil {
		for _, sh := range old.shards {
			for _, r := range sh.replicas {
				reuse[replicaKey(sh.id, r.addr)] = r
			}
		}
	}
	for _, id := range m.order {
		sh := &shardState{id: id}
		for _, addr := range m.shards[id].Replicas {
			if r, ok := reuse[replicaKey(id, addr)]; ok {
				sh.replicas = append(sh.replicas, r)
				delete(reuse, replicaKey(id, addr))
				continue
			}
			sh.replicas = append(sh.replicas, &replica{addr: addr, conn: c.opts.Dial(id, addr)})
		}
		ns.shards[id] = sh
	}
	c.st.Store(ns)
	for _, r := range reuse {
		r.conn.Close()
	}
}

func replicaKey(shard int, addr string) string { return strconv.Itoa(shard) + "|" + addr }

// Reload swaps in a new shard map. In-flight searches finish against
// the state they started with; live paged cursors resume as long as
// their shard IDs survive the reload.
func (c *Coordinator) Reload(m *Map) {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return
	}
	c.install(m, c.st.Load())
}

// Map returns the current shard map.
func (c *Coordinator) Map() *Map { return c.st.Load().m }

// Close tears down every replica connection.
func (c *Coordinator) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	st := c.st.Load()
	for _, sh := range st.shards {
		for _, r := range sh.replicas {
			r.conn.Close()
		}
	}
	return nil
}

// shardPath names a shard in a *vfs.PathError.
func shardPath(id int) string { return "shard/" + strconv.Itoa(id) }

// unavailable builds the typed error for a shard no replica answered
// for.
func unavailable(op string, shard int, last error) error {
	err := error(vfs.ErrShardUnavailable)
	if last != nil {
		err = fmt.Errorf("%w: last replica error: %w", vfs.ErrShardUnavailable, last)
	}
	return &vfs.PathError{Op: op, Path: shardPath(shard), Err: err}
}

// retryable reports whether a failed replica attempt should fail over
// to the next replica. A *vfs.PathError or *wire.RemoteError means
// the shard answered — same index, same answer elsewhere — so the
// error is terminal; everything else (dial failures, broken
// connections, per-attempt timeouts) is the replica's fault, not the
// shard's, as long as the caller's own context still stands.
func retryable(parent context.Context, err error) bool {
	if parent.Err() != nil {
		return false
	}
	var pe *vfs.PathError
	if errors.As(err, &pe) {
		return false
	}
	var re *wire.RemoteError
	return !errors.As(err, &re)
}

// callShard runs fn against one replica of the shard, failing over
// across replicas: round-robin start for read balancing, cooldown
// skipping for known-down replicas (retried as a last resort), a
// per-attempt timeout so one hung replica cannot consume the caller's
// whole deadline. Returns the replica that answered and how many
// failovers it took.
func (c *Coordinator) callShard(ctx context.Context, st *state, shard int, op string, fn func(context.Context, ShardConn) error) (addr string, failovers int, err error) {
	sh, ok := st.shards[shard]
	if !ok || len(sh.replicas) == 0 {
		return "", 0, unavailable(op, shard, nil)
	}
	n := len(sh.replicas)
	start := int(sh.next.Add(1)-1) % n
	var lastErr error
	attempts := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			r := sh.replicas[(start+i)%n]
			down := time.Now().UnixNano() < r.downUntil.Load()
			if (pass == 0) == down { // pass 0: healthy replicas; pass 1: cooled-down ones
				continue
			}
			if attempts > 0 {
				failovers++
				c.met.failovers(shard).Add(1)
			}
			attempts++
			actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
			err := fn(actx, r.conn)
			cancel()
			if err == nil {
				r.downUntil.Store(0)
				return r.addr, failovers, nil
			}
			lastErr = err
			if !retryable(ctx, err) {
				return r.addr, failovers, err
			}
			r.downUntil.Store(time.Now().Add(c.opts.Cooldown).UnixNano())
		}
	}
	return "", failovers, unavailable(op, shard, lastErr)
}

// shardSlice is one shard's contribution to a scatter.
type shardSlice struct {
	shard     int
	replica   string
	paths     []string
	epoch     uint64
	dur       time.Duration
	failovers int
	err       error
}

// scatterReport describes one scatter-gather run, for Explain and
// trace annotation.
type scatterReport struct {
	Query     string
	Scope     string
	Gen       uint64
	Targets   []int
	Routed    bool // structure-aware routing (no hash fallback in play)
	Slices    []shardSlice
	Partial   []int
	Straggler time.Duration
	Merged    int
	Dups      int
}

// scatter fans one search out to every target shard concurrently, each
// shard draining its full result through cursor pages with replica
// failover, and waits for all of them.
func (c *Coordinator) scatter(ctx context.Context, st *state, q, scope string, targets []int) []shardSlice {
	slices := make([]shardSlice, len(targets))
	var wg sync.WaitGroup
	for i, shard := range targets {
		wg.Add(1)
		go func(i, shard int) {
			defer wg.Done()
			sl := &slices[i]
			sl.shard = shard
			sp, sctx := c.obsv.Tracer().StartCtx(ctx, "cluster.shard")
			sp.Annotate("shard", strconv.Itoa(shard))
			begin := time.Now()
			sl.replica, sl.failovers, sl.err = c.callShard(sctx, st, shard, "cluster.search",
				func(actx context.Context, conn ShardConn) error {
					var all []string
					after := uint64(0)
					for {
						paths, next, epoch, err := conn.SearchPageUnder(actx, q, scope, after, c.opts.PageSize)
						if err != nil {
							return err
						}
						all = append(all, paths...)
						sl.epoch = epoch
						if next == 0 {
							break
						}
						after = next
					}
					sl.paths = all
					return nil
				})
			sl.dur = time.Since(begin)
			c.met.shardSeconds(shard).Observe(sl.dur.Seconds())
			sp.FinishErr(sl.err)
		}(i, shard)
	}
	wg.Wait()
	return slices
}

// gather merges the shard slices: paths dedup across shards with the
// owner's copy winning (the cluster-level analogue of single-node
// provenance-chain canonicalization — after a reroute both the old and
// the new owner may briefly hold a document), and the accepted set is
// tracked in a bitset.Segmented whose segment IDs are the shard IDs,
// mirroring the single-node DocID space.
func (c *Coordinator) gather(st *state, rep *scatterReport) ([]string, error) {
	owner := make(map[string]int)
	res := bitset.NewSegmented()
	ordinals := make(map[int]uint32)
	for _, sl := range rep.Slices {
		if sl.err != nil {
			if !c.opts.AllowPartial {
				c.met.searchErrors.Add(1)
				return nil, sl.err
			}
			rep.Partial = append(rep.Partial, sl.shard)
			continue
		}
		if sl.dur > rep.Straggler {
			rep.Straggler = sl.dur
		}
		for _, p := range sl.paths {
			if prev, dup := owner[p]; dup {
				rep.Dups++
				if st.m.Route(p) == sl.shard && prev != sl.shard {
					owner[p] = sl.shard
				}
				continue
			}
			owner[p] = sl.shard
			res.Add(uint64(sl.shard)<<32 | uint64(ordinals[sl.shard]))
			ordinals[sl.shard]++
		}
	}
	if len(rep.Partial) > 0 {
		c.met.partials.Add(1)
	}
	if rep.Dups > 0 {
		c.met.dupsDropped.Add(int64(rep.Dups))
	}
	out := make([]string, 0, res.Len())
	for p := range owner {
		out = append(out, p)
	}
	sort.Strings(out)
	rep.Merged = len(out)
	c.met.stragglerSecs.Observe(rep.Straggler.Seconds())
	return out, nil
}

// searchScatter is the full scatter-gather search: route, fan out,
// merge.
func (c *Coordinator) searchScatter(ctx context.Context, q, scope string) (_ []string, rep *scatterReport, err error) {
	st := c.st.Load()
	targets, routed := st.m.RouteScope(scope)
	rep = &scatterReport{Query: q, Scope: scope, Gen: st.m.gen, Targets: targets, Routed: routed}
	c.met.searches.Add(1)
	c.met.fanoutWidth.Observe(float64(len(targets)))
	sp, ctx := c.obsv.Tracer().StartCtx(ctx, "cluster.search")
	sp.Annotate("query", q)
	sp.Annotate("scope", scope)
	sp.Annotate("fanout", strconv.Itoa(len(targets)))
	defer func() {
		if len(rep.Partial) > 0 {
			sp.Annotate("partial", fmt.Sprint(rep.Partial))
		}
		sp.FinishErr(err)
	}()
	rep.Slices = c.scatter(ctx, st, q, scope, targets)
	out, err := c.gather(st, rep)
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// SearchUnder is the unpaged scatter-gather search restricted to a
// scope subtree ("/" = cluster-wide), with the caller's context
// propagated to every shard.
func (c *Coordinator) SearchUnder(ctx context.Context, q, scope string) ([]string, error) {
	out, _, err := c.searchScatter(ctx, q, scope)
	return out, err
}

// Fetch implements remote.Backend: route the path to its owning shard
// and fetch from any replica.
func (c *Coordinator) Fetch(path string) ([]byte, error) {
	return c.FetchContext(context.Background(), path)
}

// FetchContext fetches one document from the shard that owns its path.
func (c *Coordinator) FetchContext(ctx context.Context, path string) (data []byte, err error) {
	st := c.st.Load()
	shard := st.m.Route(path)
	_, _, err = c.callShard(ctx, st, shard, "cluster.fetch", func(actx context.Context, conn ShardConn) error {
		var ferr error
		data, ferr = conn.FetchContext(actx, path)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Resync implements remote.Resyncer: reindex every replica of every
// shard (replicas are independent daemons, each owning its own index).
// Shards proceed concurrently, but within a shard replicas resync one
// at a time, separated by the jittered ResyncStagger pause — at most
// one replica per shard is rebuilding its index at any moment, so the
// shard's remaining replicas keep answering searches through the
// rolling reindex. The first failure is reported; the rolling wave
// still visits every replica.
func (c *Coordinator) Resync(ctx context.Context) (err error) {
	sp, ctx := c.obsv.Tracer().StartCtx(ctx, "cluster.resync")
	defer func() { sp.FinishErr(err) }()
	c.met.resyncs.Add(1)
	st := c.st.Load()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(shard int, addr string, rerr error) {
		select {
		case errs <- &vfs.PathError{Op: "cluster.resync", Path: shardPath(shard) + "/" + addr, Err: rerr}:
		default:
		}
	}
	for _, id := range st.m.order {
		wg.Add(1)
		go func(shard int, replicas []*replica) {
			defer wg.Done()
			for i, r := range replicas {
				if i > 0 {
					if werr := c.staggerWait(ctx); werr != nil {
						report(shard, r.addr, werr)
						return
					}
				}
				c.met.resyncActive.Add(1)
				// Resync has no per-attempt timeout: a full reindex is
				// legitimately slow, so only the caller's context bounds it.
				rerr := r.conn.Resync(ctx)
				c.met.resyncActive.Add(-1)
				if rerr != nil {
					report(shard, r.addr, rerr)
				}
			}
		}(id, st.shards[id].replicas)
	}
	wg.Wait()
	select {
	case err = <-errs:
		return err
	default:
		return nil
	}
}

// staggerWait pauses between two replicas of a rolling resync: the
// configured stagger plus up to 50% random jitter, cut short by ctx.
func (c *Coordinator) staggerWait(ctx context.Context) error {
	d := c.opts.ResyncStagger
	if d <= 0 {
		return ctx.Err()
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status implements remote.StatusBackend, aggregating across shards:
// the epoch is the minimum over shards (the weakest pin a cluster-wide
// query can rely on), version and document count are sums. Best
// effort — unreachable shards contribute nothing.
func (c *Coordinator) Status() (epoch, version uint64, docs int) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	st := c.st.Load()
	first := true
	for _, id := range st.m.order {
		var e, v uint64
		var d int
		_, _, err := c.callShard(ctx, st, id, "cluster.status", func(actx context.Context, conn ShardConn) error {
			var serr error
			e, v, d, serr = conn.Status(actx)
			return serr
		})
		if err != nil {
			continue
		}
		if first || e < epoch {
			epoch = e
		}
		first = false
		version += v
		docs += d
	}
	return epoch, version, docs
}

// Ping checks that at least one replica of every shard answers.
func (c *Coordinator) Ping(ctx context.Context) error {
	st := c.st.Load()
	for _, id := range st.m.order {
		if _, _, err := c.callShard(ctx, st, id, "cluster.ping", func(actx context.Context, conn ShardConn) error {
			return conn.PingContext(actx)
		}); err != nil {
			return err
		}
	}
	return nil
}

// ExplainSearch runs a scatter-gather search and renders the cluster
// execution plan: routing decision, per-shard slice (replica, epoch,
// latency, failovers), partial-result mode, merge statistics.
func (c *Coordinator) ExplainSearch(ctx context.Context, q, scope string) (string, error) {
	_, rep, err := c.searchScatter(ctx, q, scope)
	if err != nil {
		return "", err
	}
	return rep.render(), nil
}

func (rep *scatterReport) render() string {
	var b []byte
	mode := "hash+routes"
	if rep.Routed {
		mode = "routed"
	}
	b = fmt.Appendf(b, "cluster: scope=%s gen=%d fanout=%d mode=%s\n",
		rep.Scope, rep.Gen, len(rep.Targets), mode)
	for _, sl := range rep.Slices {
		if sl.err != nil {
			b = fmt.Appendf(b, "  shard %d: unavailable (%v)\n", sl.shard, sl.err)
			continue
		}
		b = fmt.Appendf(b, "  shard %d: replica=%s paths=%d epoch=%d failovers=%d %s\n",
			sl.shard, sl.replica, len(sl.paths), sl.epoch, sl.failovers, sl.dur.Round(time.Microsecond))
	}
	b = fmt.Appendf(b, "merged: %d paths (%d duplicates dropped), straggler %s\n",
		rep.Merged, rep.Dups, rep.Straggler.Round(time.Microsecond))
	if len(rep.Partial) > 0 {
		b = fmt.Appendf(b, "mode: PARTIAL — shards %v unavailable, results incomplete\n", rep.Partial)
	}
	return string(b)
}
