package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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

// shardState is the live state of one shard: its replicas, the
// round-robin read-balancing counter and its cluster_shard_seconds
// series, resolved once per map install.
type shardState struct {
	id       int
	replicas []*replica
	next     atomic.Uint32
	seconds  *obs.Histogram
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
		sh := &shardState{id: id, seconds: c.met.shardSeconds(id)}
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

// ExplainSearch runs the opening fan-out of a cluster search — the one
// every served search starts with — and renders it: the routing
// decision, per shard the replica that answered, its epoch, first-page
// size, latency and failovers, the straggler, and partial-result mode.
// The cursor it opens is not kept.
func (c *Coordinator) ExplainSearch(ctx context.Context, q, scope string) (string, error) {
	cs, fo, err := c.openCursor(ctx, q, scope)
	if err != nil {
		return "", err
	}
	mode := "hash+routes"
	if fo.routed {
		mode = "routed"
	}
	var b []byte
	b = fmt.Appendf(b, "cluster: scope=%s gen=%d fanout=%d mode=%s\n", scope, cs.gen, len(cs.shards), mode)
	for i, f := range fo.fetches {
		sh := &cs.shards[i]
		if f.err != nil {
			b = fmt.Appendf(b, "  shard %d: unavailable (%v)\n", sh.shard, f.err)
			continue
		}
		b = fmt.Appendf(b, "  shard %d: replica=%s epoch=%d first page=%d paths (more=%t) failovers=%d %s\n",
			sh.shard, f.replica, sh.epoch, len(sh.buf), !sh.done, f.failovers, f.dur.Round(time.Microsecond))
	}
	b = fmt.Appendf(b, "merge: shard-major composite cursor, first-seen dedup; straggler %s\n", fo.straggler.Round(time.Microsecond))
	if len(cs.partial) > 0 {
		b = fmt.Appendf(b, "mode: PARTIAL — shards %v unavailable, results incomplete\n", cs.partial)
	}
	return string(b), nil
}
