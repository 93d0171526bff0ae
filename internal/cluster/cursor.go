package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
)

// Composite paged cursors (DESIGN.md §14). A single-node cursor is a
// DocID — stateless, resumable against any snapshot. A cluster page
// spans N shards, each with its own DocID space, so the composite
// cursor is a handle into a bounded coordinator-side table holding one
// sub-cursor per target shard: the shard's own stateless cursor, its
// buffered unread paths, and the epoch it is pinned against. Pages
// drain shard-major (all of shard A, then shard B, …), which keeps a
// cursor valid across shard-map reloads: sub-cursors name shard IDs,
// not replicas, and are re-resolved against the live state each call.
// This is the one cluster merge: a path two shards both report (a
// document mid-reroute) is served once, from the first shard to drain
// it.
//
// The table is bounded; the least recently used cursor is evicted
// first, and resuming an evicted (or never-issued) handle fails with a
// *vfs.PathError wrapping vfs.ErrInvalid — the same contract as a
// malformed single-node cursor.

// cursorShard is one shard's sub-cursor.
type cursorShard struct {
	shard int
	after uint64 // shard-local cursor for the next fetch
	epoch uint64 // epoch of the shard's first page
	buf   []string
	done  bool
}

// cursorState is one composite cursor.
type cursorState struct {
	mu      sync.Mutex
	q       string
	scope   string
	gen     uint64 // map generation at creation
	shards  []cursorShard
	cur     int             // shard currently draining
	seen    map[string]bool // accepted paths (cross-shard dedup)
	partial []int
	drift   bool // a shard's epoch moved mid-cursor (resync raced)

	lastUse atomic.Int64 // LRU tick
}

// shardFetch is one refill of a sub-cursor, as the Explain plan reports
// it: the replica that answered, the failovers it took and how long the
// whole attempt lasted.
type shardFetch struct {
	replica   string
	failovers int
	dur       time.Duration
	err       error
}

// fanout is a cursor's opening fan-out: the routing decision, one fetch
// per cursor shard and the slowest of them.
type fanout struct {
	routed    bool
	fetches   []shardFetch
	straggler time.Duration
}

// cursorTable is the bounded handle table.
type cursorTable struct {
	mu     sync.Mutex
	byID   map[uint64]*cursorState
	nextID uint64
	tick   int64
	max    int
	gauge  *obs.Gauge
}

func newCursorTable(max int, gauge *obs.Gauge) *cursorTable {
	return &cursorTable{byID: make(map[uint64]*cursorState), max: max, gauge: gauge}
}

func (t *cursorTable) put(cs *cursorState) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	t.tick++
	cs.lastUse.Store(t.tick)
	t.byID[id] = cs
	for len(t.byID) > t.max {
		var lruID uint64
		var lru int64 = 1<<63 - 1
		for id, s := range t.byID {
			if u := s.lastUse.Load(); u < lru {
				lru, lruID = u, id
			}
		}
		delete(t.byID, lruID)
	}
	t.gauge.Set(int64(len(t.byID)))
	return id
}

func (t *cursorTable) get(id uint64) (*cursorState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs, ok := t.byID[id]
	if ok {
		t.tick++
		cs.lastUse.Store(t.tick)
	}
	return cs, ok
}

func (t *cursorTable) drop(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byID, id)
	t.gauge.Set(int64(len(t.byID)))
}

// SearchPageUnder implements remote.Backend: one page of a
// scope-restricted cluster search. after == 0 opens a new composite
// cursor (scattering the first fetch to every target shard
// concurrently); a non-zero after resumes the cursor it named. The
// returned epoch is the minimum epoch across the cursor's shards — the
// weakest pin the composite result rests on.
func (c *Coordinator) SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) (paths []string, next uint64, epoch uint64, err error) {
	if limit <= 0 {
		limit = c.opts.PageSize
	}
	sp, ctx := c.obsv.Tracer().StartCtx(ctx, "cluster.searchpage")
	sp.Annotate("query", q)
	defer func() {
		if err != nil {
			c.met.searchErrors.Add(1)
		}
		sp.FinishErr(err)
	}()

	var cs *cursorState
	var handle uint64
	if after == 0 {
		cs, _, err = c.openCursor(ctx, q, scope)
		if err != nil {
			return nil, 0, 0, err
		}
	} else {
		var ok bool
		cs, ok = c.cursors.get(after)
		if !ok {
			return nil, 0, 0, &vfs.PathError{Op: "cluster.searchp", Path: scope, Err: vfs.ErrInvalid}
		}
		handle = after
	}

	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.q != q || cs.scope != scope {
		// The handle was minted for a different query; treat it like a
		// forged cursor rather than silently serving the wrong result.
		return nil, 0, 0, &vfs.PathError{Op: "cluster.searchp", Path: scope, Err: vfs.ErrInvalid}
	}
	out, exhausted, err := c.fillPage(ctx, cs, limit)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(cs.partial) > 0 {
		sp.Annotate("partial", "true")
		c.met.partials.Add(1)
	}
	if cs.drift {
		sp.Annotate("epoch_drift", "true")
	}
	epoch = cs.minEpoch()
	if exhausted {
		if handle != 0 {
			c.cursors.drop(handle)
		}
		return out, 0, epoch, nil
	}
	if handle == 0 {
		handle = c.cursors.put(cs)
	}
	return out, handle, epoch, nil
}

// openCursor scatters the first fetch of a new composite cursor to all
// target shards concurrently, and records the fan-out's slowest shard
// in cluster_straggler_seconds.
func (c *Coordinator) openCursor(ctx context.Context, q, scope string) (*cursorState, fanout, error) {
	st := c.st.Load()
	targets, routed := st.m.RouteScope(scope)
	c.met.searches.Add(1)
	c.met.fanoutWidth.Observe(float64(len(targets)))
	cs := &cursorState{q: q, scope: scope, gen: st.m.gen, shards: make([]cursorShard, len(targets))}
	for i, id := range targets {
		cs.shards[i].shard = id
	}
	fo := fanout{routed: routed, fetches: make([]shardFetch, len(cs.shards))}
	var wg sync.WaitGroup
	for i := range cs.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fo.fetches[i] = c.refill(ctx, st, cs, &cs.shards[i])
		}(i)
	}
	wg.Wait()
	for _, f := range fo.fetches {
		fo.straggler = max(fo.straggler, f.dur)
	}
	c.met.stragglerSecs.Observe(fo.straggler.Seconds())
	buffered := 0
	for i, f := range fo.fetches {
		sh := &cs.shards[i]
		buffered += len(sh.buf)
		if f.err == nil {
			continue
		}
		if !c.opts.AllowPartial {
			return nil, fo, f.err
		}
		cs.partial = append(cs.partial, sh.shard)
		sh.done = true
	}
	cs.seen = make(map[string]bool, buffered)
	return cs, fo, nil
}

// refill fetches the shard's next page into its buffer, with replica
// failover against the given state, and records the attempt in the
// shard's cluster_shard_seconds. It runs only once the buffer is
// drained, so the page the connection decoded becomes the buffer as it
// is. Caller holds cs.mu (or the cursor is not yet published).
func (c *Coordinator) refill(ctx context.Context, st *state, cs *cursorState, sh *cursorShard) shardFetch {
	first := sh.after == 0 && sh.epoch == 0 && !sh.done
	begin := time.Now()
	var f shardFetch
	f.replica, f.failovers, f.err = c.callShard(ctx, st, sh.shard, "cluster.searchp", func(actx context.Context, conn ShardConn) error {
		paths, next, epoch, ferr := conn.SearchPageUnder(actx, cs.q, cs.scope, sh.after, c.opts.PageSize)
		if ferr != nil {
			return ferr
		}
		sh.buf = paths
		sh.after = next
		sh.done = next == 0
		if first {
			sh.epoch = epoch
		} else if epoch != sh.epoch {
			cs.drift = true
		}
		return nil
	})
	f.dur = time.Since(begin)
	if ss, ok := st.shards[sh.shard]; ok {
		ss.seconds.Observe(f.dur.Seconds())
	}
	return f
}

// fillPage assembles up to limit paths, draining the sub-cursors
// shard-major and refilling each from the live cluster state as its
// buffer empties. Returns exhausted=true once every shard is drained.
// The page is sized to what is buffered, never to the client's limit
// alone.
func (c *Coordinator) fillPage(ctx context.Context, cs *cursorState, limit int) (out []string, exhausted bool, err error) {
	st := c.st.Load()
	buffered := 0
	for i := cs.cur; i < len(cs.shards); i++ {
		buffered += len(cs.shards[i].buf)
	}
	out = make([]string, 0, min(limit, buffered))
	for len(out) < limit {
		if cs.cur >= len(cs.shards) {
			return out, true, nil
		}
		sh := &cs.shards[cs.cur]
		if len(sh.buf) == 0 {
			if sh.done {
				cs.cur++
				continue
			}
			if f := c.refill(ctx, st, cs, sh); f.err != nil {
				if !c.opts.AllowPartial {
					return nil, false, f.err
				}
				cs.partial = append(cs.partial, sh.shard)
				sh.done = true
				continue
			}
			continue
		}
		p := sh.buf[0]
		sh.buf = sh.buf[1:]
		if cs.seen[p] {
			c.met.dupsDropped.Add(1)
			continue
		}
		cs.seen[p] = true
		out = append(out, p)
	}
	// Page full: exhausted only if nothing at all remains.
	for i := cs.cur; i < len(cs.shards); i++ {
		if len(cs.shards[i].buf) > 0 || !cs.shards[i].done {
			return out, false, nil
		}
	}
	return out, true, nil
}

// minEpoch returns the weakest epoch pin across the cursor's shards.
func (cs *cursorState) minEpoch() uint64 {
	var min uint64
	first := true
	for _, sh := range cs.shards {
		if sh.epoch == 0 {
			continue // never answered (partial)
		}
		if first || sh.epoch < min {
			min = sh.epoch
		}
		first = false
	}
	return min
}
