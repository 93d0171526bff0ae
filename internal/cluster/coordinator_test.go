package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
)

// fakeConn is an in-process ShardConn over a fixed path list, with
// switchable failure modes.
type fakeConn struct {
	paths []string // sorted
	epoch uint64

	failDial   atomic.Bool // transport-style failure on every call
	hang       atomic.Bool // block until the per-attempt context expires
	typedErr   atomic.Pointer[vfs.PathError]
	calls      atomic.Int64
	lastQuery  atomic.Pointer[string]
	resyncHook atomic.Pointer[func(context.Context) error] // overrides Resync when set
}

func newFake(epoch uint64, paths ...string) *fakeConn {
	sort.Strings(paths)
	return &fakeConn{paths: paths, epoch: epoch}
}

func (f *fakeConn) gate(ctx context.Context) error {
	f.calls.Add(1)
	if f.failDial.Load() {
		return fmt.Errorf("dial tcp: connection refused")
	}
	if f.hang.Load() {
		<-ctx.Done()
		return ctx.Err()
	}
	if pe := f.typedErr.Load(); pe != nil {
		return pe
	}
	return nil
}

func (f *fakeConn) SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) ([]string, uint64, uint64, error) {
	if err := f.gate(ctx); err != nil {
		return nil, 0, 0, err
	}
	f.lastQuery.Store(&q)
	var in []string
	for _, p := range f.paths {
		if scope == "" || scope == "/" || vfs.HasPrefix(p, scope) {
			in = append(in, p)
		}
	}
	start := 0
	if after > 0 {
		start = int(after - 1)
	}
	if start >= len(in) {
		return nil, 0, f.epoch, nil
	}
	end := start + limit
	if limit <= 0 || end > len(in) {
		end = len(in)
	}
	next := uint64(0)
	if end < len(in) {
		next = uint64(end + 1)
	}
	return in[start:end], next, f.epoch, nil
}

func (f *fakeConn) Resync(ctx context.Context) error {
	if hook := f.resyncHook.Load(); hook != nil {
		return (*hook)(ctx)
	}
	return f.gate(ctx)
}

func (f *fakeConn) Status(ctx context.Context) (uint64, uint64, int, error) {
	if err := f.gate(ctx); err != nil {
		return 0, 0, 0, err
	}
	return f.epoch, 1, len(f.paths), nil
}

func (f *fakeConn) FetchContext(ctx context.Context, path string) ([]byte, error) {
	if err := f.gate(ctx); err != nil {
		return nil, err
	}
	for _, p := range f.paths {
		if p == path {
			return []byte("data:" + path), nil
		}
	}
	return nil, &vfs.PathError{Op: "fetch", Path: path, Err: vfs.ErrNotExist}
}

func (f *fakeConn) PingContext(ctx context.Context) error { return f.gate(ctx) }
func (f *fakeConn) Close() error                          { return nil }

// fleet wires a coordinator over fake replicas: conns[shard][replica].
func fleet(t *testing.T, mapText string, conns map[int][]*fakeConn, opts Options) *Coordinator {
	t.Helper()
	m, err := ParseMap(mapText)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[int]int)
	opts.Dial = func(shard int, addr string) ShardConn {
		i := idx[shard]
		idx[shard]++
		return conns[shard][i]
	}
	if opts.Observer == nil {
		opts.Observer = obs.NewObserver()
	}
	if opts.Timeout == 0 {
		opts.Timeout = 200 * time.Millisecond
	}
	if opts.Cooldown == 0 {
		opts.Cooldown = 10 * time.Millisecond
	}
	c := New(m, opts)
	t.Cleanup(func() { c.Close() })
	return c
}

// searchUnder drains a scope-restricted cluster search page by page
// into one slice — the unpaged result the scatter-gather tests assert.
func searchUnder(c *Coordinator, q, scope string) ([]string, error) {
	var out []string
	for after := uint64(0); ; {
		paths, next, _, err := c.SearchPageUnder(context.Background(), q, scope, after, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, paths...)
		if next == 0 {
			return out, nil
		}
		after = next
	}
}

const twoShards = "shard 0 a:1\nshard 1 b:1\nroute /s0 0\nroute /s1 1"

func TestScatterGatherMergesSorted(t *testing.T) {
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {newFake(3, "/s0/b.txt", "/s0/a.txt")},
		1: {newFake(5, "/s1/z.txt", "/s1/c.txt")},
	}, Options{PageSize: 1}) // force multi-page per-shard drains
	got, err := searchUnder(c, "q", "/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/s0/a.txt", "/s0/b.txt", "/s1/c.txt", "/s1/z.txt"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
}

func TestScopedSearchHitsOneShard(t *testing.T) {
	f0, f1 := newFake(1, "/s0/a.txt"), newFake(1, "/s1/b.txt")
	c := fleet(t, twoShards, map[int][]*fakeConn{0: {f0}, 1: {f1}}, Options{})
	got, err := searchUnder(c, "q", "/s1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"/s1/b.txt"}) {
		t.Fatalf("searchUnder = %v", got)
	}
	if f0.calls.Load() != 0 {
		t.Fatalf("scoped search touched out-of-scope shard 0 (%d calls)", f0.calls.Load())
	}
}

func TestEmptyShardMergesClean(t *testing.T) {
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {newFake(1)}, // holds nothing
		1: {newFake(1, "/s1/only.txt")},
	}, Options{})
	got, err := searchUnder(c, "q", "/")
	if err != nil || !reflect.DeepEqual(got, []string{"/s1/only.txt"}) {
		t.Fatalf("Search = %v, %v", got, err)
	}
}

func TestDuplicatePathCanonicalizes(t *testing.T) {
	// The same document reported by both shards (mid-reroute overlap):
	// it must appear exactly once.
	obsv := obs.NewObserver()
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {newFake(1, "/s0/dup.txt", "/s0/a.txt")},
		1: {newFake(1, "/s0/dup.txt", "/s1/b.txt")}, // stale copy on the wrong shard
	}, Options{Observer: obsv})
	got, err := searchUnder(c, "q", "/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/s0/a.txt", "/s0/dup.txt", "/s1/b.txt"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
	if n := obsv.Registry().Snapshot()["cluster_duplicates_dropped_total"]; n != 1 {
		t.Fatalf("duplicates_dropped = %v, want 1", n)
	}
}

func TestReplicaFailover(t *testing.T) {
	good := newFake(1, "/s0/a.txt")
	bad := newFake(1, "/s0/a.txt")
	bad.failDial.Store(true)
	obsv := obs.NewObserver()
	c := fleet(t, "shard 0 bad:1,good:1\nroute /s0 0", map[int][]*fakeConn{
		0: {bad, good},
	}, Options{Observer: obsv})
	// Run several searches so round-robin starts on the bad replica at
	// least once; every one must succeed.
	for i := 0; i < 4; i++ {
		if got, err := searchUnder(c, "q", "/"); err != nil || len(got) != 1 {
			t.Fatalf("search %d: %v, %v", i, got, err)
		}
	}
	if n := obsv.Registry().Snapshot()[`cluster_replica_failovers_total{shard="0"}`]; n < 1 {
		t.Fatalf("failovers = %v, want >= 1", n)
	}
}

func TestTypedShardErrorIsTerminal(t *testing.T) {
	// A typed error from the shard must NOT fail over (the shard
	// answered; another replica would answer the same) and must surface
	// unwrapped to the caller.
	r1 := newFake(1, "/s0/a.txt")
	r1.typedErr.Store(&vfs.PathError{Op: "search", Path: "/s0", Err: vfs.ErrQuotaExceeded})
	r2 := newFake(1, "/s0/a.txt")
	c := fleet(t, "shard 0 a:1,b:1\nroute /s0 0", map[int][]*fakeConn{0: {r1, r2}}, Options{})
	_, err := searchUnder(c, "q", "/s0")
	if !errors.Is(err, vfs.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want quota", err)
	}
	if r1.calls.Load()+r2.calls.Load() != 1 {
		t.Fatalf("typed error retried: %d+%d calls", r1.calls.Load(), r2.calls.Load())
	}
}

func TestAllReplicasDownIsShardUnavailable(t *testing.T) {
	r1, r2 := newFake(1, "/s0/a.txt"), newFake(1, "/s0/a.txt")
	r1.failDial.Store(true)
	r2.failDial.Store(true)
	c := fleet(t, "shard 0 a:1,b:1\nroute /s0 0", map[int][]*fakeConn{0: {r1, r2}}, Options{})
	_, err := searchUnder(c, "q", "/")
	if !errors.Is(err, vfs.ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	var pe *vfs.PathError
	if !errors.As(err, &pe) || pe.Path != "shard/0" {
		t.Fatalf("err = %#v, want *vfs.PathError naming shard/0", err)
	}
}

func TestPartialModeServesRemainingShards(t *testing.T) {
	down := newFake(1, "/s0/a.txt")
	down.failDial.Store(true)
	obsv := obs.NewObserver()
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {down},
		1: {newFake(1, "/s1/b.txt")},
	}, Options{AllowPartial: true, Observer: obsv})
	got, err := searchUnder(c, "q", "/")
	if err != nil || !reflect.DeepEqual(got, []string{"/s1/b.txt"}) {
		t.Fatalf("partial Search = %v, %v", got, err)
	}
	if n := obsv.Registry().Snapshot()["cluster_partial_results_total"]; n != 1 {
		t.Fatalf("partials = %v, want 1", n)
	}
	// The Explain plan must announce partial mode.
	plan, err := c.ExplainSearch(context.Background(), "q", "/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "PARTIAL") || !strings.Contains(plan, "shard 0: unavailable") {
		t.Fatalf("Explain lacks partial annotation:\n%s", plan)
	}
}

// TestExplainRendersOpeningFanout: the Explain plan is the served
// path's opening fan-out — routing mode, and per shard the replica that
// answered, its epoch and first page.
func TestExplainRendersOpeningFanout(t *testing.T) {
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {newFake(3, "/s0/a.txt", "/s0/b.txt", "/s0/c.txt")},
		1: {newFake(5, "/s1/x.txt")},
	}, Options{PageSize: 2})
	plan, err := c.ExplainSearch(context.Background(), "q", "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fanout=2 mode=hash+routes",
		"shard 0: replica=a:1 epoch=3 first page=2 paths (more=true)",
		"shard 1: replica=b:1 epoch=5 first page=1 paths (more=false)",
		"first-seen dedup",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("Explain lacks %q:\n%s", want, plan)
		}
	}
	if plan, err = c.ExplainSearch(context.Background(), "q", "/s1"); err != nil || !strings.Contains(plan, "fanout=1 mode=routed") {
		t.Fatalf("scoped Explain = %v:\n%s", err, plan)
	}
	if strings.Contains(plan, "PARTIAL") {
		t.Fatalf("Explain of a whole cluster announces partial mode:\n%s", plan)
	}
}

func TestOneShardTimeoutPartial(t *testing.T) {
	slow := newFake(1, "/s0/a.txt")
	slow.hang.Store(true)
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {slow},
		1: {newFake(1, "/s1/b.txt")},
	}, Options{AllowPartial: true, Timeout: 30 * time.Millisecond})
	got, err := searchUnder(c, "q", "/")
	if err != nil || !reflect.DeepEqual(got, []string{"/s1/b.txt"}) {
		t.Fatalf("timeout-partial Search = %v, %v", got, err)
	}
	// Without partial mode the straggler's loss is the query's loss.
	c2 := fleet(t, twoShards, map[int][]*fakeConn{
		0: {slow},
		1: {newFake(1, "/s1/b.txt")},
	}, Options{Timeout: 30 * time.Millisecond})
	if _, err := searchUnder(c2, "q", "/"); !errors.Is(err, vfs.ErrShardUnavailable) {
		t.Fatalf("strict mode err = %v, want ErrShardUnavailable", err)
	}
}

func TestPagedSearchDrainsShardMajor(t *testing.T) {
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {newFake(1, "/s0/a.txt", "/s0/b.txt", "/s0/c.txt")},
		1: {newFake(1, "/s1/x.txt", "/s1/y.txt")},
	}, Options{PageSize: 2})
	var all []string
	after := uint64(0)
	pages := 0
	for {
		paths, next, epoch, err := c.SearchPageUnder(context.Background(), "q", "/", after, 2)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 1 {
			t.Fatalf("epoch = %d, want 1", epoch)
		}
		all = append(all, paths...)
		pages++
		if next == 0 {
			break
		}
		after = next
	}
	want := []string{"/s0/a.txt", "/s0/b.txt", "/s0/c.txt", "/s1/x.txt", "/s1/y.txt"}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("paged drain = %v, want %v", all, want)
	}
	if pages < 3 {
		t.Fatalf("pages = %d, want >= 3", pages)
	}
}

func TestCursorResumeAfterReload(t *testing.T) {
	f0 := newFake(1, "/s0/a.txt", "/s0/b.txt", "/s0/c.txt", "/s0/d.txt")
	f1 := newFake(1, "/s1/x.txt", "/s1/y.txt")
	c := fleet(t, twoShards, map[int][]*fakeConn{0: {f0}, 1: {f1}}, Options{PageSize: 2})

	paths, next, _, err := c.SearchPageUnder(context.Background(), "q", "/", 0, 2)
	if err != nil || next == 0 {
		t.Fatalf("first page: %v next=%d err=%v", paths, next, err)
	}

	// Reload with the same shard IDs behind new replica addresses; the
	// live cursor must keep draining without loss or duplication.
	m2, err := ParseMap("shard 0 a2:1\nshard 1 b2:1\nroute /s0 0\nroute /s1 1")
	if err != nil {
		t.Fatal(err)
	}
	c.opts.Dial = func(shard int, addr string) ShardConn {
		return map[int]*fakeConn{0: f0, 1: f1}[shard]
	}
	c.Reload(m2)
	if c.Map().Generation() != 2 {
		t.Fatalf("generation = %d, want 2", c.Map().Generation())
	}

	all := append([]string(nil), paths...)
	after := next
	for after != 0 {
		paths, next, _, err := c.SearchPageUnder(context.Background(), "q", "/", after, 2)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, paths...)
		after = next
	}
	want := []string{"/s0/a.txt", "/s0/b.txt", "/s0/c.txt", "/s0/d.txt", "/s1/x.txt", "/s1/y.txt"}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("resumed drain = %v, want %v", all, want)
	}
}

func TestStaleCursorIsTypedInvalid(t *testing.T) {
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {newFake(1, "/s0/a.txt")},
		1: {newFake(1)},
	}, Options{})
	_, _, _, err := c.SearchPageUnder(context.Background(), "q", "/", 999, 10)
	var pe *vfs.PathError
	if !errors.As(err, &pe) || !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("stale cursor err = %v, want *vfs.PathError wrapping ErrInvalid", err)
	}
}

func TestCursorTableEviction(t *testing.T) {
	f := newFake(1, "/s0/a.txt", "/s0/b.txt", "/s0/c.txt")
	c := fleet(t, "shard 0 a:1\nroute /s0 0", map[int][]*fakeConn{0: {f}},
		Options{MaxCursors: 2, PageSize: 1})
	var handles []uint64
	for i := 0; i < 3; i++ {
		_, next, _, err := c.SearchPageUnder(context.Background(), "q", "/", 0, 1)
		if err != nil || next == 0 {
			t.Fatalf("open cursor %d: next=%d err=%v", i, next, err)
		}
		handles = append(handles, next)
	}
	// The oldest handle fell off the bounded table.
	if _, _, _, err := c.SearchPageUnder(context.Background(), "q", "/", handles[0], 1); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("evicted cursor err = %v, want ErrInvalid", err)
	}
	// The newest still resumes.
	if _, _, _, err := c.SearchPageUnder(context.Background(), "q", "/", handles[2], 1); err != nil {
		t.Fatalf("live cursor err = %v", err)
	}
}

func TestResyncFansToAllReplicas(t *testing.T) {
	r1, r2, r3 := newFake(1), newFake(1), newFake(1)
	c := fleet(t, "shard 0 a:1,b:1\nshard 1 c:1", map[int][]*fakeConn{
		0: {r1, r2},
		1: {r3},
	}, Options{})
	if err := c.Resync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r1.calls.Load() != 1 || r2.calls.Load() != 1 || r3.calls.Load() != 1 {
		t.Fatalf("resync calls = %d,%d,%d, want 1,1,1",
			r1.calls.Load(), r2.calls.Load(), r3.calls.Load())
	}
}

// A rolling resync keeps at most one replica per shard rebuilding at a
// time while independent shards proceed concurrently.
func TestResyncRollsOneReplicaPerShard(t *testing.T) {
	const perShard = 3
	conns := make(map[int][]*fakeConn)
	type shardTrack struct {
		active    atomic.Int64
		violation atomic.Bool
	}
	tracks := [2]*shardTrack{{}, {}}
	var overlapped atomic.Bool // did the two shards ever resync simultaneously?
	var totalActive atomic.Int64
	for shard := 0; shard < 2; shard++ {
		tr := tracks[shard]
		for i := 0; i < perShard; i++ {
			f := newFake(1)
			hook := func(context.Context) error {
				if tr.active.Add(1) > 1 {
					tr.violation.Store(true)
				}
				if totalActive.Add(1) > 1 {
					overlapped.Store(true)
				}
				time.Sleep(5 * time.Millisecond)
				totalActive.Add(-1)
				tr.active.Add(-1)
				f.calls.Add(1)
				return nil
			}
			f.resyncHook.Store(&hook)
			conns[shard] = append(conns[shard], f)
		}
	}
	c := fleet(t, "shard 0 a:1,b:1,c:1\nshard 1 d:1,e:1,f:1", conns, Options{})
	if err := c.Resync(context.Background()); err != nil {
		t.Fatal(err)
	}
	for shard, tr := range tracks {
		if tr.violation.Load() {
			t.Errorf("shard %d had concurrent replica resyncs", shard)
		}
		for i, f := range conns[shard] {
			if f.calls.Load() != 1 {
				t.Errorf("shard %d replica %d resynced %d times, want 1", shard, i, f.calls.Load())
			}
		}
	}
	if !overlapped.Load() {
		t.Error("shards resynced strictly sequentially; want shard-level concurrency")
	}
}

// The configured stagger inserts a pause between a shard's replicas.
func TestResyncStaggerPausesBetweenReplicas(t *testing.T) {
	r1, r2 := newFake(1), newFake(1)
	c := fleet(t, "shard 0 a:1,b:1", map[int][]*fakeConn{0: {r1, r2}},
		Options{ResyncStagger: 60 * time.Millisecond})
	start := time.Now()
	if err := c.Resync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("two-replica resync took %s, want >= 60ms of stagger", d)
	}
	// A canceled context aborts the wave during the stagger pause.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c.Resync(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the stagger pause", err)
	}
}

func TestFetchRoutesToOwner(t *testing.T) {
	f0 := newFake(1, "/s0/a.txt")
	f1 := newFake(1, "/s1/b.txt")
	c := fleet(t, twoShards, map[int][]*fakeConn{0: {f0}, 1: {f1}}, Options{})
	data, err := c.Fetch("/s1/b.txt")
	if err != nil || string(data) != "data:/s1/b.txt" {
		t.Fatalf("Fetch = %q, %v", data, err)
	}
	if f0.calls.Load() != 0 {
		t.Fatalf("fetch touched non-owner shard")
	}
}

func TestStatusAggregates(t *testing.T) {
	c := fleet(t, twoShards, map[int][]*fakeConn{
		0: {newFake(4, "/s0/a.txt")},
		1: {newFake(2, "/s1/b.txt", "/s1/c.txt")},
	}, Options{})
	epoch, version, docs := c.Status()
	if epoch != 2 || version != 2 || docs != 3 {
		t.Fatalf("Status = %d,%d,%d, want 2,2,3", epoch, version, docs)
	}
}
