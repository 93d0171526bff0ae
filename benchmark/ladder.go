package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/hac"
	"hacfs/internal/index"
	"hacfs/internal/obs"
	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs/cas"
)

// sink keeps a timed call's result alive so the compiler cannot drop
// the call.
var sink any

// The ladder replays one seeded sample of the workload's requests at
// each depth of the stack — parser, planner, index, hac.Search, serve
// admission, the wire — one call at a time from one goroutine. A rung's
// self time is its p50 minus the p50 of the rungs below it on the same
// sample. Because the replay is sequential the numbers carry no
// queueing: they say where a request's own time goes, not how long it
// waits for a CPU that the closed loop keeps busy.

const ladderSample = 48

// searchReq is one sampled search.
type searchReq struct{ q, scope string }

// counters is a snapshot of an observer's registry (empty when the
// observer discards) — the "count" metrics of a traced run.
type counters map[string]float64

func readCounters(o *obs.Observer) counters { return o.Registry().Snapshot() }

// sum adds every series whose name starts with prefix (a metric name,
// matching all its label sets).
func (c counters) sum(prefix string) float64 {
	var t float64
	for k, v := range c {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			t += v
		}
	}
	return t
}

// delta is c minus base, series by series.
func (c counters) delta(base counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// indexRungs measures the rungs below hac.Search on a pinned snapshot
// of ix and returns their summed p50 (microseconds): parse, plan build,
// plan exec and path materialization of the whole result.
func indexRungs(res *result, ix *index.Index, reqs []searchReq) float64 {
	snap := ix.Snapshot()
	env := &plan.SnapEnv{Snap: snap}
	n := len(reqs)
	asts := make([]query.Node, n)
	plans := make([]*plan.Plan, n)
	sets := make([]*bitset.Segmented, n)

	parse := p50us(n, func(i int) { asts[i], _ = query.Parse(reqs[i].q) })
	build := p50us(n, func(i int) { plans[i], _ = plan.Build(asts[i], plan.Scope{Prefix: reqs[i].scope}, env) })
	exec := p50us(n, func(i int) { sets[i], _ = plans[i].Exec() })
	var leaves, skipped float64
	var pathsAll, pathsPer1k []float64
	for i, set := range sets {
		st := plans[i].Stats()
		leaves += float64(st.Leaves)
		skipped += float64(st.PostingsSkipped)
		if set == nil || set.Len() == 0 {
			continue
		}
		t0 := time.Now()
		sink = snap.Paths(set)
		d := us(time.Since(t0))
		pathsAll = append(pathsAll, d)
		pathsPer1k = append(pathsPer1k, d*1000/float64(set.Len()))
	}
	paths := percentile(pathsAll, 0.5)

	res.set("query.parse_us", parse)
	res.set("plan.build_us", build)
	res.set("plan.exec_us", exec)
	res.set("plan.leaves_per_search", leaves/float64(n))
	res.set("plan.postings_skipped_per_search", skipped/float64(n))
	res.set("index.paths_us_per_1k", percentile(pathsPer1k, 0.5))

	terms := []string{"markermany", "markermid", "markerfew", "topic0key", "topic1key", "topic2key"}
	res.set("index.lookup_us", p50us(ladderSample, func(i int) { sink = snap.Lookup(terms[i%len(terms)]) }))

	many, mid := snap.Lookup("markermany"), snap.Lookup("markermid")
	if in := many.Len() + mid.Len(); in > 0 {
		and := p50us(ladderSample, func(int) {
			c := many.Clone()
			c.And(mid)
			sink = c
		})
		clone := p50us(ladderSample, func(int) { sink = many.Clone() })
		res.set("bitset.and_us_per_1k", (and-clone)*1000/float64(in))
		res.set("bitset.bytes_per_1k", float64(many.SizeBytes())*1000/float64(many.Len()))
	}
	return parse + build + exec + paths
}

// indexCounts fills the index footprint metrics from the given indexes
// and the merge counters of a traced run.
func indexCounts(res *result, ixs []*index.Index, c counters) {
	var segs, dead, bytes, content float64
	for _, ix := range ixs {
		st := ix.Stats()
		segs += float64(st.Segments)
		dead += float64(st.DeadDocs)
		bytes += float64(st.IndexBytes)
		content += float64(st.ContentBytes)
	}
	res.set("index.segments", segs)
	res.set("index.dead_docs", dead)
	res.set("index.bytes_per_content_byte", ratio(bytes, content))
	res.set("index.merges", c.sum("index_merges_total"))
	res.set("index.merge_busy_ms", c.sum("index_merge_seconds_sum")*1000)
}

// drainPaged walks a whole result the way remotefs's stream handler
// does: one hac.Search per page, resumed by cursor.
func drainPaged(hfs *hac.FS, r searchReq) (n int) {
	var after uint64
	for {
		page, next, err := hfs.SearchPageContext(context.Background(), r.q, r.scope, after, pageSize)
		n += len(page)
		if err != nil || next == 0 {
			return n
		}
		after = next
	}
}

// casRungs times the content-addressed store directly: a 4 KB put of
// new content, and sealing a volume's overlay into a snapshot.
func casRungs(res *result, store *cas.BlobStore, cfs *cas.FS, rng *rand.Rand) {
	blob := make([]byte, 4096)
	res.set("cas.put_us_per_kb", p50us(64, func(int) {
		rng.Read(blob)
		h, _ := store.Put(blob)
		store.Unref(h)
	})/4)
	res.set("cas.snapshot_us", p50us(50, func(int) { sink = cfs.Snapshot() }))
	res.set("cas.dedup_ratio", store.DedupRatio())
	res.set("cas.unique_bytes", float64(store.UniqueBytes()))
}

// ladder fills the per-layer metrics of a served-volume workload.
func (s *voldStack) ladder(res *result, seed int64, tr driveTrace) {
	c := tr.c
	t := s.tenants[0]
	ctx := context.Background()
	reqs := make([]searchReq, ladderSample)
	rng := rand.New(rand.NewSource(seed))
	if s.spec.mixed {
		for i := range reqs {
			reqs[i] = searchReq{"markerfew", "/"}
			if i%10 >= 7 {
				reqs[i] = searchReq{"markermany", fmt.Sprintf("%s/dir%03d", s.spec.root, rng.Intn(t.man.Spec.Dirs))}
			}
		}
	} else {
		gen := newSearchManyClient(rng, 9, seed)
		for i := range reqs {
			reqs[i] = searchReq{gen.nextQuery(), "/"}
		}
	}

	below := indexRungs(res, t.hfs.Index(), reqs)

	// hac.Search, one call materializing every page, with and without
	// the result cache.
	search := func(r searchReq, opts ...hac.SearchOption) (cached bool) {
		opts = append(opts, hac.WithScope(r.scope), hac.WithPageSize(pageSize))
		sr, err := t.hfs.Search(ctx, r.q, opts...)
		if err != nil {
			return false
		}
		sr.All()
		return sr.Stats().Cached
	}
	uncached := p50us(len(reqs), func(i int) { search(reqs[i], hac.WithoutCache()) })
	var cachedUS []float64
	for _, r := range reqs {
		search(r) // fill
		t0 := time.Now()
		if search(r) {
			cachedUS = append(cachedUS, us(time.Since(t0)))
		}
	}
	res.set("hac.search_uncached_us", uncached)
	res.set("hac.search_cached_us", percentile(cachedUS, 0.5))
	res.set("hac.search_self_us", uncached-below)
	res.set("hac.cache_hit_ratio", ratio(c["hac_plan_cache_hits_total"], c["hac_plan_cache_hits_total"]+c["hac_plan_cache_misses_total"]))

	// The served path: admission, then the page-by-page drain, then the
	// same request over the socket.
	admit := p50us(200, func(int) {
		if release, err := s.host.Admit(t.name, "search"); err == nil {
			release()
		}
	})
	paged := p50us(len(reqs), func(i int) { drainPaged(t.hfs, reqs[i]) })
	conn := s.dial()
	defer conn.Close()
	view := conn.Tenant(t.name)
	view.Ping() // dial outside the timers
	ping := p50us(200, func(int) { view.Ping() })
	stream := p50us(len(reqs), func(i int) {
		view.SearchStream(ctx, reqs[i].q, reqs[i].scope, pageSize, func([]string) error { return nil })
	})
	res.set("serve.admit_us", admit)
	res.set("serve.rejects", c.sum("serve_rejects_total"))
	res.set("remotefs.ping_rtt_us", ping)
	res.set("remotefs.rpc_self_us", stream-admit-paged)
	res.set("wire.bytes_per_op", ratio(tr.bytes, tr.ops))

	if s.spec.mixed {
		res.set("hac.sync_path_us", p50us(30, func(int) { t.hfs.Sync("/s-few") }))
		// Every write is one SyncPath over the wire, so hac_sync_total
		// counts the writes of the traced drive.
		res.set("hac.semdirs_reevaluated_per_write", ratio(c["hac_semdir_evals_total"], c["hac_sync_total"]))
	}

	ixs := make([]*index.Index, len(s.tenants))
	for i, tv := range s.tenants {
		ixs[i] = tv.hfs.Index()
	}
	res.set("substrate.calls_per_hac_op", ratio(tr.subCalls, tr.ops))
	res.set("substrate.busy_share", ratio(tr.subBusy, float64(tr.elapsed)))
	indexCounts(res, ixs, c)
	res.set("index.reindex_docs_per_s", ratio(float64(s.reindexed), s.reindexDur.Seconds()))
	casRungs(res, s.store, t.cfs, rng)

	// Last, because it changes the index: one new document per call.
	doc := []byte(strings.Repeat("wbabebi wdadedi markermid topic0key ", 40))
	res.set("index.add_us_per_doc", p50us(64, func(i int) {
		t.hfs.Index().Add(fmt.Sprintf("/ladder/doc%03d.txt", i), doc)
	}))
}

// ladder fills the per-layer metrics of cluster-scatter.
func (s *clusterStack) ladder(res *result, seed int64, tr driveTrace) {
	c := tr.c
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]searchReq, ladderSample)
	gen := newClusterQueries(rng, len(s.shards))
	for i := range reqs {
		reqs[i] = gen.next()
	}
	indexRungs(res, s.shards[0].backend.Index(), reqs)

	// Direct coordinator call, drained through its composite cursor the
	// way the server in front of it does; the wrapped ShardConns record
	// the calls it makes meanwhile.
	s.connLog.take()
	var direct, self, gap, shardCall []float64
	for _, r := range reqs {
		t0 := time.Now()
		var after uint64
		for {
			_, next, _, err := s.coord.SearchPageUnder(ctx, r.q, r.scope, after, pageSize)
			if err != nil || next == 0 {
				break
			}
			after = next
		}
		d := time.Since(t0)
		spans := s.connLog.take()
		direct = append(direct, us(d))
		var first []float64
		for _, sp := range spans {
			shardCall = append(shardCall, us(sp.end.Sub(sp.start)))
			if sp.first {
				first = append(first, us(sp.end.Sub(sp.start)))
			}
		}
		if r.scope == "/" {
			self = append(self, us(d-covered(spans)))
			gap = append(gap, percentile(first, 1)-percentile(first, 0.5))
		}
	}
	res.set("cluster.coordinator_self_us", percentile(self, 0.5))
	res.set("cluster.shard_call_p50_us", percentile(shardCall, 0.5))
	res.set("cluster.straggler_gap_us", percentile(gap, 0.5))
	res.set("cluster.fanout_per_search", ratio(c["cluster_fanout_width_sum"], c["cluster_fanout_width_count"]))
	res.set("cluster.failovers", c.sum("cluster_replica_failovers_total"))
	res.set("cluster.duplicates_dropped", c["cluster_duplicates_dropped_total"])

	conn := s.dial()
	defer conn.Close()
	conn.Ping()
	s.backendLog.take()
	stream := p50us(len(reqs), func(i int) { conn.SearchUnderContext(ctx, reqs[i].q, reqs[i].scope) })
	var backend []float64
	for _, sp := range s.backendLog.take() {
		backend = append(backend, us(sp.end.Sub(sp.start)))
	}
	res.set("remote.rpc_self_us", stream-percentile(direct, 0.5))
	res.set("remote.backend_search_us", percentile(backend, 0.5))

	ixs := make([]*index.Index, len(s.shards))
	for i, n := range s.shards {
		ixs[i] = n.backend.Index()
	}
	indexCounts(res, ixs, c)
	res.set("index.reindex_docs_per_s", ratio(float64(s.indexed), s.indexDur.Seconds()))
}
