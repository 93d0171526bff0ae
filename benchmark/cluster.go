package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"hacfs/internal/cluster"
	"hacfs/internal/corpus"
	"hacfs/internal/obs"
	"hacfs/internal/remote"
	"hacfs/internal/vfs"
)

// cluster-scatter: remote.BinClient → remote.NewServer(Coordinator) →
// one remote.NewServer(IndexBackend) per shard, every hop a real
// loopback connection and every shard paying its real scan cost.

type clusterSpec struct {
	shards    int
	files     int // per shard, under /t<shard>
	meanWords int
}

type shardNode struct {
	fsys    *vfs.MemFS
	backend *remote.IndexBackend
	man     *corpus.Manifest
	stop    func()
}

type clusterStack struct {
	obsv   *obs.Observer
	shards []*shardNode
	coord  *cluster.Coordinator
	stop   func()
	addr   string

	connLog    *spanLog // coordinator → shard calls, traced runs only
	backendLog *spanLog // shard server → index backend calls, traced runs only

	indexed  int
	indexDur time.Duration
}

// server is what remote.Server and remotefs.Server have in common.
type server interface {
	Serve(net.Listener) error
	Close()
}

// serveLoopback runs srv on a fresh loopback listener. stop closes the
// server and returns once its accept loop has.
func serveLoopback(srv server) (addr string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(l)
	}()
	return l.Addr().String(), func() {
		srv.Close()
		l.Close() // Close does not reach a listener Serve has not registered yet
		<-served
	}, nil
}

func bootCluster(spec clusterSpec, seed int64, traced bool) (_ *clusterStack, err error) {
	s := &clusterStack{obsv: obs.Discard()}
	if traced {
		s.obsv = obs.NewObserver()
		s.connLog, s.backendLog = &spanLog{}, &spanLog{}
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var mapText strings.Builder
	for i := 0; i < spec.shards; i++ {
		n := &shardNode{fsys: vfs.New()}
		s.shards = append(s.shards, n)
		tree := fmt.Sprintf("/t%d", i)
		if err := n.fsys.MkdirAll(tree); err != nil {
			return nil, err
		}
		cspec := corpus.Spec{Files: spec.files, MeanWords: spec.meanWords, Seed: seed*1000 + int64(i) + 1}
		if n.man, err = corpus.Generate(n.fsys, tree, cspec); err != nil {
			return nil, err
		}
		start := time.Now()
		if n.backend, err = remote.NewIndexBackend(n.fsys, "/"); err != nil {
			return nil, err
		}
		s.indexDur += time.Since(start)
		s.indexed += spec.files
		var backend remote.Backend = n.backend
		if traced {
			backend = &timedBackend{IndexBackend: n.backend, log: s.backendLog}
		}
		srv := remote.NewServer(backend, nil)
		srv.SetObserver(s.obsv)
		var addr string
		if addr, n.stop, err = serveLoopback(srv); err != nil {
			return nil, err
		}
		fmt.Fprintf(&mapText, "shard %d %s\nroute %s %d\n", i, addr, tree, i)
	}
	m, err := cluster.ParseMap(mapText.String())
	if err != nil {
		return nil, err
	}
	opts := cluster.Options{Name: "bench", Timeout: 30 * time.Second, PageSize: pageSize, Observer: s.obsv}
	if traced {
		opts.Dial = func(shard int, addr string) cluster.ShardConn {
			cl := remote.DialBin(fmt.Sprintf("bench/%d", shard), addr)
			cl.SetObserver(s.obsv)
			return &timedConn{ShardConn: cl, log: s.connLog}
		}
	}
	s.coord = cluster.New(m, opts)
	srv := remote.NewServer(s.coord, nil)
	srv.SetObserver(s.obsv)
	if s.addr, s.stop, err = serveLoopback(srv); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *clusterStack) close() {
	if s.stop != nil {
		s.stop()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, n := range s.shards {
		if n.stop != nil {
			n.stop()
		}
	}
}

func (s *clusterStack) observed() driveTrace { return driveTrace{c: readCounters(s.obsv)} }

func (s *clusterStack) dial() *remote.BinClient {
	c := remote.DialBin("bench", s.addr)
	c.SetTimeout(30 * time.Second)
	c.SetObserver(s.obsv)
	return c
}

func (s *clusterStack) oracle() *oracle {
	mans := make([]*corpus.Manifest, len(s.shards))
	for i, n := range s.shards {
		mans[i] = n.man
	}
	o := newOracle(mans...)
	for i := range s.shards {
		o.addScope(fmt.Sprintf("/t%d", i))
	}
	return o
}

// storedPerUserByte: the shards keep raw content in memory plus their
// index, so the ratio is 1 + index payload per content byte.
func (s *clusterStack) storedPerUserByte() float64 {
	var index, content float64
	for _, n := range s.shards {
		st := n.backend.Index().Stats()
		index += float64(st.IndexBytes)
		content += float64(st.ContentBytes)
	}
	return (content + index) / content
}

// clusterQueries deals the search mix from a deck of 10: 6 whole-cluster
// mid-match searches (scope "/"), merged across all shards through
// composite cursors, and 4 searches routed by their /t<i> scope to the
// one shard that owns it — the fan-out-1 control for any scatter change.
// Each half alternates two query shapes.
type clusterQueries struct {
	rng    *rand.Rand
	deck   *deck
	shards int
}

func newClusterQueries(rng *rand.Rand, shards int) *clusterQueries {
	return &clusterQueries{rng: rng, deck: newDeck(rng, 3, 3, 2, 2), shards: shards}
}

func (g *clusterQueries) next() searchReq {
	card := g.deck.deal()
	q := "markermid"
	if card%2 == 1 {
		q = "markermid AND NOT markerfew"
	}
	if card < 2 {
		return searchReq{q, "/"}
	}
	return searchReq{q, fmt.Sprintf("/t%d", g.rng.Intn(g.shards))}
}

// clusterClient alternates a search, streamed through the coordinator
// to its last page, with a fetch of one of the documents it found.
type clusterClient struct {
	rng     *rand.Rand
	queries *clusterQueries
	conn    *remote.BinClient
	o       *oracle
	open    string
}

func (c *clusterClient) step() op {
	ctx := context.Background()
	if c.open != "" {
		path := c.open
		c.open = ""
		start := time.Now()
		data, err := c.conn.FetchContext(ctx, path)
		dur := time.Since(start)
		if err == nil {
			err = c.o.checkFile(path, data)
		}
		return op{kind: kindRead, dur: dur, err: err}
	}
	cq := c.queries.next()
	start := time.Now()
	got, err := c.conn.SearchUnderContext(ctx, cq.q, cq.scope)
	dur := time.Since(start)
	if err != nil {
		return op{kind: kindSearch, dur: dur, err: err}
	}
	want, err := c.o.expect(cq.q, cq.scope)
	if err == nil {
		err = c.o.checkPaths(cq.q, got, want, nil, c.rng.Intn(8) == 0)
	}
	if len(got) > 0 {
		c.open = got[c.rng.Intn(len(got))]
	}
	return op{kind: kindSearch, dur: dur, results: len(got), err: err}
}

func (s *clusterStack) clients(seed int64, n int) ([]stepFn, func()) {
	o := s.oracle()
	var steps []stepFn
	var conns []*remote.BinClient
	for c := 0; c < n; c++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		cl := &clusterClient{rng: rng, queries: newClusterQueries(rng, len(s.shards)), conn: s.dial(), o: o}
		conns = append(conns, cl.conn)
		steps = append(steps, cl.step)
	}
	return steps, func() {
		for _, c := range conns {
			c.Close()
		}
	}
}

func runClusterScatter(cfg config) (*result, error) {
	spec := clusterSpec{shards: 4, files: cfg.scaled(5000), meanWords: 40}
	return runServed("cluster-scatter", cfg, func(traced bool) (stack, error) { return bootCluster(spec, cfg.seed, traced) })
}
