package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/remotefs"
	"hacfs/internal/serve"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// The two served-volume workloads share one stack: remotefs.MuxClient
// → remotefs.NewHostServer → serve.Host → hac.FS → query/plan → index,
// over cas.FS volumes that share one cas.BlobStore, on a real loopback
// socket.

const (
	pageSize  = 512 // paths per streamed search page
	inboxDir  = "/home/u/proj/inbox"
	mixedRoot = "/home/u/proj/docs" // corpus files sit at depth 6
	slotRing  = 32                  // inbox files per tenant; a write replaces the oldest
)

type voldSpec struct {
	tenants   int
	files     int // per tenant
	meanWords int
	root      string // where each volume's corpus goes
	mixed     bool   // semantic directories, auto-synced inbox, background merger
}

type tenantVol struct {
	name       string
	hfs        *hac.FS
	cfs        *cas.FS
	sub        *timedFS // nil unless traced
	man        *corpus.Manifest
	stopMerger func()
}

type voldStack struct {
	spec    voldSpec
	obsv    *obs.Observer
	store   *cas.BlobStore
	tenants []*tenantVol
	host    *serve.Host
	stop    func()
	relay   *relay // nil unless traced
	addr    string // what clients dial

	reindexed  int
	reindexDur time.Duration
}

// semDirs are the eight semantic directories of a mixed-rw tenant, in
// creation order: plain terms, a conjunction, a disjunction, one nested
// in /s-mid (so its scope is that directory's links) and one that reads
// /s-mid through a dir: reference. A write to the inbox changes /s-few
// and /s-or.
var semDirs = [][2]string{
	{"/s-few", "markerfew"},
	{"/s-mid", "markermid"},
	{"/s-t0", "topic0key"},
	{"/s-t1", "topic1key"},
	{"/s-and", "markermid AND topic2key"},
	{"/s-or", "markerfew OR topic3key"},
	{"/s-mid/inner", "topic0key"},
	{"/s-ref", "dir:/s-mid AND topic4key"},
}

// bootVold builds the volumes and starts the server. traced selects a
// recording observer and installs the decorators of trace.go.
func bootVold(spec voldSpec, seed int64, traced bool) (_ *voldStack, err error) {
	s := &voldStack{spec: spec, obsv: obs.Discard(), store: cas.NewStore()}
	if traced {
		s.obsv = obs.NewObserver()
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.host = serve.NewHost(0, s.obsv)
	for i := 0; i < spec.tenants; i++ {
		t := &tenantVol{name: fmt.Sprintf("t%d", i), cfs: cas.New(s.store)}
		s.tenants = append(s.tenants, t)
		var under vfs.FileSystem = t.cfs
		if traced {
			t.sub = &timedFS{under: t.cfs}
			under = t.sub
		}
		t.hfs = hac.New(under, hac.Options{Observer: s.obsv, BlobStore: s.store})
		if err := t.hfs.MkdirAll(spec.root); err != nil {
			return nil, err
		}
		// Tenants 2k and 2k+1 hold the same documents, so the shared
		// store has cross-tenant duplicates to fold.
		cspec := corpus.Spec{Files: spec.files, MeanWords: spec.meanWords, Seed: seed*1000 + int64(i/2) + 1}
		if t.man, err = corpus.Generate(t.hfs, spec.root, cspec); err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := t.hfs.Reindex("/")
		if err != nil {
			return nil, err
		}
		s.reindexDur += time.Since(start)
		s.reindexed += rep.Added
		if spec.mixed {
			for _, sd := range semDirs {
				if err := t.hfs.SemDir(sd[0], sd[1]); err != nil {
					return nil, fmt.Errorf("smkdir %s: %w", sd[0], err)
				}
			}
			if err := t.hfs.MkdirAll(inboxDir); err != nil {
				return nil, err
			}
			if err := t.hfs.EnableAutoSync(inboxDir); err != nil {
				return nil, err
			}
			t.stopMerger = t.hfs.Index().StartMerger(200 * time.Millisecond)
		}
		if err := s.host.AddTenant(t.name, t.hfs, serve.Quota{}, ""); err != nil {
			return nil, err
		}
	}
	srv := remotefs.NewHostServer(s.host, nil)
	srv.SetObserver(s.obsv)
	if s.addr, s.stop, err = serveLoopback(srv); err != nil {
		return nil, err
	}
	if traced {
		if s.relay, err = startRelay(s.addr); err != nil {
			return nil, err
		}
		s.addr = s.relay.addr()
	}
	return s, nil
}

func (s *voldStack) close() {
	if s.relay != nil {
		s.relay.close()
	}
	if s.stop != nil {
		s.stop()
	}
	for _, t := range s.tenants {
		if t.stopMerger != nil {
			t.stopMerger()
		}
	}
}

// observed reads the traced stack's counters.
func (s *voldStack) observed() driveTrace {
	tr := driveTrace{c: readCounters(s.obsv), bytes: float64(s.relay.bytes.Load())}
	for _, t := range s.tenants {
		tr.subCalls += float64(t.sub.calls.Load())
		tr.subBusy += float64(t.sub.busy.Load())
	}
	return tr
}

// dial opens one client connection to the stack.
func (s *voldStack) dial() *remotefs.MuxClient {
	m := remotefs.DialMux(s.addr)
	m.SetTimeout(30 * time.Second)
	m.SetObserver(s.obsv)
	return m
}

// storedPerUserByte is what the volumes keep — unique blob bytes, index
// payload, HAC metadata — per logical byte of file content.
func (s *voldStack) storedPerUserByte() float64 {
	stored := float64(s.store.UniqueBytes())
	var logical float64
	for _, t := range s.tenants {
		stored += float64(t.hfs.Index().Stats().IndexBytes + t.hfs.MetadataBytes())
		logical += float64(t.cfs.Manifest().LogicalBytes())
	}
	return stored / logical
}

// ---------------------------------------------------------------------
// vold-search-many
// ---------------------------------------------------------------------

// A many-match query class. A client deals its searches from a deck of
// 20 — share cards per class, half of them hot — so the median search
// falls inside class "or" and the 90th percentile inside class "many",
// well away from the class boundaries: neither percentile flips between
// two latency modes from one seed to the next.
type queryClass struct {
	share  int // cards out of 20; even
	hot    []string
	unique func(rng *rand.Rand) string
}

const topics = 8 // corpus.Spec default

func topicPair(rng *rand.Rand) (int, int) {
	a := rng.Intn(topics)
	b := (a + 1 + rng.Intn(topics-1)) % topics
	return a, b
}

// manyClasses builds the query mix of vold-search-many. The hot set has
// 16 members in all; which topics they name comes from the seed.
func manyClasses(rng *rand.Rand) []queryClass {
	perm := rng.Perm(topics)
	or := make([]string, 7)
	for i := range or {
		or[i] = fmt.Sprintf("topic%dkey OR topic%dkey", perm[i], perm[i+1])
	}
	and := make([]string, 6)
	for i := range and {
		and[i] = fmt.Sprintf("markermany AND topic%dkey", perm[i])
	}
	return []queryClass{
		{6, []string{"markermany", "markermany AND NOT markerfew"}, func(rng *rand.Rand) string {
			if rng.Intn(2) == 0 {
				return "markermany"
			}
			return "markermany AND NOT markerfew"
		}},
		{6, or, func(rng *rand.Rand) string {
			a, b := topicPair(rng)
			return fmt.Sprintf("topic%dkey OR topic%dkey", a, b)
		}},
		{4, and, func(rng *rand.Rand) string {
			return fmt.Sprintf("markermany AND topic%dkey", rng.Intn(topics))
		}},
		{4, []string{"markermany AND markermid"}, func(*rand.Rand) string { return "markermany AND markermid" }},
	}
}

// searchManyClient alternates a many-match search, streamed to its last
// page, with a read of one of the files it found. Half the searches
// come from the hot set, which the result cache can answer; the other
// half carry a term no earlier query had, which it cannot.
type searchManyClient struct {
	rng     *rand.Rand
	id      int
	conn    *remotefs.MuxClient
	o       *oracle
	classes []queryClass
	deck    *deck // card 2i: class i from the hot set; 2i+1: class i, unique
	n       int
	open    string   // a result of the last search, to read next
	paths   []string // reused result buffer
}

func newSearchManyClient(rng *rand.Rand, id int, seed int64) *searchManyClient {
	c := &searchManyClient{rng: rng, id: id, classes: manyClasses(rand.New(rand.NewSource(seed)))}
	var counts []int
	for _, cl := range c.classes {
		counts = append(counts, cl.share/2, cl.share/2)
	}
	c.deck = newDeck(rng, counts...)
	return c
}

func (c *searchManyClient) nextQuery() string {
	card := c.deck.deal()
	cl := c.classes[card/2]
	if card%2 == 0 {
		return cl.hot[c.rng.Intn(len(cl.hot))]
	}
	c.n++
	return fmt.Sprintf("%s AND NOT u%dx%d", cl.unique(c.rng), c.id, c.n)
}

func (c *searchManyClient) step() op {
	if c.open != "" {
		path := c.open
		c.open = ""
		start := time.Now()
		data, err := c.conn.ReadFile(path)
		dur := time.Since(start)
		if err == nil {
			err = c.o.checkFile(path, data)
		}
		return op{kind: kindRead, dur: dur, err: err}
	}
	q := c.nextQuery()
	c.paths = c.paths[:0]
	start := time.Now()
	err := c.conn.SearchStream(context.Background(), q, "/", pageSize, func(page []string) error {
		c.paths = append(c.paths, page...)
		return nil
	})
	dur := time.Since(start)
	if err != nil {
		return op{kind: kindSearch, dur: dur, err: err}
	}
	want, err := c.o.expect(q, "/")
	if err == nil {
		err = c.o.checkPaths(q, c.paths, want, nil, c.rng.Intn(8) == 0)
	}
	if len(c.paths) > 0 {
		c.open = c.paths[c.rng.Intn(len(c.paths))]
	}
	return op{kind: kindSearch, dur: dur, results: len(c.paths), err: err}
}

// ---------------------------------------------------------------------
// vold-mixed-rw
// ---------------------------------------------------------------------

// mixedTenant is one tenant as its (only) client sees it. Because no
// other client touches the tenant, the client knows exactly which inbox
// files exist, and the oracle stays exact under writes.
type mixedTenant struct {
	view   *remotefs.MuxClient
	o      *oracle
	dirs   []string        // corpus directories, for the dir-scoped search
	inbox  map[string]bool // inbox paths written so far
	writes int
}

// mixedClient deals from a deck of 100: 70 whole-file reads, 20
// few-match searches (14 markerfew over the volume, 6 markermany under
// one directory) and 10 writes — a new marker-bearing file into the
// auto-synced inbox followed by SyncPath of the semantic directory it
// lands in. Its tenants take turns.
type mixedClient struct {
	rng     *rand.Rand
	id      int
	deck    *deck
	tenants []*mixedTenant
	turn    int
}

const (
	mixRead = iota
	mixSearchFew
	mixSearchDir
	mixWrite
)

func (c *mixedClient) step() op {
	t := c.tenants[c.turn%len(c.tenants)]
	c.turn++
	switch card := c.deck.deal(); card {
	case mixRead:
		f := t.o.files[c.rng.Intn(len(t.o.files))]
		start := time.Now()
		data, err := t.view.ReadFile(f.Path)
		dur := time.Since(start)
		if err == nil {
			err = t.o.checkFile(f.Path, data)
		}
		return op{kind: kindRead, dur: dur, err: err}
	case mixSearchFew, mixSearchDir:
		q, scope, extra := "markerfew", "/", t.inbox
		if card == mixSearchDir {
			q, scope, extra = "markermany", t.dirs[c.rng.Intn(len(t.dirs))], nil
		}
		var got []string
		start := time.Now()
		err := t.view.SearchStream(context.Background(), q, scope, pageSize, func(page []string) error {
			got = append(got, page...)
			return nil
		})
		dur := time.Since(start)
		if err != nil {
			return op{kind: kindSearch, dur: dur, err: err}
		}
		want, err := t.o.expect(q, scope)
		if err == nil {
			err = t.o.checkPaths(q, got, want, extra, true)
		}
		return op{kind: kindSearch, dur: dur, results: len(got), err: err}
	default:
		name := fmt.Sprintf("slot%02d.txt", t.writes%slotRing)
		path := vfs.Join(inboxDir, name)
		body := fmt.Sprintf("note %d\nmarkerfew inbox item w%dc%d delivered to slot %s\n", t.writes, t.writes, c.id, name)
		start := time.Now()
		err := t.view.WriteFile(path, []byte(body))
		if err == nil {
			err = t.view.SyncPath("/s-few")
		}
		dur := time.Since(start)
		t.writes++
		if err == nil {
			t.inbox[path] = true
			if t.writes%50 == 1 {
				err = hasEntry(t.view, "/s-few", name)
			}
		}
		return op{kind: kindWrite, dur: dur, err: err}
	}
}

// hasEntry asserts that the semantic directory lists the link HAC
// materialized for the file just written.
func hasEntry(view *remotefs.MuxClient, dir, name string) error {
	entries, err := view.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name == name {
			return nil
		}
	}
	return fmt.Errorf("readdir %s: no link %s after write and sync", dir, name)
}

// clients builds the closed-loop clients of a served-volume workload:
// one connection each, tenants dealt round-robin.
func (s *voldStack) clients(seed int64, n int) ([]stepFn, func()) {
	oracles := make([]*oracle, len(s.tenants))
	for i, t := range s.tenants {
		oracles[i] = newOracle(t.man)
	}
	var steps []stepFn
	var conns []*remotefs.MuxClient
	for c := 0; c < n; c++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		conn := s.dial()
		conns = append(conns, conn)
		if !s.spec.mixed {
			cl := newSearchManyClient(rng, c, seed)
			cl.conn, cl.o = conn.Tenant(s.tenants[0].name), oracles[0]
			steps = append(steps, cl.step)
			continue
		}
		cl := &mixedClient{rng: rng, id: c, deck: newDeck(rng, 70, 14, 6, 10)}
		for i := c; i < len(s.tenants); i += n {
			mt := &mixedTenant{view: conn.Tenant(s.tenants[i].name), o: oracles[i], inbox: make(map[string]bool)}
			for d := 0; d < s.tenants[i].man.Spec.Dirs; d++ {
				dir := vfs.Join(s.spec.root, fmt.Sprintf("dir%03d", d))
				mt.dirs = append(mt.dirs, dir)
				mt.o.addScope(dir)
			}
			cl.tenants = append(cl.tenants, mt)
		}
		steps = append(steps, cl.step)
	}
	return steps, func() {
		for _, c := range conns {
			c.Close()
		}
	}
}

func runSearchMany(cfg config) (*result, error) {
	spec := voldSpec{tenants: 1, files: cfg.scaled(20000), meanWords: 40, root: "/db"}
	return runServed("vold-search-many", cfg, func(traced bool) (stack, error) { return bootVold(spec, cfg.seed, traced) })
}

func runMixedRW(cfg config) (*result, error) {
	spec := voldSpec{tenants: 4, files: cfg.scaled(4000), meanWords: 350, root: mixedRoot, mixed: true}
	return runServed("vold-mixed-rw", cfg, func(traced bool) (stack, error) { return bootVold(spec, cfg.seed, traced) })
}
