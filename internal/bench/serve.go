package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/remotefs"
	"hacfs/internal/serve"
	"hacfs/internal/vfs"
)

// ---------------------------------------------------------------------
// Multi-tenant serving — closed-loop load
// ---------------------------------------------------------------------

// ServeSpec configures the closed-loop load experiment: Clients
// simulated clients spread over Tenants tenants drive mixed
// read/search/sync traffic through Conns shared TCP connections
// against a multi-tenant server.
type ServeSpec struct {
	Clients       int           // closed-loop client goroutines (default 1000)
	Tenants       int           // hosted volumes (default 4)
	Conns         int           // shared connections (default 8)
	Duration      time.Duration // measured window (default 5s)
	DocsPerTenant int           // corpus size per tenant volume (default 300)
	Seed          int64
	Addr          string // external server address; "" = in-process
}

func (s ServeSpec) withDefaults() ServeSpec {
	if s.Clients <= 0 {
		s.Clients = 1000
	}
	if s.Tenants <= 0 {
		s.Tenants = 4
	}
	if s.Conns <= 0 {
		s.Conns = 8
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.DocsPerTenant <= 0 {
		s.DocsPerTenant = 300
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// ServeTenantStats is one tenant's view of the run.
type ServeTenantStats struct {
	Tenant       string
	Ops          int64
	Errors       int64
	Backpressure int64
	P50          time.Duration
	P99          time.Duration
	P999         time.Duration
}

// ServeResult is the whole experiment.
type ServeResult struct {
	Clients       int
	TenantCount   int
	Conns         int
	DocsPerTenant int
	Duration      time.Duration

	Ops        int64
	Throughput float64 // ops per second
	P50        time.Duration
	P99        time.Duration
	P999       time.Duration
	Tenants    []ServeTenantStats

	// FairnessP99Ratio is the worst per-tenant p99 over the best —
	// 1.0 is perfectly fair scheduling.
	FairnessP99Ratio float64
}

// ServeLoad runs the experiment. With spec.Addr empty it boots an
// in-process multi-tenant server (tenants t0..tN-1, each volume
// seeded and indexed); otherwise it drives the server at Addr, which
// must host tenants under the same names.
func ServeLoad(spec ServeSpec) (*ServeResult, error) {
	spec = spec.withDefaults()

	addr := spec.Addr
	if addr == "" {
		var cleanup func()
		var err error
		addr, cleanup, err = bootServer(spec)
		if err != nil {
			return nil, err
		}
		defer cleanup()
	}

	tenantNames := make([]string, spec.Tenants)
	for i := range tenantNames {
		tenantNames[i] = fmt.Sprintf("t%d", i)
	}

	// Each tenant's known document set, for the read mix. External
	// servers are seeded by us so the paths are known there too.
	docs, err := seedOverWire(addr, tenantNames)
	if err != nil {
		return nil, err
	}

	res := &ServeResult{
		Clients:       spec.Clients,
		TenantCount:   spec.Tenants,
		DocsPerTenant: spec.DocsPerTenant,
		Duration:      spec.Duration,
	}
	if err := runLoad(spec, addr, tenantNames, docs, res); err != nil {
		return nil, err
	}
	var worst, best time.Duration
	for _, t := range res.Tenants {
		if t.P99 > worst {
			worst = t.P99
		}
		if best == 0 || t.P99 < best {
			best = t.P99
		}
	}
	if best > 0 {
		res.FairnessP99Ratio = float64(worst) / float64(best)
	}
	return res, nil
}

// bootServer hosts spec.Tenants seeded volumes in-process and returns
// the listen address.
func bootServer(spec ServeSpec) (string, func(), error) {
	host := serve.NewHost(0, obs.NewObserver())
	for i := 0; i < spec.Tenants; i++ {
		hfs := hac.New(vfs.New(), hac.Options{Observer: obs.Discard()})
		if err := hfs.MkdirAll("/docs"); err != nil {
			return "", nil, err
		}
		cspec := corpus.Spec{Files: spec.DocsPerTenant, MeanWords: 60, Seed: spec.Seed + int64(i)}
		if _, err := corpus.Generate(hfs, "/docs", cspec); err != nil {
			return "", nil, err
		}
		if _, err := hfs.Reindex("/"); err != nil {
			return "", nil, err
		}
		if err := host.AddTenant(fmt.Sprintf("t%d", i), hfs, serve.Quota{}, ""); err != nil {
			return "", nil, err
		}
	}
	srv := remotefs.NewHostServer(host, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(l)
	return l.Addr().String(), srv.Close, nil
}

// seedOverWire makes sure every tenant has the bench's known read set,
// writing it through the wire (idempotent for the in-process server,
// required for an external one), and returns the per-tenant paths.
func seedOverWire(addr string, tenantNames []string) (map[string][]string, error) {
	mux := remotefs.DialMux(addr)
	mux.SetTimeout(20 * time.Second)
	defer mux.Close()
	docs := make(map[string][]string, len(tenantNames))
	for _, name := range tenantNames {
		c := mux.Tenant(name)
		if err := c.MkdirAll("/bench"); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		paths := make([]string, 32)
		for i := range paths {
			paths[i] = fmt.Sprintf("/bench/doc%02d.txt", i)
			body := fmt.Sprintf("markermid benchdoc %s %02d payload", name, i)
			if err := c.WriteFile(paths[i], []byte(body)); err != nil {
				return nil, fmt.Errorf("tenant %s: %w", name, err)
			}
		}
		docs[name] = paths
	}
	return docs, nil
}

// runLoad drives the closed-loop phase. Clients are split evenly
// across tenants; the spec.Conns connections are shared by all of them
// through tenant views.
func runLoad(spec ServeSpec, addr string, tenantNames []string, docs map[string][]string, out *ServeResult) error {
	nT := len(tenantNames)
	conns := make([]*remotefs.MuxClient, spec.Conns)
	for i := range conns {
		conns[i] = remotefs.DialMux(addr)
		conns[i].SetTimeout(30 * time.Second)
		conns[i].SetObserver(obs.Discard())
		defer conns[i].Close()
	}

	type clientStats struct {
		lat          []time.Duration
		errs         int64
		backpressure int64
	}
	stats := make([]clientStats, spec.Clients)
	tenantOf := make([]int, spec.Clients)

	ctx := context.Background()
	var start atomic.Int64 // set right before the goroutines are released
	stop := make(chan struct{})
	begin := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < spec.Clients; g++ {
		ti := g % nT
		tenantOf[g] = ti
		name := tenantNames[ti]
		view := conns[(g/nT)%len(conns)].Tenant(name)
		paths := docs[name]
		wg.Add(1)
		go func(g int, c *remotefs.MuxClient, paths []string) {
			defer wg.Done()
			st := &stats[g]
			<-begin
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				t0 := time.Now()
				switch i % 10 {
				case 7, 8: // 20% search
					_, _, err = c.SearchPage(ctx, "markermid", "/", 0, 16)
				case 9: // 10% ssync
					err = c.SyncPath("/bench")
				default: // 70% read
					_, err = c.ReadFile(paths[i%len(paths)])
				}
				d := time.Since(t0)
				if err != nil {
					if errors.Is(err, vfs.ErrBackpressure) {
						st.backpressure++
						continue // retry later, as a real client would
					}
					st.errs++
					continue
				}
				st.lat = append(st.lat, d)
			}
		}(g, view, paths)
	}

	start.Store(time.Now().UnixNano())
	close(begin)
	time.Sleep(spec.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Duration(time.Now().UnixNano() - start.Load())

	// Aggregate: global and per tenant.
	out.Conns = len(conns)
	var all []time.Duration
	perTenant := make([][]time.Duration, nT)
	tErrs := make([]int64, nT)
	tBP := make([]int64, nT)
	for g := range stats {
		ti := tenantOf[g]
		all = append(all, stats[g].lat...)
		perTenant[ti] = append(perTenant[ti], stats[g].lat...)
		tErrs[ti] += stats[g].errs
		tBP[ti] += stats[g].backpressure
	}
	out.Ops = int64(len(all))
	out.Throughput = float64(len(all)) / elapsed.Seconds()
	out.P50 = percentile(all, 0.50)
	out.P99 = percentile(all, 0.99)
	out.P999 = percentile(all, 0.999)
	for ti, name := range tenantNames {
		out.Tenants = append(out.Tenants, ServeTenantStats{
			Tenant:       name,
			Ops:          int64(len(perTenant[ti])),
			Errors:       tErrs[ti],
			Backpressure: tBP[ti],
			P50:          percentile(perTenant[ti], 0.50),
			P99:          percentile(perTenant[ti], 0.99),
			P999:         percentile(perTenant[ti], 0.999),
		})
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Tenant < out.Tenants[j].Tenant })
	return nil
}
