package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/leaktest"
	"hacfs/internal/obs"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// TestMultiTenantSoak is the race/soak harness: several tenants, many
// concurrent clients multiplexed over a handful of shared connections,
// mixed reads, writes, searches and ssyncs, with background index
// merges running against every volume. Run under -race in CI; the
// assertions check per-tenant isolation — every byte a client reads
// back is its own tenant's.
func TestMultiTenantSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		tenants      = 4
		connsShared  = 3  // clients share this many connections
		clientsPerT  = 8  // concurrent clients per tenant
		opsPerClient = 40 // mixed ops per client
	)

	h := NewHost(0, obs.NewObserver())
	vols := make([]*hac.FS, tenants)
	for i := range vols {
		vols[i] = hac.New(cas.New(nil), hac.Options{})
		name := fmt.Sprintf("t%d", i)
		if err := vols[i].MkdirAll("/docs"); err != nil {
			t.Fatal(err)
		}
		if err := h.AddTenant(name, vols[i], Quota{MaxBytes: 1 << 22, MaxInflight: 64}, ""); err != nil {
			t.Fatal(err)
		}
	}

	srv := remotefs.NewHostServer(h, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// A small pool of shared connections; tenant views multiplex over
	// them.
	muxes := make([]*remotefs.MuxClient, connsShared)
	for i := range muxes {
		muxes[i] = remotefs.DialMux(l.Addr().String())
		muxes[i].SetTimeout(20 * time.Second)
		defer muxes[i].Close()
	}

	// Background mergers: compaction churns every tenant's index while
	// requests fly.
	stopMerge := make(chan struct{})
	var mergeWG sync.WaitGroup
	for _, v := range vols {
		mergeWG.Add(1)
		go func(v *hac.FS) {
			defer mergeWG.Done()
			for {
				select {
				case <-stopMerge:
					return
				case <-time.After(2 * time.Millisecond):
					v.Index().MaybeMerge()
				}
			}
		}(v)
	}

	ctx := context.Background()
	var backpressured atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, tenants*clientsPerT)
	for ti := 0; ti < tenants; ti++ {
		tname := fmt.Sprintf("t%d", ti)
		for ci := 0; ci < clientsPerT; ci++ {
			wg.Add(1)
			go func(ti, ci int) {
				defer wg.Done()
				c := muxes[(ti*clientsPerT+ci)%connsShared].Tenant(tname)
				marker := fmt.Sprintf("tenant%d secret", ti)
				for op := 0; op < opsPerClient; op++ {
					p := fmt.Sprintf("/docs/c%d_%d.txt", ci, op%7)
					var err error
					switch op % 5 {
					case 0, 1:
						err = c.WriteFile(p, []byte(marker))
					case 2:
						var data []byte
						data, err = c.ReadFile(p)
						if err == nil && string(data) != marker {
							errCh <- fmt.Errorf("tenant %d read %q — cross-tenant leak", ti, data)
							return
						}
						if errors.Is(err, vfs.ErrNotExist) {
							err = nil // another op of ours may have raced the write
						}
					case 3:
						_, _, err = c.SearchPageContext(ctx, "secret", "/docs", 0, 16)
						if errors.Is(err, vfs.ErrUnsupported) {
							err = nil
						}
					case 4:
						err = c.SyncPath("/docs")
					}
					if errors.Is(err, vfs.ErrBackpressure) {
						backpressured.Add(1)
						continue // real clients retry later
					}
					if err != nil {
						errCh <- fmt.Errorf("tenant %d client %d op %d: %w", ti, ci, op, err)
						return
					}
				}
			}(ti, ci)
		}
	}
	wg.Wait()
	close(stopMerge)
	mergeWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Isolation, volume-side: every file on every volume carries only
	// its own tenant's marker.
	for ti, v := range vols {
		marker := fmt.Sprintf("tenant%d secret", ti)
		entries, err := v.ReadDir("/docs")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatalf("tenant %d volume ended empty", ti)
		}
		for _, e := range entries {
			if e.Type != vfs.TypeFile {
				continue
			}
			data, err := v.ReadFile("/docs/" + e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != marker {
				t.Fatalf("tenant %d file %s = %q — cross-tenant leak", ti, e.Name, data)
			}
		}
	}
	// No admission slots leaked.
	for ti := 0; ti < tenants; ti++ {
		name := fmt.Sprintf("t%d", ti)
		h.mu.Lock()
		inflight := h.tenants[name].inflight
		h.mu.Unlock()
		if inflight != 0 {
			t.Fatalf("tenant %s ended with %d in-flight", name, inflight)
		}
	}
}

// TestGracefulShutdownUnderLoad kills the server mid-load the polite
// way — stop accepting, drain, checkpoint — then recovers each volume
// with LoadVolumeFile + Reindex and verifies integrity.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	dir := t.TempDir()
	h := NewHost(0, obs.NewObserver())
	vols := map[string]*hac.FS{}
	for _, name := range []string{"a", "b"} {
		v := hac.New(cas.New(nil), hac.Options{})
		if err := v.MkdirAll("/docs"); err != nil {
			t.Fatal(err)
		}
		if err := h.AddTenant(name, v, Quota{}, dir+"/"+name+".hac"); err != nil {
			t.Fatal(err)
		}
		vols[name] = v
	}
	srv := remotefs.NewHostServer(h, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	mux := remotefs.DialMux(l.Addr().String())
	mux.SetTimeout(10 * time.Second)
	defer mux.Close()

	// Load: clients write continuously until the drain cuts them off.
	var wg sync.WaitGroup
	var completed [2]atomic.Int64
	stopLoad := make(chan struct{})
	for i, name := range []string{"a", "b"} {
		for ci := 0; ci < 4; ci++ {
			wg.Add(1)
			go func(i, ci int, name string) {
				defer wg.Done()
				c := mux.Tenant(name)
				for op := 0; ; op++ {
					select {
					case <-stopLoad:
						return
					default:
					}
					err := c.WriteFile(fmt.Sprintf("/docs/w%d_%d.txt", ci, op), []byte("under load"))
					if err != nil {
						// The drain boundary: requests refused during
						// shutdown fail typed, nothing hangs.
						if errors.Is(err, vfs.ErrShuttingDown) {
							return
						}
						return // connection torn down post-close is fine too
					}
					completed[i].Add(1)
				}
			}(i, ci, name)
		}
	}

	// Let load build, then shut down gracefully mid-flight.
	time.Sleep(50 * time.Millisecond)
	srv.CloseListener()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	close(stopLoad)
	srv.Close()
	wg.Wait()

	for i, name := range []string{"a", "b"} {
		if completed[i].Load() == 0 {
			t.Fatalf("tenant %s completed no writes before shutdown", name)
		}
		loaded, err := hac.LoadVolumeFile(dir+"/"+name+".hac", hac.Options{})
		if err != nil {
			t.Fatalf("recover %s: %v", name, err)
		}
		if _, err := loaded.Reindex("/"); err != nil {
			t.Fatalf("reindex %s: %v", name, err)
		}
		// Every write acknowledged before the drain must be present and
		// intact in the checkpoint.
		entries, err := loaded.ReadDir("/docs")
		if err != nil {
			t.Fatal(err)
		}
		var files int64
		for _, e := range entries {
			if e.Type != vfs.TypeFile {
				continue
			}
			files++
			data, err := loaded.ReadFile("/docs/" + e.Name)
			if err != nil || string(data) != "under load" {
				t.Fatalf("recovered %s/%s = %q, %v", name, e.Name, data, err)
			}
		}
		if files < completed[i].Load() {
			t.Fatalf("tenant %s: %d files recovered, %d writes acknowledged", name, files, completed[i].Load())
		}
		res, err := loaded.Search(context.Background(), "load")
		if err != nil || int64(res.Len()) < files {
			t.Fatalf("tenant %s: recovered search found fewer than %d: %v, %v", name, files, res, err)
		}
	}
}

// TestClientLeavingMidStreamFreesItsSlot: a client that closes its
// connection in the middle of a streamed search must not leave the
// stream handler behind — the handler returns, the tenant's in-flight
// count goes back to 0 and, once the server is closed, no goroutine of
// the exchange is left.
func TestClientLeavingMidStreamFreesItsSlot(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHost(0, obs.NewObserver())
	hfs := addTenant(t, h, "a", Quota{MaxInflight: 4})
	if err := hfs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := hfs.WriteFile(fmt.Sprintf("/docs/n%04d.txt", i), []byte("needle")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hfs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	srv := remotefs.NewHostServer(h, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c := remotefs.DialMux(l.Addr().String())
	c.SetTimeout(10 * time.Second)

	// Whether the client sees an error depends on how far ahead of it
	// the server already was; what matters is what the server keeps.
	pages := 0
	c.Tenant("a").SearchStream(context.Background(), "needle", "/", 1, func([]string) error {
		if pages++; pages == 2 {
			c.Close() // walk away with thousands of pages to go
		}
		return nil
	})
	settled := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s\n%s", what, buf[:runtime.Stack(buf, true)])
			}
		}
	}
	settled("stream handler still holds its admission slot", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.tenants["a"].inflight == 0
	})
	srv.Close()
	leaktest.Settle(t, before, 10*time.Second, "the server closed")
}

// BenchmarkCheckpointStall measures what Checkpoint costs a tenant that
// is not being saved. Two tenants share one blob store; tenant a holds a
// 10k-document corpus with three semantic directories and a save path,
// tenant b has no save path. While a's checkpoint runs, a client writes
// to b in a loop; every measured write takes the store's accounting
// section, which the checkpoint holds for its seal. Reported per
// checkpoint: its duration (checkpoint-ms) and the longest b write that
// overlapped it (stall-ms); b writes outside checkpoints take
// microseconds.
func BenchmarkCheckpointStall(b *testing.B) {
	store := cas.NewStore()
	h := NewHost(0, obs.Discard())
	va := hac.New(cas.New(store), hac.Options{BlobStore: store})
	if err := va.MkdirAll("/db"); err != nil {
		b.Fatal(err)
	}
	if _, err := corpus.Generate(va, "/db", corpus.Spec{Files: 10000, MeanWords: 40, Seed: 7001}); err != nil {
		b.Fatal(err)
	}
	if _, err := va.Reindex("/db"); err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{"markerfew", "markermid", "markermany"} {
		if err := va.SemDir("/s-"+q, q); err != nil {
			b.Fatal(err)
		}
	}
	vb := hac.New(cas.New(store), hac.Options{BlobStore: store})
	if err := vb.MkdirAll("/docs"); err != nil {
		b.Fatal(err)
	}
	if err := h.AddTenant("a", va, Quota{}, b.TempDir()+"/a.hac"); err != nil {
		b.Fatal(err)
	}
	if err := h.AddTenant("b", vb, Quota{}, ""); err != nil {
		b.Fatal(err)
	}
	bvol, err := h.Volume("b")
	if err != nil {
		b.Fatal(err)
	}

	var checkpointNS, stallNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stop := make(chan struct{})
		longest := make(chan time.Duration)
		go func() {
			var worst time.Duration
			for w := 0; ; w++ {
				start := time.Now()
				if err := bvol.WriteFile(fmt.Sprintf("/docs/w%d.txt", w%64), []byte("tenant b write")); err != nil {
					b.Error(err)
				}
				worst = max(worst, time.Since(start))
				select {
				case <-stop:
					longest <- worst
					return
				default:
				}
			}
		}()
		time.Sleep(time.Millisecond) // b is writing before the save starts
		start := time.Now()
		err := h.Checkpoint()
		checkpointNS += int64(time.Since(start))
		close(stop)
		stallNS += int64(<-longest)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(checkpointNS)/float64(b.N)/1e6, "checkpoint-ms")
	b.ReportMetric(float64(stallNS)/float64(b.N)/1e6, "stall-ms")
}
