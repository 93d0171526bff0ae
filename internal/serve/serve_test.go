package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/vfs"
)

func newTestHost(t *testing.T, workers int) (*Host, *obs.Observer) {
	t.Helper()
	o := obs.NewObserver()
	return NewHost(workers, o), o
}

func addTenant(t *testing.T, h *Host, name string, q Quota) *hac.FS {
	t.Helper()
	hfs := hac.New(vfs.New(), hac.Options{})
	if err := h.AddTenant(name, hfs, q, ""); err != nil {
		t.Fatal(err)
	}
	return hfs
}

// TestQuotaTable drives the byte/doc quota through its edge cases.
func TestQuotaTable(t *testing.T) {
	tests := []struct {
		name  string
		quota Quota
		run   func(fsys vfs.FileSystem) error
		want  error // nil = must succeed
	}{
		{
			name:  "bytes within quota",
			quota: Quota{MaxBytes: 10},
			run:   func(f vfs.FileSystem) error { return f.WriteFile("/a", make([]byte, 10)) },
		},
		{
			name:  "bytes over quota",
			quota: Quota{MaxBytes: 10},
			run:   func(f vfs.FileSystem) error { return f.WriteFile("/a", make([]byte, 11)) },
			want:  vfs.ErrQuotaExceeded,
		},
		{
			name:  "overwrite charges the delta, not the sum",
			quota: Quota{MaxBytes: 10},
			run: func(f vfs.FileSystem) error {
				if err := f.WriteFile("/a", make([]byte, 8)); err != nil {
					return err
				}
				return f.WriteFile("/a", make([]byte, 10)) // delta +2, fits
			},
		},
		{
			name:  "second file over quota",
			quota: Quota{MaxBytes: 10},
			run: func(f vfs.FileSystem) error {
				if err := f.WriteFile("/a", make([]byte, 8)); err != nil {
					return err
				}
				return f.WriteFile("/b", make([]byte, 3))
			},
			want: vfs.ErrQuotaExceeded,
		},
		{
			name:  "remove frees bytes",
			quota: Quota{MaxBytes: 10},
			run: func(f vfs.FileSystem) error {
				if err := f.WriteFile("/a", make([]byte, 8)); err != nil {
					return err
				}
				if err := f.Remove("/a"); err != nil {
					return err
				}
				return f.WriteFile("/b", make([]byte, 10))
			},
		},
		{
			name:  "docs within quota",
			quota: Quota{MaxDocs: 2},
			run: func(f vfs.FileSystem) error {
				if err := f.WriteFile("/a", []byte("x")); err != nil {
					return err
				}
				return f.WriteFile("/b", []byte("y"))
			},
		},
		{
			name:  "docs over quota",
			quota: Quota{MaxDocs: 2},
			run: func(f vfs.FileSystem) error {
				if err := f.WriteFile("/a", []byte("x")); err != nil {
					return err
				}
				if err := f.WriteFile("/b", []byte("y")); err != nil {
					return err
				}
				return f.WriteFile("/c", []byte("z"))
			},
			want: vfs.ErrQuotaExceeded,
		},
		{
			name:  "create counts a doc",
			quota: Quota{MaxDocs: 1},
			run: func(f vfs.FileSystem) error {
				if err := f.WriteFile("/a", []byte("x")); err != nil {
					return err
				}
				_, err := f.Create("/b")
				return err
			},
			want: vfs.ErrQuotaExceeded,
		},
		{
			name:  "handle write over quota",
			quota: Quota{MaxBytes: 4},
			run: func(f vfs.FileSystem) error {
				h, err := f.Create("/a")
				if err != nil {
					return err
				}
				defer h.Close()
				if _, err := h.Write([]byte("1234")); err != nil {
					return err
				}
				_, err = h.Write([]byte("5"))
				return err
			},
			want: vfs.ErrQuotaExceeded,
		},
		{
			name:  "truncate growth over quota",
			quota: Quota{MaxBytes: 4},
			run: func(f vfs.FileSystem) error {
				h, err := f.Create("/a")
				if err != nil {
					return err
				}
				defer h.Close()
				return h.Truncate(5)
			},
			want: vfs.ErrQuotaExceeded,
		},
		{
			name:  "removeall frees a subtree",
			quota: Quota{MaxBytes: 10, MaxDocs: 4},
			run: func(f vfs.FileSystem) error {
				if err := f.MkdirAll("/d"); err != nil {
					return err
				}
				for i := 0; i < 4; i++ {
					if err := f.WriteFile(fmt.Sprintf("/d/f%d", i), []byte("ab")); err != nil {
						return err
					}
				}
				if err := f.RemoveAll("/d"); err != nil {
					return err
				}
				return f.WriteFile("/fresh", make([]byte, 10))
			},
		},
		{
			name:  "unlimited quota never rejects",
			quota: Quota{},
			run:   func(f vfs.FileSystem) error { return f.WriteFile("/a", make([]byte, 1<<20)) },
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h, _ := newTestHost(t, 4)
			addTenant(t, h, "t", tc.quota)
			fsys, err := h.Volume("t")
			if err != nil {
				t.Fatal(err)
			}
			err = tc.run(fsys)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var pe *vfs.PathError
			if !errors.As(err, &pe) || !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want PathError{%v}", err, tc.want)
			}
		})
	}
}

// TestQuotaCountersMatchOracle checks the accounted usage (what the
// /metrics gauges export) against a from-scratch recount after a
// mixed workload, including failed operations.
func TestQuotaCountersMatchOracle(t *testing.T) {
	h, o := newTestHost(t, 4)
	hfs := addTenant(t, h, "t", Quota{MaxBytes: 1 << 16, MaxDocs: 100})
	fsys, err := h.Volume("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := fsys.WriteFile(fmt.Sprintf("/d/f%d", i), make([]byte, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := fsys.Remove(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fsys.WriteFile("/d/f7", make([]byte, 5000)); err != nil { // overwrite
		t.Fatal(err)
	}
	f, err := fsys.OpenFile("/d/f8", vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 300), 50); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(120); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// A rejected write must not change the accounting.
	if err := fsys.WriteFile("/d/huge", make([]byte, 1<<20)); !errors.Is(err, vfs.ErrQuotaExceeded) {
		t.Fatalf("huge write = %v, want quota error", err)
	}

	var oracleBytes, oracleDocs int64
	if err := vfs.Walk(hfs, "/", func(p string, info vfs.Info) error {
		if info.Type == vfs.TypeFile {
			oracleBytes += info.Size
			oracleDocs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	gotBytes, gotDocs, err := h.Usage("t")
	if err != nil {
		t.Fatal(err)
	}
	if gotBytes != oracleBytes || gotDocs != oracleDocs {
		t.Fatalf("accounted usage = %d bytes / %d docs, recount says %d / %d",
			gotBytes, gotDocs, oracleBytes, oracleDocs)
	}
	// The same numbers flow out of the metrics registry.
	snap := o.Registry().Snapshot()
	if got := snap[`serve_used_bytes{tenant="t"}`]; int64(got) != oracleBytes {
		t.Fatalf("metric used_bytes = %v, oracle %d", got, oracleBytes)
	}
	if got := snap[`serve_used_docs{tenant="t"}`]; int64(got) != oracleDocs {
		t.Fatalf("metric used_docs = %v, oracle %d", got, oracleDocs)
	}
	if got := snap[`serve_rejects_total{reason="quota",tenant="t"}`]; got < 1 {
		t.Fatalf("metric rejects{quota} = %v, want >= 1", got)
	}
}

// TestRecountAppliesToExistingContent checks quotas bind content that
// predates AddTenant.
func TestRecountAppliesToExistingContent(t *testing.T) {
	hfs := hac.New(vfs.New(), hac.Options{})
	if err := hfs.WriteFile("/old", make([]byte, 90)); err != nil {
		t.Fatal(err)
	}
	h, _ := newTestHost(t, 4)
	if err := h.AddTenant("t", hfs, Quota{MaxBytes: 100}, ""); err != nil {
		t.Fatal(err)
	}
	fsys, _ := h.Volume("t")
	if err := fsys.WriteFile("/new", make([]byte, 20)); !errors.Is(err, vfs.ErrQuotaExceeded) {
		t.Fatalf("write past preexisting usage = %v, want quota error", err)
	}
	if err := fsys.WriteFile("/new", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
}

// TestAdmission drives backpressure, unknown tenants and drain
// rejection through Admit.
func TestAdmission(t *testing.T) {
	h, o := newTestHost(t, 8)
	addTenant(t, h, "a", Quota{MaxInflight: 2})
	addTenant(t, h, "b", Quota{})

	if _, err := h.Admit("nope", "stat"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unknown tenant = %v, want ErrNotExist", err)
	}

	r1, err := h.Admit("a", "stat")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Admit("a", "stat")
	if err != nil {
		t.Fatal(err)
	}
	// Third concurrent op for tenant a: typed backpressure, immediately.
	_, err = h.Admit("a", "stat")
	var pe *vfs.PathError
	if !errors.As(err, &pe) || !errors.Is(err, vfs.ErrBackpressure) {
		t.Fatalf("over-inflight admit = %v, want PathError{ErrBackpressure}", err)
	}
	// Tenant b is unaffected by a's limit.
	rb, err := h.Admit("b", "stat")
	if err != nil {
		t.Fatalf("other tenant blocked: %v", err)
	}
	rb()
	r1()
	r1() // release is idempotent
	r3, err := h.Admit("a", "stat")
	if err != nil {
		t.Fatalf("admit after release = %v", err)
	}
	r3()
	r2()

	// Drain: everyone is rejected with the shutdown sentinel.
	if err := h.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Admit("a", "stat"); !errors.Is(err, vfs.ErrShuttingDown) {
		t.Fatalf("admit while draining = %v, want ErrShuttingDown", err)
	}

	snap := o.Registry().Snapshot()
	if got := snap[`serve_rejects_total{reason="backpressure",tenant="a"}`]; got != 1 {
		t.Fatalf("backpressure rejects = %v, want 1", got)
	}
	if got := snap[`serve_rejects_total{reason="shutdown",tenant="a"}`]; got != 1 {
		t.Fatalf("shutdown rejects = %v, want 1", got)
	}
	if got := snap[`serve_requests_total{tenant="a"}`]; got != 3 {
		t.Fatalf("requests = %v, want 3", got)
	}
	if got := snap[`serve_inflight{tenant="a"}`]; got != 0 {
		t.Fatalf("inflight after releases = %v, want 0", got)
	}
}

// TestDrainWaitsForInflight checks Drain blocks until releases land,
// and times out on a stuck request.
func TestDrainWaitsForInflight(t *testing.T) {
	h, _ := newTestHost(t, 4)
	addTenant(t, h, "a", Quota{})
	release, err := h.Admit("a", "stat")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := h.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck request = %v, want deadline", err)
	}

	done := make(chan error, 1)
	go func() { done <- h.Drain(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	release()
	if err := <-done; err != nil {
		t.Fatalf("drain after release = %v", err)
	}
}

// TestFairSchedulingNoStarvation floods the host from one greedy
// tenant while a modest tenant trickles requests; round-robin grants
// must keep the modest tenant's work flowing.
func TestFairSchedulingNoStarvation(t *testing.T) {
	h, _ := newTestHost(t, 2) // tiny worker pool to force queueing
	addTenant(t, h, "greedy", Quota{})
	addTenant(t, h, "modest", Quota{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Greedy: 8 spinning requesters.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				release, err := h.Admit("greedy", "stat")
				if err == nil {
					time.Sleep(100 * time.Microsecond)
					release()
				}
			}
		}()
	}
	// Modest: sequential requests; count how many finish in the window.
	deadline := time.Now().Add(300 * time.Millisecond)
	var served int
	for time.Now().Before(deadline) {
		release, err := h.Admit("modest", "stat")
		if err != nil {
			t.Fatal(err)
		}
		release()
		served++
	}
	close(stop)
	wg.Wait()
	// Hundreds are expected; single digits would mean starvation.
	if served < 20 {
		t.Fatalf("modest tenant served %d requests under flood, starved", served)
	}
}

// TestCheckpointAndRecover saves hosted volumes and reloads them —
// the recovery half of graceful shutdown.
func TestCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	h, _ := newTestHost(t, 4)
	hfs := hac.New(vfs.New(), hac.Options{})
	if err := h.AddTenant("t", hfs, Quota{}, dir+"/t.hac"); err != nil {
		t.Fatal(err)
	}
	fsys, _ := h.Volume("t")
	if err := fsys.WriteFile("/doc.txt", []byte("fingerprint archive")); err != nil {
		t.Fatal(err)
	}
	if _, err := hfs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	loaded, err := hac.LoadVolumeFile(dir+"/t.hac", hac.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := loaded.ReadFile("/doc.txt"); err != nil || string(data) != "fingerprint archive" {
		t.Fatalf("recovered read = %q, %v", data, err)
	}
	if _, err := loaded.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Search(context.Background(), "fingerprint")
	if err != nil || res.Len() != 1 {
		t.Fatalf("recovered search = %v, %v", res, err)
	}
}
