package serve

import (
	"errors"
	"testing"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

func TestSLOTrackerBurnMath(t *testing.T) {
	tr := &sloTracker{slo: SLO{Latency: 10 * time.Millisecond, Target: 0.9}}
	if got := tr.burn(5 * time.Minute); got != 0 {
		t.Fatalf("burn with no traffic = %v, want 0", got)
	}
	// 8 good + 2 bad: error rate 0.2 against a 0.1 budget → burn 2.0.
	for i := 0; i < 8; i++ {
		tr.record(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		tr.record(time.Second)
	}
	if got := tr.burn(5 * time.Minute); got < 1.99 || got > 2.01 {
		t.Fatalf("burn = %v, want 2.0", got)
	}
	// A window longer than the retained ring clamps rather than reading
	// stale buckets.
	if got := tr.burn(2 * time.Hour); got < 1.99 || got > 2.01 {
		t.Fatalf("burn over clamped window = %v, want 2.0", got)
	}
	// Exactly-at-threshold counts as good.
	tr2 := &sloTracker{slo: SLO{Latency: 10 * time.Millisecond, Target: 0.5}}
	tr2.record(10 * time.Millisecond)
	if got := tr2.burn(time.Minute); got != 0 {
		t.Fatalf("at-threshold request burned %v, want 0 (counts as good)", got)
	}
}

func TestSLOTrackerZeroBudget(t *testing.T) {
	// A 100% target has no error budget; one failure must read as a very
	// hot burn, not a division by zero.
	tr := &sloTracker{slo: SLO{Latency: time.Millisecond, Target: 1.0}}
	tr.record(time.Second)
	if got := tr.burn(time.Minute); got < 1e6 {
		t.Fatalf("burn with zero budget = %v, want very hot", got)
	}
}

func TestSLOTrackerNil(t *testing.T) {
	var tr *sloTracker
	tr.record(time.Second) // must not panic
	if got := tr.burn(time.Minute); got != 0 {
		t.Fatalf("nil tracker burn = %v, want 0", got)
	}
}

func TestSetSLOUnknownTenant(t *testing.T) {
	h := NewHost(1, obs.NewObserver())
	err := h.SetSLO("ghost", SLO{Latency: time.Second, Target: 0.99})
	if !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("SetSLO on unknown tenant = %v, want ErrNotExist", err)
	}
}

// TestHostSLOEndToEnd runs requests through Admit/release and checks
// the exported series: lifetime good/total counters and the burn-rate
// gauge computed at scrape time.
func TestHostSLOEndToEnd(t *testing.T) {
	o := obs.NewObserver()
	h := NewHost(2, o)
	if err := h.AddTenant("alice", hac.New(cas.New(nil), hac.Options{}), Quota{}, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.SetSLO("alice", SLO{Latency: 25 * time.Millisecond, Target: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Replacing the objective must not double-register the gauge.
	if err := h.SetSLO("alice", SLO{Latency: 25 * time.Millisecond, Target: 0.5}); err != nil {
		t.Fatal(err)
	}

	// One good request (released immediately) and one bad (held past the
	// latency objective).
	release, err := h.Admit("alice", "search")
	if err != nil {
		t.Fatal(err)
	}
	release()
	release, err = h.Admit("alice", "search")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	release()
	release() // double release must not double-count

	snap := o.Registry().Snapshot()
	if got := snap[`serve_slo_requests_total{tenant="alice"}`]; got != 2 {
		t.Fatalf("requests_total = %v, want 2", got)
	}
	if got := snap[`serve_slo_good_total{tenant="alice"}`]; got != 1 {
		t.Fatalf("good_total = %v, want 1", got)
	}
	// Error rate 0.5 against a 0.5 budget → burn 1.0 on both windows.
	for _, window := range []string{"5m", "1h"} {
		key := `serve_slo_burn_rate{tenant="alice",window="` + window + `"}`
		if got, ok := snap[key]; !ok || got < 0.99 || got > 1.01 {
			t.Fatalf("%s = %v (present %v), want 1.0", key, got, ok)
		}
	}

	// Tenants without an objective export no SLO series and pay no
	// recording cost (nil tracker).
	if err := h.AddTenant("bob", hac.New(cas.New(nil), hac.Options{}), Quota{}, ""); err != nil {
		t.Fatal(err)
	}
	release, err = h.Admit("bob", "search")
	if err != nil {
		t.Fatal(err)
	}
	release()
	snap = o.Registry().Snapshot()
	if _, ok := snap[`serve_slo_requests_total{tenant="bob"}`]; ok {
		t.Fatal("tenant without an SLO exported SLO series")
	}
}
