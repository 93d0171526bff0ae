package remotefs

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/obs"
	servepkg "hacfs/internal/serve"
	"hacfs/internal/vfs"
)

// traceHost builds a two-tenant serve.Host whose spans land in srvObs
// and serves it on a loopback socket. Each tenant's corpus answers a
// query of "<tenant>doc".
func traceHost(t *testing.T, srvObs *obs.Observer) string {
	t.Helper()
	mkFS := func(marker string) *hac.FS {
		hfs := hac.New(vfs.New(), hac.Options{Observer: srvObs})
		if err := hfs.MkdirAll("/docs"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			p := fmt.Sprintf("/docs/n%02d.txt", i)
			if err := hfs.WriteFile(p, []byte(marker+" corpus body")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := hfs.Reindex("/"); err != nil {
			t.Fatal(err)
		}
		return hfs
	}
	host := servepkg.NewHost(2, srvObs)
	for _, name := range []string{"alice", "bob"} {
		if err := host.AddTenant(name, mkFS(name+"doc"), servepkg.Quota{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewHostServer(host, nil)
	srv.SetObserver(srvObs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

func findSpan(spans []*obs.Span, name string) *obs.Span {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func spanNames(spans []*obs.Span) []string {
	out := make([]string, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.Name)
	}
	return out
}

// waitSpans polls until every named span of the trace is retained in
// tr's ring — the server finishes its spans after the response frame
// is already on the wire, so the client can get here first.
func waitSpans(t *testing.T, tr *obs.Tracer, id obs.TraceID, names ...string) []*obs.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := tr.ByTrace(id)
		missing := false
		for _, n := range names {
			if findSpan(spans, n) == nil {
				missing = true
			}
		}
		if !missing {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never retained %v, have %v", id, names, spanNames(spans))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceSpansClientAndServerRings drives traced searches from two
// tenants concurrently through the mux protocol into a multi-tenant
// host with SEPARATE client- and server-side observers, then checks
// that each request's spans — caller root, client RPC, server
// dispatch, hac search — carry one trace ID and link parent to child
// across the process boundary (the link rides the frame header).
func TestTraceSpansClientAndServerRings(t *testing.T) {
	clientObs, srvObs := obs.NewObserver(), obs.NewObserver()
	addr := traceHost(t, srvObs)
	c := DialMux(addr)
	c.SetTimeout(5 * time.Second)
	defer c.Close()
	c.SetObserver(clientObs)

	tenants := []string{"alice", "bob"}
	traces := make([]obs.TraceID, len(tenants))
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			root, ctx := clientObs.Tracer().StartCtx(context.Background(), "test.root")
			paths, _, err := c.Tenant(tenant).SearchPage(ctx, tenant+"doc", "/", 0, 32)
			root.FinishErr(err)
			if err != nil {
				t.Errorf("%s: traced search: %v", tenant, err)
				return
			}
			if len(paths) != 8 {
				t.Errorf("%s: search returned %d paths, want 8", tenant, len(paths))
			}
			traces[i] = root.Trace
		}(i, tenant)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if traces[0] == traces[1] {
		t.Fatal("two independent requests share a trace id")
	}

	for i, tenant := range tenants {
		id := traces[i]
		cspans := clientObs.Tracer().ByTrace(id)
		root, rpc := findSpan(cspans, "test.root"), findSpan(cspans, "rpc.search")
		if root == nil || rpc == nil {
			t.Fatalf("%s: client ring retained %v, want test.root and rpc.search", tenant, spanNames(cspans))
		}
		if rpc.Parent != root.ID {
			t.Fatalf("%s: rpc span parent = %d, want root %d", tenant, rpc.Parent, root.ID)
		}
		sspans := waitSpans(t, srvObs.Tracer(), id, "rfs.search", "hac.Search")
		rfs, hacSp := findSpan(sspans, "rfs.search"), findSpan(sspans, "hac.Search")
		if rfs.Trace != id || hacSp.Trace != id {
			t.Fatalf("%s: server spans carry trace %s/%s, want %s", tenant, rfs.Trace, hacSp.Trace, id)
		}
		// The cross-process link: the server span's parent is the span
		// the client stamped into the frame header.
		if rfs.Parent != rpc.ID {
			t.Fatalf("%s: server span parent = %d, want client rpc span %d", tenant, rfs.Parent, rpc.ID)
		}
		if hacSp.Parent != rfs.ID {
			t.Fatalf("%s: hac span parent = %d, want rfs span %d", tenant, hacSp.Parent, rfs.ID)
		}
		var taggedTenant string
		for _, a := range rfs.Attrs {
			if a.Key == "tenant" {
				taggedTenant = a.Value
			}
		}
		if taggedTenant != tenant {
			t.Fatalf("server span tenant attr = %q, want %q", taggedTenant, tenant)
		}
	}
}

// TestUntracedClientGetsStandaloneServerSpan: a client that propagates
// no trace (its own tracing is off) is served as ever against a
// tracing-enabled server, and the server must not fabricate a joined
// trace for it.
func TestUntracedClientGetsStandaloneServerSpan(t *testing.T) {
	srvObs := obs.NewObserver()
	addr := traceHost(t, srvObs)
	c := DialMux(addr)
	c.SetTimeout(5 * time.Second)
	c.SetObserver(obs.Discard())
	defer c.Close()
	alice := c.Tenant("alice")

	// Cheap untraced ops stay spanless server-side.
	if _, err := alice.ReadDir("/docs"); err != nil {
		t.Fatal(err)
	}
	// A semantic op still works; the server mints its own standalone
	// trace (Parent 0 — nothing upstream to join).
	paths, _, err := alice.SearchPage(context.Background(), "alicedoc", "/", 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 8 {
		t.Fatalf("untraced search returned %d paths, want 8", len(paths))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sp := findSpan(srvObs.Tracer().Recent(), "rfs.search"); sp != nil {
			if sp.Parent != 0 {
				t.Fatalf("untraced request produced a parented server span (parent %d)", sp.Parent)
			}
			if sp.Trace.IsZero() {
				t.Fatal("standalone server span should still mint a trace id")
			}
			if rd := findSpan(srvObs.Tracer().Recent(), "rfs.readdir"); rd != nil {
				t.Fatalf("untraced cheap op got a server span: %+v", rd)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rfs.search span never retained; ring has %v", spanNames(srvObs.Tracer().Recent()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
