package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/remotefs"
	"hacfs/internal/serve"
	"hacfs/internal/vfs/cas"
)

var (
	traceQuery  = flag.String("trace-query", "", "trace: query to search for (default: a marker from the demo corpus)")
	traceTenant = flag.String("trace-tenant", "", "trace: tenant to address (with -serve-addr)")
	traceDebug  = flag.String("trace-debug", "", "trace: base URL of the server's debug endpoints, e.g. http://127.0.0.1:7801 (with -serve-addr; fetches the server half of the trace)")
)

// traceDemo issues one traced paged search and renders the resulting
// distributed trace as a tree. Against -serve-addr it drives an
// external hacvold (the server half of the trace is fetched from
// -trace-debug's /debug/trace endpoint); without it, an in-process
// client/server pair over a loopback socket shows the same mechanics
// self-contained.
func traceDemo() error {
	if *serveAddr != "" {
		return traceRemote(*serveAddr, *traceDebug)
	}
	return traceLoopback()
}

// traceRemote traces one search against an external server.
func traceRemote(addr, debugURL string) error {
	o := obs.NewObserver()
	mc := remotefs.DialMux(addr)
	defer mc.Close()
	mc.SetObserver(o)
	view := mc
	if *traceTenant != "" {
		view = mc.Tenant(*traceTenant)
		view.SetObserver(o)
	}
	q := *traceQuery
	if q == "" {
		q = "markermany"
	}

	sp, ctx := o.Tracer().StartCtx(context.Background(), "bench.trace")
	sp.Annotate("query", q)
	paths, _, err := view.SearchPage(ctx, q, "/", 0, 16)
	sp.FinishErr(err)
	if err != nil {
		return fmt.Errorf("traced search: %w", err)
	}
	id := sp.Context().Trace
	fmt.Printf("== Distributed trace: search %q on %s (%d matches) ==\n", q, addr, len(paths))
	fmt.Printf("trace id: %s\n", id)

	spans := o.Tracer().ByTrace(id)
	if debugURL != "" {
		remote, err := fetchTrace(debugURL, id)
		if err != nil {
			return fmt.Errorf("fetching server spans: %w", err)
		}
		spans = append(spans, remote...)
	} else {
		fmt.Println("(no -trace-debug: rendering the client half only)")
	}
	renderTrace(spans)
	return nil
}

// traceLoopback runs the whole demonstration in one process: a
// two-tenant host served over a real socket, one traced search, both
// halves of the trace read from the shared span ring.
func traceLoopback() error {
	o := obs.NewObserver()
	sub := cas.New(nil)
	if err := sub.MkdirAll("/docs"); err != nil {
		return err
	}
	if _, err := corpus.Generate(sub, "/docs", corpus.Spec{Files: 120, Seed: *seed}); err != nil {
		return err
	}
	hfs := hac.New(sub, hac.Options{Observer: o})
	if _, err := hfs.Reindex("/"); err != nil {
		return err
	}
	host := serve.NewHost(0, o)
	if err := host.AddTenant("t0", hfs, serve.Quota{}, ""); err != nil {
		return err
	}
	host.SetDefault("t0")
	srv := remotefs.NewHostServer(host, nil)
	srv.SetObserver(o)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(l)
	defer srv.Close()

	mc := remotefs.DialMux(l.Addr().String())
	defer mc.Close()
	mc.SetObserver(o)
	q := *traceQuery
	if q == "" {
		q = "markermany"
	}
	sp, ctx := o.Tracer().StartCtx(context.Background(), "bench.trace")
	sp.Annotate("query", q)
	paths, _, err := mc.SearchPage(ctx, q, "/", 0, 16)
	sp.FinishErr(err)
	if err != nil {
		return fmt.Errorf("traced search: %w", err)
	}
	id := sp.Context().Trace
	fmt.Printf("== Distributed trace: search %q over loopback (%d matches) ==\n", q, len(paths))
	fmt.Printf("trace id: %s\n", id)
	renderTrace(o.Tracer().ByTrace(id))
	return nil
}

// fetchTrace pulls the server-side spans of one trace from a debug
// endpoint (obs.Serve's /debug/trace).
func fetchTrace(base string, id obs.TraceID) ([]*obs.Span, error) {
	u := strings.TrimRight(base, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	u += "/debug/trace?id=" + url.QueryEscape(id.String())
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	// obs.Span's exported, JSON-tagged fields round-trip; the unexported
	// runtime state stays zero, which rendering never touches.
	var spans []*obs.Span
	if err := json.Unmarshal(body, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", u, err)
	}
	return spans, nil
}

// renderTrace prints spans as a parent/child tree, children indented
// under their parent, siblings in start order. Spans whose parent is
// missing from the set (e.g. the ring evicted it) root the tree.
func renderTrace(spans []*obs.Span) {
	if len(spans) == 0 {
		fmt.Println("no spans retained for this trace")
		return
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	byID := make(map[obs.SpanID]*obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := make(map[obs.SpanID][]*obs.Span, len(spans))
	var roots []*obs.Span
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] != nil {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var render func(s *obs.Span, depth int)
	render = func(s *obs.Span, depth int) {
		line := fmt.Sprintf("%s%-24s %10.3fms", strings.Repeat("  ", depth), s.Name,
			float64(s.Dur)/float64(time.Millisecond))
		for _, a := range s.Attrs {
			line += fmt.Sprintf("  %s=%s", a.Key, a.Value)
		}
		if s.Err != "" {
			line += "  err=" + s.Err
		}
		fmt.Println(line)
		for _, c := range children[s.ID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	fmt.Printf("%d span(s)\n\n", len(spans))
}
