package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/remotefs"
)

// traceRemote issues one traced paged search for query against the
// hacvold at addr (the first of tenants, or the default tenant) and
// renders the distributed trace as a tree. With debugURL set the server half of the trace is
// fetched from its /debug/trace endpoint; without it only the client
// half renders.
func traceRemote(addr string, tenants []string, debugURL string) error {
	o := obs.NewObserver()
	mc := remotefs.DialMux(addr)
	defer mc.Close()
	mc.SetObserver(o)
	view := mc
	if len(tenants) > 0 {
		view = mc.Tenant(tenants[0])
	}

	sp, ctx := o.Tracer().StartCtx(context.Background(), "hacload.trace")
	sp.Annotate("query", query)
	paths, _, err := view.SearchPageContext(ctx, query, "/", 0, 16)
	sp.FinishErr(err)
	if err != nil {
		return fmt.Errorf("traced search: %w", err)
	}
	id := sp.Context().Trace
	fmt.Printf("== Distributed trace: search %q on %s (%d matches) ==\n", query, addr, len(paths))
	fmt.Printf("trace id: %s\n", id)

	spans := o.Tracer().ByTrace(id)
	if debugURL != "" {
		remote, err := fetchTrace(debugURL, id)
		if err != nil {
			return fmt.Errorf("fetching server spans: %w", err)
		}
		spans = append(spans, remote...)
	} else {
		fmt.Println("(no -debug: rendering the client half only)")
	}
	renderTrace(spans)
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
