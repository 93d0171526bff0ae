package remote

import (
	"context"
	"testing"
	"time"

	"hacfs/internal/obs"
)

// TestTraceJoinsServerSpan: a traced client search stamps its span
// context into the request frame's trace header, so the server-side
// span joins the caller's trace with the client RPC span as its parent.
func TestTraceJoinsServerSpan(t *testing.T) {
	clientObs, srvObs := obs.NewObserver(), obs.NewObserver()
	c, srv := startServer(t)
	srv.SetObserver(srvObs)
	c.SetObserver(clientObs)

	root, ctx := clientObs.Tracer().StartCtx(context.Background(), "test.root")
	paths, err := c.SearchContext(ctx, "fingerprint")
	root.FinishErr(err)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("search returned nothing")
	}

	id := root.Trace
	var rpc *obs.Span
	for _, sp := range clientObs.Tracer().ByTrace(id) {
		if sp.Name == "rpc.remote.Search" {
			rpc = sp
		}
	}
	if rpc == nil || rpc.Parent != root.ID {
		t.Fatalf("client ring: rpc span %+v, want child of root %d", rpc, root.ID)
	}
	// The server finishes its span around writing the reply; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var joined *obs.Span
		for _, sp := range srvObs.Tracer().ByTrace(id) {
			if sp.Name == "remote.Search" {
				joined = sp
			}
		}
		if joined != nil {
			if joined.Parent != rpc.ID {
				t.Fatalf("server span parent = %d, want client rpc span %d", joined.Parent, rpc.ID)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never retained a remote.Search span for trace %s", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
