package remote

import (
	"context"
	"fmt"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/wire"
)

// The client's methods, as the wire call layer indexes them. The three
// search shapes share the "search" series and differ in span name.
const (
	mPing = iota
	mSearch
	mSearchPage
	mSearchUnder
	mFetch
	mResync
	mStatus
)

var methods = []wire.Method{
	mPing:        {Label: "ping", Span: "rpc.remote.Ping"},
	mSearch:      {Label: "search", Span: "rpc.remote.Search", Mint: true},
	mSearchPage:  {Label: "search", Span: "rpc.remote.SearchPage", Mint: true},
	mSearchUnder: {Label: "search", Span: "rpc.remote.SearchUnder", Mint: true},
	mFetch:       {Label: "fetch", Span: "rpc.remote.Fetch"},
	mResync:      {Label: "resync", Span: "rpc.remote.Resync", Mint: true},
	mStatus:      {Label: "status", Span: "rpc.remote.Status"},
}

// BinClient talks the remote CBA protocol and implements hac.Namespace
// and hac.ContextNamespace, so evaluation passes can bound every call
// with a context. Many requests proceed concurrently on one
// connection, re-dialed lazily after a failure, and search results
// stream in pages.
type BinClient struct {
	name string
	c    *wire.Client
}

// DialBin creates a client for the server at addr. name becomes the
// namespace name inside the HAC volume. No connection is made until the
// first request.
func DialBin(name, addr string) *BinClient {
	return &BinClient{name: name, c: wire.NewClient(addr, maxFramePayload, "remote", "method", methods)}
}

// SetObserver redirects the client's metrics and spans (they default to
// the process-wide obs.Default()).
func (c *BinClient) SetObserver(o *obs.Observer) { c.c.SetObserver(o) }

// SetTimeout changes the dial/request deadline.
func (c *BinClient) SetTimeout(d time.Duration) { c.c.SetTimeout(d) }

// Name returns the namespace name.
func (c *BinClient) Name() string { return c.name }

// Close tears down the connection; later requests re-dial.
func (c *BinClient) Close() error { return c.c.Close() }

// call performs a single-frame round trip and checks the reply type.
func (c *BinClient) call(ctx context.Context, m int, typ, want uint8, payload []byte) (wire.Frame, error) {
	f, err := c.c.Call(ctx, m, typ, payload)
	if err == nil && f.Type != want {
		err = fmt.Errorf("remote: unexpected frame type %d", f.Type)
	}
	return f, err
}

// Ping checks liveness.
func (c *BinClient) Ping() error { return c.PingContext(context.Background()) }

// PingContext checks liveness, bounded by ctx.
func (c *BinClient) PingContext(ctx context.Context) error {
	_, err := c.call(ctx, mPing, fPing, fPong, nil)
	return err
}

// search issues one search call and gathers every streamed page frame:
// all the paths, plus the last page's next cursor and serving epoch.
func (c *BinClient) search(ctx context.Context, m int, q, scope string, after uint64, pageSize, limitPages int) (paths []string, next, epoch uint64, err error) {
	err = c.c.Stream(ctx, m, fSearch, appendSearchReq(nil, q, scope, after, pageSize, limitPages), func(f wire.Frame) error {
		if f.Type != fPage {
			return fmt.Errorf("remote: unexpected frame type %d", f.Type)
		}
		page, n, e, err := decodePage(f.Payload)
		if err != nil {
			return err
		}
		paths = append(paths, page...)
		next, epoch = n, e
		return nil
	}, "query", q)
	if err != nil {
		return nil, 0, 0, err
	}
	return paths, next, epoch, nil
}

// Search evaluates a query on the remote system, streaming all result
// pages.
func (c *BinClient) Search(q string) ([]string, error) {
	return c.SearchContext(context.Background(), q)
}

// SearchContext is Search bounded by ctx.
func (c *BinClient) SearchContext(ctx context.Context, q string) ([]string, error) {
	paths, _, _, err := c.search(ctx, mSearch, q, "", 0, 0, 0)
	return paths, err
}

// SearchPage fetches one cursor page of matches: at most limit paths
// starting at cursor after (0 = first page), plus the cursor of the
// next page (0 = no more). The cursor is opaque; pass it back verbatim.
// The server streams; asking for one page bounds the stream to one
// frame.
func (c *BinClient) SearchPage(ctx context.Context, q string, after uint64, limit int) ([]string, uint64, error) {
	paths, next, _, err := c.search(ctx, mSearchPage, q, "", after, limit, 1)
	return paths, next, err
}

// SearchPageUnder fetches one scope-restricted cursor page, plus the
// index epoch the server pinned it against — the shard-facing call a
// cluster coordinator fans out (DESIGN.md §14).
func (c *BinClient) SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) ([]string, uint64, uint64, error) {
	return c.search(ctx, mSearchUnder, q, scope, after, limit, 1)
}

// SearchUnderContext streams every result page of a scope-restricted
// query and returns all matching paths.
func (c *BinClient) SearchUnderContext(ctx context.Context, q, scope string) ([]string, error) {
	paths, _, _, err := c.search(ctx, mSearchUnder, q, scope, 0, 0, 0)
	return paths, err
}

// Resync asks the server to rebuild its index from the document tree.
func (c *BinClient) Resync(ctx context.Context) error {
	_, err := c.call(ctx, mResync, fResync, fOK, nil)
	return err
}

// Status reports the server's index epoch, mutation version and live
// document count.
func (c *BinClient) Status(ctx context.Context) (epoch, version uint64, docs int, err error) {
	f, err := c.call(ctx, mStatus, fStatus, fStatV, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	d := wire.NewDec(f.Payload)
	epoch = d.Uvarint()
	version = d.Uvarint()
	docs = int(d.Uvarint())
	return epoch, version, docs, d.Close()
}

// Fetch retrieves one remote document.
func (c *BinClient) Fetch(path string) ([]byte, error) {
	return c.FetchContext(context.Background(), path)
}

// FetchContext is Fetch bounded by ctx.
func (c *BinClient) FetchContext(ctx context.Context, path string) ([]byte, error) {
	f, err := c.call(ctx, mFetch, fFetch, fData, wire.AppendString(nil, path))
	if err != nil {
		return nil, err
	}
	return f.Payload, nil
}
