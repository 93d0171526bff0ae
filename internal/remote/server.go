package remote

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"hacfs/internal/index"
	"hacfs/internal/obs"
	"hacfs/internal/query"
	"hacfs/internal/query/plan"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// Backend answers the two remote operations. SearchPageUnder serves one
// cursor page of a search restricted to scope ("" or "/" = the whole
// tree): the matches with DocID >= after, at most limit of them (<= 0 =
// all), the cursor of the next page (0 = done) and the index epoch the
// page was pinned against, so a paging caller can observe epoch drift.
// The context carries the caller's trace and deadline across the
// backend; a cluster coordinator fans it out to shards. IndexBackend is
// the standard implementation.
type Backend interface {
	SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) (paths []string, next, epoch uint64, err error)
	Fetch(path string) ([]byte, error)
}

// Resyncer is an optional Backend extension that rebuilds the served
// index from its document tree (the fResync frame). A
// cluster coordinator fans it out to every shard replica.
type Resyncer interface {
	Resync(ctx context.Context) error
}

// StatusBackend is an optional Backend extension reporting index state
// (the fStatus frame): the merge epoch, the mutation version and the
// live document count.
type StatusBackend interface {
	Status() (epoch, version uint64, docs int)
}

// IndexBackend serves searches from an index over a file system tree —
// a remote Glimpse, in the paper's terms.
type IndexBackend struct {
	ix   *index.Index
	fsys vfs.FileSystem
	root string

	resyncMu sync.Mutex // serializes Resync tree walks
}

// NewIndexBackend indexes the tree at root in fsys and serves it.
func NewIndexBackend(fsys vfs.FileSystem, root string) (*IndexBackend, error) {
	b := &IndexBackend{ix: index.New(), fsys: fsys, root: root}
	if _, _, _, err := b.ix.SyncTree(fsys, root, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// Index exposes the backend's index, e.g. for stats.
func (b *IndexBackend) Index() *index.Index { return b.ix }

// Resync re-walks the backend's document tree, folding any changes into
// the served index.
func (b *IndexBackend) Resync(_ context.Context) error {
	b.resyncMu.Lock()
	defer b.resyncMu.Unlock()
	_, _, _, err := b.ix.SyncTree(b.fsys, b.root, nil)
	return err
}

// Status reports the served index's epoch, version and live doc count.
func (b *IndexBackend) Status() (epoch, version uint64, docs int) {
	snap := b.ix.Snapshot()
	return snap.Epoch(), snap.Version(), b.ix.NumDocs()
}

// SearchPageUnder implements Backend: q is compiled with the cost-based
// planner against a pinned snapshot, restricted to scope. The nil Refs
// map makes dir: references, which have no meaning in a remote
// namespace, match nothing.
func (b *IndexBackend) SearchPageUnder(_ context.Context, q, scope string, after uint64, limit int) ([]string, uint64, uint64, error) {
	ast, err := query.Parse(q)
	if err != nil {
		if errors.Is(err, query.ErrEmpty) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, err
	}
	snap := b.ix.Snapshot()
	p, err := plan.Build(ast, plan.Scope{Prefix: scope}, &plan.SnapEnv{Snap: snap})
	if err != nil {
		return nil, 0, 0, err
	}
	bm, err := p.Exec()
	if err != nil {
		return nil, 0, 0, err
	}
	if after == 0 && limit <= 0 {
		// Unpaged: the full result, path-sorted as before.
		return snap.Paths(bm), 0, snap.Epoch(), nil
	}
	// One match beyond the page tells whether a next page exists.
	want := 0
	if limit > 0 {
		want = limit + 1
	}
	ids := bm.AppendFrom(nil, after, want)
	var next uint64
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
		next = ids[limit-1] + 1
	}
	return snap.PathsOf(ids), next, snap.Epoch(), nil
}

// Fetch reads one document.
func (b *IndexBackend) Fetch(path string) ([]byte, error) {
	return b.fsys.ReadFile(path)
}

// Server answers protocol connections from a Backend. The accept loop,
// the hello exchange and the per-connection reader are the wire
// package's; Serve, ListenAndServe and Close come from it.
type Server struct {
	*wire.Server
	backend Backend
	obsv    *obs.Observer
}

// NewServer returns a server for the given backend. logger may be nil
// to disable logging.
func NewServer(backend Backend, logger *log.Logger) *Server {
	s := &Server{backend: backend, obsv: obs.Default()}
	s.Server = wire.NewServer(maxFramePayload, maxConnInflight, logger,
		func() (wire.Handler, func()) { return s, nil })
	return s
}

// SetObserver redirects the server's spans and slow-op records, e.g.
// to a private observer in tests.
func (s *Server) SetObserver(o *obs.Observer) {
	if o == nil {
		o = obs.Discard()
	}
	s.obsv = o
}

// startOp opens a server span for one search operation. A trace the
// client propagated in the frame header is joined; untraced requests
// still get a root span, so the server's span ring sees every remote
// search. The companion finishOp closes the span and records the op in
// the slow log when it crossed the threshold.
func (s *Server) startOp(ctx context.Context, name, arg string) (*obs.Span, context.Context) {
	sp, ctx := s.obsv.Tracer().StartCtx(ctx, name)
	sp.Annotate("query", arg)
	return sp, ctx
}

func (s *Server) finishOp(sp *obs.Span, name, arg string, start time.Time, err error) {
	sp.FinishErr(err)
	dur := time.Since(start)
	if slow := s.obsv.Slow(); slow.Over(dur) {
		op := obs.SlowOp{Op: name, Arg: arg, Dur: dur}
		if sp != nil {
			op.Trace = sp.Context().Trace
		}
		if err != nil {
			op.Err = err.Error()
		}
		slow.Record(op)
	}
}

// ServeFrame implements wire.Handler.
func (s *Server) ServeFrame(ctx context.Context, w *wire.ResponseWriter, f wire.Frame) {
	switch f.Type {
	case fPing:
		w.Send(wire.Frame{Type: fPong, Flags: wire.FlagFinal, ID: f.ID})
	case fSearch:
		q, scope, after, pageSize, limitPages, err := decodeSearchReq(f.Payload)
		if err != nil {
			w.Err(f.ID, err)
			return
		}
		s.streamSearch(ctx, w, f.ID, q, scope, after, pageSize, limitPages)
	case fResync:
		rs, ok := s.backend.(Resyncer)
		if !ok {
			w.Err(f.ID, &vfs.PathError{Op: "resync", Path: "/", Err: vfs.ErrUnsupported})
			return
		}
		sp, opCtx := s.startOp(ctx, "remote.Resync", "")
		start := time.Now()
		err := rs.Resync(opCtx)
		s.finishOp(sp, "remote.Resync", "", start, err)
		if err != nil {
			w.Err(f.ID, err)
			return
		}
		w.Send(wire.Frame{Type: fOK, Flags: wire.FlagFinal, ID: f.ID})
	case fStatus:
		sb, ok := s.backend.(StatusBackend)
		if !ok {
			w.Err(f.ID, &vfs.PathError{Op: "status", Path: "/", Err: vfs.ErrUnsupported})
			return
		}
		epoch, version, docs := sb.Status()
		var b []byte
		b = wire.AppendUvarint(b, epoch)
		b = wire.AppendUvarint(b, version)
		b = wire.AppendUvarint(b, uint64(docs))
		w.Send(wire.Frame{Type: fStatV, Flags: wire.FlagFinal, ID: f.ID, Payload: b})
	case fFetch:
		d := wire.NewDec(f.Payload)
		path := d.String(maxField)
		if err := d.Close(); err != nil {
			w.Err(f.ID, err)
			return
		}
		data, err := s.backend.Fetch(path)
		if err != nil {
			w.Err(f.ID, err)
			return
		}
		if len(data) > maxFetch {
			w.Err(f.ID, errors.New("document too large"))
			return
		}
		w.Send(wire.Frame{Type: fData, Flags: wire.FlagFinal, ID: f.ID, Payload: data})
	default:
		w.Err(f.ID, fmt.Errorf("unknown frame type %d", f.Type))
	}
}

// streamSearch answers one fSearch request: it pages the result through
// the cursor machinery and streams one fPage frame per page, the last
// carrying FlagFinal. Every page is encoded into the same buffer, grown
// only when a page needs more: Send has copied it out by the time it
// returns.
func (s *Server) streamSearch(ctx context.Context, w *wire.ResponseWriter, id uint64, q, scope string, after uint64, pageSize, limitPages int) {
	if pageSize <= 0 {
		pageSize = 512
	}
	opName := "remote.Search"
	if scope != "" {
		opName = "remote.SearchUnder"
	}
	sp, opCtx := s.startOp(ctx, opName, q)
	start := time.Now()

	// Stream pages until the cursor runs out or the client's page
	// budget is spent.
	cursor := after
	var buf []byte
	for page := 0; ; page++ {
		paths, next, epoch, err := s.backend.SearchPageUnder(opCtx, q, scope, cursor, pageSize)
		if err != nil {
			s.finishOp(sp, opName, q, start, err)
			w.Err(id, err)
			return
		}
		final := next == 0 || (limitPages > 0 && page+1 >= limitPages)
		buf = encodePage(buf, epoch, next, paths)
		fr := wire.Frame{Type: fPage, ID: id, Payload: buf}
		if final {
			fr.Flags = wire.FlagFinal
		}
		if err := w.Send(fr); err != nil {
			s.finishOp(sp, opName, q, start, err)
			return
		}
		if final {
			s.finishOp(sp, opName, q, start, nil)
			return
		}
		cursor = next
	}
}
