package remotefs

import (
	"context"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
	"hacfs/internal/wire"
)

// Volumes resolves tenant names to exported file systems and admits
// requests — the seam between the protocol layer and the multi-tenant
// serving layer (internal/serve implements it with quotas, admission
// control and fair scheduling). A single-volume server wraps its one
// file system in soloVolumes.
type Volumes interface {
	// Volume returns the file system serving the named tenant ("" is
	// the default volume).
	Volume(tenant string) (vfs.FileSystem, error)
	// Admit asks to run one operation for the tenant. It may block
	// until a fair-scheduling slot is free; the returned release must
	// be called when the operation finishes. A backpressure or
	// shutdown rejection comes back as a *vfs.PathError so it travels
	// the wire typed.
	Admit(tenant, op string) (release func(), err error)
}

// soloVolumes exports one file system as the default tenant, with no
// admission control — the pre-multi-tenant behavior.
type soloVolumes struct{ fsys vfs.FileSystem }

func (s soloVolumes) Volume(tenant string) (vfs.FileSystem, error) {
	if tenant != "" {
		return nil, &vfs.PathError{Op: "volume", Path: "/" + tenant, Err: vfs.ErrNotExist}
	}
	return s.fsys, nil
}

func (s soloVolumes) Admit(tenant, op string) (func(), error) { return func() {}, nil }

// Server exports file systems to any number of clients. The accept
// loop, the hello exchange and the per-connection reader are the wire
// package's; Serve, ListenAndServe, CloseListener (stop accepting, keep
// serving — then drain the volumes, checkpoint, Close) and Close come
// from it. Each connection gets a session holding its open handles.
type Server struct {
	*wire.Server
	vols Volumes
	obsv *obs.Observer
}

// NewServer returns a server exporting fsys as its only volume. logger
// may be nil.
func NewServer(fsys vfs.FileSystem, logger *log.Logger) *Server {
	return NewHostServer(soloVolumes{fsys}, logger)
}

// NewHostServer returns a server routing requests through vols — the
// multi-tenant form (see internal/serve.Host).
func NewHostServer(vols Volumes, logger *log.Logger) *Server {
	s := &Server{vols: vols, obsv: obs.Default()}
	s.Server = wire.NewServer(maxFrameBuf, maxConnInflight, logger, func() (wire.Handler, func()) {
		sess := newSession(s.vols, s.obsv)
		return sess, sess.closeAll
	})
	return s
}

// SetObserver redirects the server's spans and slow-op log to o (they
// default to the process-wide obs.Default()). Call before Serve.
func (s *Server) SetObserver(o *obs.Observer) { s.obsv = o }

// Searcher is the optional content-search surface a served file system
// may provide; hac.FS implements it and serving wrappers forward it.
// The contract is hac.FS.SearchStream's: one evaluation, every page
// from it, a stop between pages once ctx is done.
type Searcher interface {
	SearchStream(ctx context.Context, query, scope string, after uint64, pageSize, maxPages int, emit func(page []string, next uint64) error) error
}

// BlobSource is the optional content-addressed surface a served volume
// may provide (hac.FS over a cas substrate implements it, and serving
// wrappers forward it). It powers manifest-diff replication: a replica
// fetches the manifest, diffs blob hashes against its own store, and
// fetches only what it is missing.
type BlobSource interface {
	// CASManifest returns the live manifest of the volume's
	// content-addressed substrate.
	CASManifest() (*cas.Manifest, error)
	// CASBlobs returns the content of each requested blob, in request
	// order. A missing blob is an error wrapping vfs.ErrNotExist.
	CASBlobs(hashes []cas.Hash) ([][]byte, error)
}

// PathSyncer is the optional scope-consistency surface; hac.FS
// implements it (the paper's ssync command, served over the wire).
type PathSyncer interface {
	SyncPath(path string) error
}

// ContextSyncer is PathSyncer with the request context threaded
// through, so a propagated trace (and tenant baggage) reaches the
// engine's spans; hac.FS implements it.
type ContextSyncer interface {
	SyncPathContext(ctx context.Context, path string) error
}

// handleState is one open file handle plus the lock that serializes
// multiplexed operations on it (vfs.File is not concurrency-safe).
type handleState struct {
	mu     sync.Mutex
	f      vfs.File
	tenant string
}

// session is one client connection's state. The handle table is locked
// because a connection's requests execute concurrently.
type session struct {
	vols Volumes
	obsv *obs.Observer

	mu         sync.Mutex
	handles    map[uint64]*handleState
	nextHandle uint64
}

func newSession(vols Volumes, obsv *obs.Observer) *session {
	return &session{vols: vols, obsv: obsv, handles: make(map[uint64]*handleState)}
}

func (sess *session) closeAll() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for _, h := range sess.handles {
		h.f.Close()
	}
	sess.handles = map[uint64]*handleState{}
}

func (sess *session) addHandle(f vfs.File, tenant string) uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.nextHandle++
	sess.handles[sess.nextHandle] = &handleState{f: f, tenant: tenant}
	return sess.nextHandle
}

func (sess *session) handle(id uint64) (*handleState, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	h, ok := sess.handles[id]
	return h, ok
}

func (sess *session) dropHandle(id uint64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	delete(sess.handles, id)
}

// maxConnInflight bounds concurrently executing requests per
// connection, protecting the server from one hostile client.
const maxConnInflight = 256

func sendResp(w *wire.ResponseWriter, id uint64, flags uint8, resp *response) error {
	return w.Send(wire.Frame{Type: rfResp, Flags: flags, ID: id, Payload: encodeResponse(nil, resp)})
}

// errf builds a server-made error carrying a vfs sentinel.
func errf(sentinel error, what string) error {
	return fmt.Errorf("remotefs: %s: %w", what, sentinel)
}

// ServeFrame answers one request frame: responses interleave by ID, and
// a streamed search emits one frame per page.
func (sess *session) ServeFrame(ctx context.Context, w *wire.ResponseWriter, f wire.Frame) {
	if f.Type != rfReq {
		w.Err(f.ID, fmt.Errorf("unexpected frame type %d", f.Type))
		return
	}
	var req request
	if err := decodeRequest(f.Payload, &req); err != nil {
		w.Err(f.ID, err)
		return
	}
	if req.Op == opSearchStream {
		sess.streamSearch(ctx, w, f.ID, &req)
		return
	}
	sendResp(w, f.ID, wire.FlagFinal, sess.dispatch(ctx, &req))
}

// streamSearch answers a streamed search from one evaluation, emitting
// one response frame per page; the last page carries FlagFinal. Page
// size comes from req.N, an optional page budget from req.Size. Every
// page is encoded into the same buffer — Send has copied it out by the
// time it returns. The stream ends at the next page boundary once the
// connection is gone (ctx), releasing its admission slot.
func (sess *session) streamSearch(ctx context.Context, w *wire.ResponseWriter, id uint64, req *request) {
	fsys, tenant, release, err := sess.admit(req)
	if err != nil {
		sendResp(w, id, wire.FlagFinal, &response{Err: err})
		return
	}
	defer release()
	ctx = obs.WithTenant(ctx, tenant)
	sp, ctx := sess.startOp(ctx, req, tenant)
	start := time.Now()
	pageSize := req.N
	if pageSize <= 0 {
		pageSize = 512
	}
	var buf []byte
	var resp response
	err = search(ctx, fsys, req, pageSize, int(req.Size), func(page []string, next int64, final bool) error {
		var flags uint8
		if final {
			flags = wire.FlagFinal
		}
		resp.Strs, resp.Off = page, next
		buf = encodeResponse(buf, &resp)
		return w.Send(wire.Frame{Type: rfResp, Flags: flags, ID: id, Payload: buf})
	})
	if err != nil {
		sendResp(w, id, wire.FlagFinal, &response{Err: err})
	}
	sess.finishOp(ctx, sp, req, start, err)
}

// search runs req's query against the volume as one evaluation and
// hands emit each page with its resume cursor; final marks the page
// that ends the result or spends the maxPages budget (<= 0 = none).
func search(ctx context.Context, fsys vfs.FileSystem, req *request, pageSize, maxPages int, emit func(page []string, next int64, final bool) error) error {
	sr, ok := fsys.(Searcher)
	if !ok {
		return errf(vfs.ErrUnsupported, "file system is not searchable")
	}
	if req.Offset < 0 {
		return errf(vfs.ErrInvalid, "negative search cursor")
	}
	pages := 0
	return sr.SearchStream(ctx, req.Path2, req.Path, uint64(req.Offset), pageSize, maxPages, func(page []string, next uint64) error {
		if next > (1<<63 - 1) {
			return errf(vfs.ErrInvalid, "search cursor overflow")
		}
		pages++
		return emit(page, int64(next), next == 0 || pages == maxPages)
	})
}

// admit resolves the request's tenant volume and passes admission
// control. Handle-bound operations charge the tenant the handle was
// opened for.
func (sess *session) admit(req *request) (vfs.FileSystem, string, func(), error) {
	tenant := req.Tenant
	if req.Op >= opFileRead && req.Op <= opFileClose {
		if h, ok := sess.handle(req.Handle); ok {
			tenant = h.tenant
		}
	}
	fsys, err := sess.vols.Volume(tenant)
	if err != nil {
		return nil, tenant, nil, err
	}
	release, err := sess.vols.Admit(tenant, opNames[req.Op])
	if err != nil {
		return nil, tenant, nil, err
	}
	return fsys, tenant, release, nil
}

// startOp opens the server-side span for one request, parented to the
// span context the client shipped in the frame header, which the wire
// server put in ctx (none = the request arrived untraced). Cheap ops only get a span when the client
// propagated a trace (so an untraced fread storm costs nothing); the
// semantic ops worth tracing standalone — search, streamed search,
// sync — always do.
func (sess *session) startOp(ctx context.Context, req *request, tenant string) (*obs.Span, context.Context) {
	parent, traced := obs.FromContext(ctx)
	if !traced {
		switch req.Op {
		case opSearch, opSearchStream, opSync:
		default:
			return nil, ctx
		}
	}
	var sp *obs.Span
	if tenant != "" {
		sp = sess.obsv.Tracer().StartRemote(parent, rfsSpanNames[req.Op], "tenant", tenant)
	} else {
		sp = sess.obsv.Tracer().StartRemote(parent, rfsSpanNames[req.Op])
	}
	if sp == nil {
		// Tracing disabled here; ctx still forwards the inbound trace, so
		// an engine with its own observer can join it.
		return nil, ctx
	}
	return sp, obs.ContextWithSpan(ctx, sp)
}

// finishOp closes the request's span and records it in the slow-op log
// when over threshold.
func (sess *session) finishOp(ctx context.Context, sp *obs.Span, req *request, start time.Time, err error) {
	sp.FinishErr(err)
	dur := time.Since(start)
	if slow := sess.obsv.Slow(); slow.Over(dur) {
		op := obs.SlowOp{
			Op:     rfsSpanNames[req.Op],
			Tenant: obs.TenantFromContext(ctx),
			Dur:    dur,
		}
		if sc, ok := obs.FromContext(ctx); ok {
			op.Trace = sc.Trace
		}
		switch req.Op {
		case opSearch, opSearchStream:
			op.Arg = req.Path2
		default:
			op.Arg = req.Path
		}
		if err != nil {
			op.Err = err.Error()
		}
		slow.Record(op)
	}
}

// dispatch admits and executes one request.
func (sess *session) dispatch(ctx context.Context, req *request) *response {
	if req.Op == opPing {
		return &response{}
	}
	fsys, tenant, release, err := sess.admit(req)
	if err != nil {
		return &response{Err: err}
	}
	defer release()
	ctx = obs.WithTenant(ctx, tenant)
	sp, ctx := sess.startOp(ctx, req, tenant)
	start := time.Now()
	resp := sess.exec(ctx, fsys, req)
	sess.finishOp(ctx, sp, req, start, resp.Err)
	return resp
}

// exec performs one operation against the resolved volume.
func (sess *session) exec(ctx context.Context, fsys vfs.FileSystem, req *request) *response {
	switch req.Op {
	case opMkdir:
		return &response{Err: fsys.Mkdir(req.Path)}
	case opMkdirAll:
		return &response{Err: fsys.MkdirAll(req.Path)}
	case opOpenFile:
		f, err := fsys.OpenFile(req.Path, req.Flag)
		if err != nil {
			return &response{Err: err}
		}
		return &response{Handle: sess.addHandle(f, req.Tenant)}
	case opReadFile:
		data, err := fsys.ReadFile(req.Path)
		return &response{Data: data, Err: err}
	case opWriteFile:
		return &response{Err: fsys.WriteFile(req.Path, req.Data)}
	case opSymlink:
		return &response{Err: fsys.Symlink(req.Path2, req.Path)}
	case opReadlink:
		str, err := fsys.Readlink(req.Path)
		return &response{Str: str, Err: err}
	case opRemove:
		return &response{Err: fsys.Remove(req.Path)}
	case opRemoveAll:
		return &response{Err: fsys.RemoveAll(req.Path)}
	case opRename:
		return &response{Err: fsys.Rename(req.Path, req.Path2)}
	case opStat:
		info, err := fsys.Stat(req.Path)
		return &response{Info: info, Err: err}
	case opLstat:
		info, err := fsys.Lstat(req.Path)
		return &response{Info: info, Err: err}
	case opReadDir:
		entries, err := fsys.ReadDir(req.Path)
		return &response{Entries: entries, Err: err}
	case opManifest:
		bs, ok := fsys.(BlobSource)
		if !ok {
			return &response{Err: errf(vfs.ErrUnsupported, "volume is not content-addressed")}
		}
		m, err := bs.CASManifest()
		if err != nil {
			return &response{Err: err}
		}
		return &response{Data: m.EncodeBinary()}
	case opBlobs:
		bs, ok := fsys.(BlobSource)
		if !ok {
			return &response{Err: errf(vfs.ErrUnsupported, "volume is not content-addressed")}
		}
		hashes, err := splitHashes(req.Data)
		if err != nil {
			return &response{Err: fmt.Errorf("%w: %w", vfs.ErrInvalid, err)}
		}
		blobs, err := bs.CASBlobs(hashes)
		if err != nil {
			return &response{Err: err}
		}
		data, err := encodeBlobList(blobs)
		if err != nil {
			return &response{Err: fmt.Errorf("%w: %w", vfs.ErrInvalid, err)}
		}
		return &response{Data: data, N: len(blobs)}
	case opSync:
		if cs, ok := fsys.(ContextSyncer); ok {
			return &response{Err: cs.SyncPathContext(ctx, req.Path)}
		}
		ps, ok := fsys.(PathSyncer)
		if !ok {
			return &response{Err: errf(vfs.ErrUnsupported, "file system has no semantic layer")}
		}
		return &response{Err: ps.SyncPath(req.Path)}
	case opSearch:
		resp := &response{}
		resp.Err = search(ctx, fsys, req, req.N, 1, func(page []string, next int64, _ bool) error {
			resp.Strs, resp.Off = page, next
			return nil
		})
		return resp
	}

	// Handle-based operations.
	h, ok := sess.handle(req.Handle)
	if !ok {
		return &response{Err: errf(vfs.ErrClosed, "unknown handle")}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	f := h.f
	switch req.Op {
	case opFileRead:
		n := req.N
		if n <= 0 || n > maxIO {
			n = 64 << 10
		}
		buf := make([]byte, n)
		rn, err := f.Read(buf)
		resp := &response{Data: buf[:rn], N: rn}
		if err == io.EOF {
			resp.EOF = true
		} else if err != nil {
			resp.Err = err
		}
		return resp
	case opFileReadAt:
		n := req.N
		if n <= 0 || n > maxIO {
			n = 64 << 10
		}
		buf := make([]byte, n)
		rn, err := f.ReadAt(buf, req.Offset)
		resp := &response{Data: buf[:rn], N: rn}
		if err == io.EOF {
			resp.EOF = true
		} else if err != nil {
			resp.Err = err
		}
		return resp
	case opFileWrite:
		n, err := f.Write(req.Data)
		return &response{N: n, Err: err}
	case opFileWriteAt:
		n, err := f.WriteAt(req.Data, req.Offset)
		return &response{N: n, Err: err}
	case opFileSeek:
		off, err := f.Seek(req.Offset, req.Whence)
		return &response{Off: off, Err: err}
	case opFileTruncate:
		return &response{Err: f.Truncate(req.Size)}
	case opFileStat:
		info, err := f.Stat()
		return &response{Info: info, Err: err}
	case opFileClose:
		sess.dropHandle(req.Handle)
		return &response{Err: f.Close()}
	default:
		return &response{Err: errf(vfs.ErrUnsupported, "unknown op")}
	}
}
