package remotefs

import (
	"context"
	"fmt"
	"io"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/wire"
)

// MuxClient is a vfs.FileSystem backed by a remote Server. All local
// layers compose over it: it can be mounted syntactically into a MemFS,
// or serve as the substrate of a local HAC volume. Any number of
// goroutines issue requests concurrently over ONE connection, each
// tagged with a request ID, and views onto different tenants of the
// same server share the connection (see Tenant).
type MuxClient struct {
	tenant string
	c      *wire.Client
	kv     []string // client span annotations: addr, and tenant when set
}

var _ vfs.FileSystem = (*MuxClient)(nil)

// DialMux creates a client for the server at addr, addressing the
// server's default volume. The connection is established lazily.
func DialMux(addr string) *MuxClient {
	return &MuxClient{
		c:  wire.NewClient(addr, maxFrameBuf, "remotefs", "op", methods),
		kv: []string{"addr", addr},
	}
}

// Tenant returns a view of the same connection addressing the named
// tenant volume. Views are independent and safe for concurrent use.
func (c *MuxClient) Tenant(name string) *MuxClient {
	return &MuxClient{tenant: name, c: c.c, kv: []string{"addr", c.c.Addr(), "tenant", name}}
}

// SetTimeout changes the dial / per-request deadline.
func (c *MuxClient) SetTimeout(d time.Duration) { c.c.SetTimeout(d) }

// SetObserver redirects the metrics and spans of the client and its
// tenant views to o.
func (c *MuxClient) SetObserver(o *obs.Observer) { c.c.SetObserver(o) }

// Close drops the connection (shared by all tenant views); later
// requests re-dial.
func (c *MuxClient) Close() error { return c.c.Close() }

// callCtx performs one framed round trip. The returned error is the
// transport's or the protocol's; the operation's own error is resp.Err.
func (c *MuxClient) callCtx(ctx context.Context, req *request) (*response, error) {
	req.Tenant = c.tenant
	f, err := c.c.Call(ctx, int(req.Op)-1, rfReq, appendRequest(nil, req), c.kv...)
	if err != nil {
		return nil, fmt.Errorf("remotefs: %w", err)
	}
	return decodeRespFrame(f)
}

func decodeRespFrame(f wire.Frame) (*response, error) {
	if f.Type != rfResp {
		return nil, fmt.Errorf("remotefs: unexpected frame type %d", f.Type)
	}
	var resp response
	if err := decodeResponse(f.Payload, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// op is callCtx with the operation's error folded into the returned
// one, which is how every file-system method reports it. The response
// is never nil, so callers can return its fields beside the error.
func (c *MuxClient) op(ctx context.Context, req *request) (*response, error) {
	resp, err := c.callCtx(ctx, req)
	if err != nil {
		return &response{}, err
	}
	return resp, resp.Err
}

// do is op without a context, for the vfs.FileSystem methods.
func (c *MuxClient) do(req *request) (*response, error) {
	return c.op(context.Background(), req)
}

// Ping checks liveness.
func (c *MuxClient) Ping() error { return c.PingContext(context.Background()) }

// PingContext checks liveness, bounded by ctx.
func (c *MuxClient) PingContext(ctx context.Context) error {
	_, err := c.op(ctx, &request{Op: opPing})
	return err
}

// SyncPath restores scope consistency for the semantic directory at
// path on the served volume (the paper's ssync, over the wire). Only
// servers exporting a HAC volume answer; others return
// vfs.ErrUnsupported.
func (c *MuxClient) SyncPath(path string) error {
	return c.SyncPathContext(context.Background(), path)
}

// SyncPathContext is SyncPath bounded by ctx.
func (c *MuxClient) SyncPathContext(ctx context.Context, path string) error {
	_, err := c.op(ctx, &request{Op: opSync, Path: path})
	return err
}

// SearchPageContext runs a content query on the served volume and returns one
// cursor page of matching paths: matches under scope starting at cursor
// after (0 = first page), at most limit of them, plus the cursor of the
// next page (0 = no more). Only servers exporting a searchable file
// system — a HAC volume — answer; others return vfs.ErrUnsupported.
func (c *MuxClient) SearchPageContext(ctx context.Context, query, scope string, after uint64, limit int) ([]string, uint64, error) {
	if after > (1<<63 - 1) {
		return nil, 0, fmt.Errorf("remotefs: search cursor overflow")
	}
	resp, err := c.op(ctx, &request{Op: opSearch, Path: scope, Path2: query, Offset: int64(after), N: limit})
	if err != nil {
		return nil, 0, err
	}
	return resp.Strs, uint64(resp.Off), nil
}

// SearchStream runs a content query and streams every result page
// through fn: the server evaluates the query once and ships one framed
// page of that result per callback, so a large result needs one
// request and one evaluation, not one of each per page. pageSize <= 0
// uses the server default.
//
// The page slice is refilled for every page of the stream: it is valid
// only until fn returns, so fn must copy the slice (append(dst,
// page...)) to keep it — the contract hac.FS.SearchStream's emit has.
// The strings themselves stay valid after fn returns; a page's paths
// share one backing string (wire.Dec.AppendStrings), so keeping one
// keeps that page's bytes.
func (c *MuxClient) SearchStream(ctx context.Context, query, scope string, pageSize int, fn func(paths []string) error) error {
	req := &request{Op: opSearchStream, Tenant: c.tenant, Path: scope, Path2: query, N: pageSize}
	var resp response
	return c.c.Stream(ctx, int(opSearchStream)-1, rfReq, appendRequest(nil, req), func(f wire.Frame) error {
		if f.Type != rfResp {
			return fmt.Errorf("remotefs: unexpected frame type %d", f.Type)
		}
		// Only Strs carries over: decodeResponse appends the page to its
		// emptied storage.
		resp = response{Strs: resp.Strs[:0]}
		if err := decodeResponse(f.Payload, &resp); err != nil {
			return err
		}
		if resp.Err != nil {
			return resp.Err
		}
		if len(resp.Strs) > 0 || f.Final() {
			return fn(resp.Strs)
		}
		return nil
	}, c.kv...)
}

// ReadFileContext reads a whole remote file, bounded by ctx.
func (c *MuxClient) ReadFileContext(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.op(ctx, &request{Op: opReadFile, Path: path})
	return resp.Data, err
}

// ReadDirContext lists a remote directory, bounded by ctx.
func (c *MuxClient) ReadDirContext(ctx context.Context, path string) ([]vfs.DirEntry, error) {
	resp, err := c.op(ctx, &request{Op: opReadDir, Path: path})
	return resp.Entries, err
}

// StatContext returns remote metadata, bounded by ctx.
func (c *MuxClient) StatContext(ctx context.Context, path string) (vfs.Info, error) {
	resp, err := c.op(ctx, &request{Op: opStat, Path: path})
	return resp.Info, err
}

// Mkdir creates a directory on the remote volume.
func (c *MuxClient) Mkdir(path string) error {
	_, err := c.do(&request{Op: opMkdir, Path: path})
	return err
}

// MkdirAll creates a directory and missing parents.
func (c *MuxClient) MkdirAll(path string) error {
	_, err := c.do(&request{Op: opMkdirAll, Path: path})
	return err
}

// Create creates or truncates a remote file.
func (c *MuxClient) Create(path string) (vfs.File, error) {
	return c.OpenFile(path, vfs.ORead|vfs.OWrite|vfs.OCreate|vfs.OTrunc)
}

// Open opens a remote file for reading.
func (c *MuxClient) Open(path string) (vfs.File, error) {
	return c.OpenFile(path, vfs.ORead)
}

// OpenFile opens a remote file.
func (c *MuxClient) OpenFile(path string, flag int) (vfs.File, error) {
	resp, err := c.do(&request{Op: opOpenFile, Path: path, Flag: flag})
	if err != nil {
		return nil, err
	}
	return &muxFile{c: c, handle: resp.Handle, name: path}, nil
}

// ReadFile reads a whole remote file.
func (c *MuxClient) ReadFile(path string) ([]byte, error) {
	return c.ReadFileContext(context.Background(), path)
}

// WriteFile writes a whole remote file.
func (c *MuxClient) WriteFile(path string, data []byte) error {
	_, err := c.do(&request{Op: opWriteFile, Path: path, Data: data})
	return err
}

// Symlink creates a remote symbolic link.
func (c *MuxClient) Symlink(target, link string) error {
	_, err := c.do(&request{Op: opSymlink, Path: link, Path2: target})
	return err
}

// Readlink reads a remote symbolic link.
func (c *MuxClient) Readlink(path string) (string, error) {
	resp, err := c.do(&request{Op: opReadlink, Path: path})
	return resp.Str, err
}

// Remove deletes one remote object.
func (c *MuxClient) Remove(path string) error {
	_, err := c.do(&request{Op: opRemove, Path: path})
	return err
}

// RemoveAll deletes a remote subtree.
func (c *MuxClient) RemoveAll(path string) error {
	_, err := c.do(&request{Op: opRemoveAll, Path: path})
	return err
}

// Rename moves a remote object.
func (c *MuxClient) Rename(oldPath, newPath string) error {
	_, err := c.do(&request{Op: opRename, Path: oldPath, Path2: newPath})
	return err
}

// Stat returns remote metadata, following symlinks.
func (c *MuxClient) Stat(path string) (vfs.Info, error) {
	return c.StatContext(context.Background(), path)
}

// Lstat returns remote metadata without following a final symlink.
func (c *MuxClient) Lstat(path string) (vfs.Info, error) {
	resp, err := c.do(&request{Op: opLstat, Path: path})
	return resp.Info, err
}

// ReadDir lists a remote directory.
func (c *MuxClient) ReadDir(path string) ([]vfs.DirEntry, error) {
	return c.ReadDirContext(context.Background(), path)
}

// muxFile is an open handle on the server, reached over the shared
// connection.
type muxFile struct {
	c      *MuxClient
	handle uint64
	name   string
}

var _ vfs.File = (*muxFile)(nil)

func (f *muxFile) Name() string { return f.name }

// read performs Read or ReadAt: the server reports end of file as a
// flag beside the data, not as an error.
func (f *muxFile) read(req *request, p []byte) (int, error) {
	req.Handle, req.N = f.handle, len(p)
	resp, err := f.c.do(req)
	if err != nil {
		return 0, err
	}
	n := copy(p, resp.Data)
	if resp.EOF {
		return n, io.EOF
	}
	return n, nil
}

func (f *muxFile) Read(p []byte) (int, error) { return f.read(&request{Op: opFileRead}, p) }

func (f *muxFile) ReadAt(p []byte, off int64) (int, error) {
	return f.read(&request{Op: opFileReadAt, Offset: off}, p)
}

func (f *muxFile) Write(p []byte) (int, error) {
	resp, err := f.c.do(&request{Op: opFileWrite, Handle: f.handle, Data: p})
	return resp.N, err
}

func (f *muxFile) WriteAt(p []byte, off int64) (int, error) {
	resp, err := f.c.do(&request{Op: opFileWriteAt, Handle: f.handle, Data: p, Offset: off})
	return resp.N, err
}

func (f *muxFile) Seek(offset int64, whence int) (int64, error) {
	resp, err := f.c.do(&request{Op: opFileSeek, Handle: f.handle, Offset: offset, Whence: whence})
	return resp.Off, err
}

func (f *muxFile) Truncate(size int64) error {
	_, err := f.c.do(&request{Op: opFileTruncate, Handle: f.handle, Size: size})
	return err
}

func (f *muxFile) Stat() (vfs.Info, error) {
	resp, err := f.c.do(&request{Op: opFileStat, Handle: f.handle})
	return resp.Info, err
}

func (f *muxFile) Close() error {
	_, err := f.c.do(&request{Op: opFileClose, Handle: f.handle})
	return err
}
