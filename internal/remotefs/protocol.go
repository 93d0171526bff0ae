// Package remotefs exports a whole file system over TCP — the
// machinery behind distributed syntactic mount points (§3 of the
// paper: "Connecting different file systems across a distributed
// system can be done with mount points... They allow different file
// systems to share certain directories").
//
// A Server wraps any vfs.FileSystem (a raw MemFS or a live HAC volume)
// and serves it; a MuxClient implements vfs.FileSystem, so the remote
// volume can be mounted into a local tree with MemFS.Mount, browsed,
// written to, and even used as the substrate of a local HAC layer.
// This is how one user's personal classification becomes visible to
// coworkers (§3.2).
//
// The protocol rides the wire package's multiplexed framing (DESIGN.md
// §12): every request and response is one self-contained frame payload
// with a fixed field schema (codec.go), any number of requests share a
// connection, and views onto different tenants of one server share it
// too.
package remotefs

import "hacfs/internal/vfs"

// Frame types.
const (
	rfReq  uint8 = 1 // client → server, payload = encoded request
	rfResp uint8 = 2 // server → client, payload = encoded response
)

// op codes.
type opCode uint8

const (
	opMkdir opCode = iota + 1
	opMkdirAll
	opOpenFile
	opReadFile
	opWriteFile
	opSymlink
	opReadlink
	opRemove
	opRemoveAll
	opRename
	opStat
	opLstat
	// opReadDir answers with the listing in name order, each entry the
	// child's whole Lstat Info in the codec opLstat uses (wire version
	// 3; version 2 carried only name, type and inode), so a listing
	// keeps the vfs.ReadDir contract across the wire.
	opReadDir
	// per-handle operations
	opFileRead
	opFileWrite
	opFileReadAt
	opFileWriteAt
	opFileSeek
	opFileTruncate
	opFileStat
	opFileClose
	opPing
	// opSearch asks the served file system for one cursor page of query
	// matches (Path = scope, Path2 = query, Offset = after-cursor,
	// N = page limit). Only file systems that implement Searcher — a HAC
	// volume — answer it; others reply Unsupported.
	opSearch
	// opSync restores scope consistency for the semantic directory at
	// Path (the paper's ssync, over the wire). Only file systems that
	// implement ContextSyncer — a HAC volume — answer it.
	opSync
	// opSearchStream is opSearch in streaming form: the server evaluates
	// the query once and returns every page of that one result as its
	// own response frame, the last one flagged final. N = page size,
	// Size = max pages (0 = all).
	opSearchStream
	// opManifest returns the served volume's content-addressed manifest
	// (encoded cas.Manifest in Data). Only volumes over a cas substrate
	// answer; others reply Unsupported, and a mirroring caller fails.
	opManifest
	// opBlobs fetches blob contents by hash: request Data is concatenated
	// 32-byte SHA-256 hashes, response Data is, per requested hash in
	// order, a u64 big-endian length followed by the content.
	opBlobs
)

// request is one marshalled operation.
type request struct {
	Op     opCode
	Tenant string // addressed volume; "" = the server's default
	Path   string
	Path2  string // rename destination / symlink target
	Data   []byte
	Flag   int
	Handle uint64
	Offset int64
	Whence int
	Size   int64
	N      int // read length
}

// response is one marshalled result.
type response struct {
	Err     error // the operation's error, typed by the wire error codec
	Data    []byte
	Info    vfs.Info
	Entries []vfs.DirEntry // opReadDir: each entry a whole Info
	Str     string
	Strs    []string // opSearch: one page of matching paths
	Handle  uint64
	N       int
	Off     int64 // seek result / opSearch next cursor
	EOF     bool
}
