// Package hacfs is a Go implementation of HAC ("Hierarchy And
// Content"), the file system of Gopal & Manber's OSDI 1999 paper
// "Integrating Content-Based Access Mechanisms with Hierarchical File
// Systems".
//
// HAC combines name-based and content-based access to files: it is a
// complete hierarchical file system in which any directory may carry a
// query. Such semantic directories are populated with symbolic links to
// the files matching the query, yet remain ordinary directories — files
// and links can be added, removed, renamed and the system keeps query
// results consistent with the user's manual edits (the paper's scope
// consistency), re-indexes lazily (data consistency), and can import
// results from remote query systems through semantic mount points.
//
// # Quick start
//
//	fs := hacfs.NewVolume()                       // in-memory HAC volume
//	fs.MkdirAll("/notes")
//	fs.WriteFile("/notes/a.txt", []byte("fingerprint matching"))
//	fs.Reindex("/")                               // index the volume
//	fs.SemDir("/fp", "fingerprint")               // semantic directory
//	entries, _ := fs.ReadDir("/fp")               // links to matches
//
// # Options
//
// Volumes and evaluation passes are configured with functional options:
//
//	fs := hacfs.New(hacfs.NewMemFS(),
//	        hacfs.WithParallelism(0),  // 0 = NumCPU workers
//	        hacfs.WithVerify(true))
//	fs.Reindex("/")                               // parallel tokenize
//	fs.SyncAll(hacfs.WithParallelism(1))          // serial, this pass only
//
// Options given to New become the volume's defaults; options given to
// Sync, SyncAll or Reindex override them for that pass.
//
// # Errors
//
// Failures carry the failing operation and path as a *PathError;
// errors.As recovers it while errors.Is keeps matching the sentinels:
//
//	err := fs.SetQuery("/plain", "q")
//	var pe *hacfs.PathError
//	errors.As(err, &pe)                  // pe.Path == "/plain"
//	errors.Is(err, hacfs.ErrNotSemantic) // true
//
// The package is a thin facade: the implementation lives in internal
// packages (internal/hac for the HAC layer, internal/vfs for the
// substrate, internal/remote for the network protocol), re-exported
// here as aliases so downstream users have one import path.
package hacfs

import (
	"io"
	"log"
	"net"

	"hacfs/internal/catalog"
	"hacfs/internal/hac"
	"hacfs/internal/index"
	"hacfs/internal/obs"
	"hacfs/internal/remote"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
)

// FS is a HAC file system. It implements FileSystem (all hierarchical
// operations) and adds the semantic operations: SemDir, SetQuery,
// Sync, Reindex, SemanticMount, Links, Extract, and so on.
type FS = hac.FS

// Options configures a HAC volume (struct form; the functional Option
// values below are the preferred interface).
type Options = hac.Options

// Option is a functional configuration value accepted by New and, for
// per-pass overrides, by FS.Sync, FS.SyncAll and FS.Reindex.
type Option = hac.Option

// Functional options.
var (
	// WithParallelism sets the worker count for Reindex tokenization
	// and within-level query re-evaluation (0 = NumCPU, 1 = serial).
	WithParallelism = hac.WithParallelism
	// WithVerify toggles Glimpse-style verification of query matches.
	WithVerify = hac.WithVerify
	// WithContext bounds one evaluation pass with a context.
	WithContext = hac.WithContext
	// WithAttrCacheSize bounds the attribute cache (construction only).
	WithAttrCacheSize = hac.WithAttrCacheSize
	// WithRemoteTimeout bounds each remote-namespace RPC (construction
	// only; default 10s).
	WithRemoteTimeout = hac.WithRemoteTimeout
	// WithTransducer registers an attribute transducer (construction
	// only).
	WithTransducer = hac.WithTransducer
	// WithObserver directs a volume's metrics and spans to an Observer
	// (construction only). nil selects the process-wide DefaultObserver;
	// DiscardObserver disables recording.
	WithObserver = hac.WithObserver
)

// SearchResult is the paged result handle returned by FS.Search:
// cursor iteration with Next/More/Cursor, eager collection with All,
// and plan introspection with Explain and Stats.
type SearchResult = hac.SearchResult

// SearchStats summarizes one Search evaluation (match count, cache
// hit, planner leaf count, postings skipped by scope pruning).
type SearchStats = hac.SearchStats

// SearchOption configures one FS.Search call.
type SearchOption = hac.SearchOption

// Search options.
var (
	// WithScope restricts a search to a directory subtree (default "/").
	WithScope = hac.WithScope
	// WithPageSize sets how many paths each Next page holds.
	WithPageSize = hac.WithPageSize
	// WithLimit caps the total number of matches returned.
	WithLimit = hac.WithLimit
	// WithAfter resumes iteration from a cursor of a previous result.
	WithAfter = hac.WithAfter
	// WithoutCache bypasses the volume's query-result cache.
	WithoutCache = hac.WithoutCache
)

// DefaultSearchPageSize is the page size Search uses unless overridden
// with WithPageSize.
const DefaultSearchPageSize = hac.DefaultPageSize

// PathError records the operation and path of a failed HAC or substrate
// call. Recover it with errors.As; the wrapped sentinel remains
// matchable with errors.Is.
type PathError = vfs.PathError

// FileSystem is the hierarchical operation set shared by HAC volumes
// and raw substrates.
type FileSystem = vfs.FileSystem

// File is an open file handle.
type File = vfs.File

// Info describes a file system object.
type Info = vfs.Info

// DirEntry is one directory-listing entry.
type DirEntry = vfs.DirEntry

// MemFS is the in-memory substrate file system.
type MemFS = vfs.MemFS

// Link is a classified symbolic link in a semantic directory.
type Link = hac.Link

// LinkClass is the paper's three-way link classification.
type LinkClass = hac.LinkClass

// The three link classes (§2.3 of the paper).
const (
	Transient  = hac.Transient  // produced by query evaluation
	Permanent  = hac.Permanent  // added explicitly by the user
	Prohibited = hac.Prohibited // deleted by the user; never re-added
)

// Namespace is a remote file or query system that can be semantically
// mounted (§3 of the paper).
type Namespace = hac.Namespace

// ContextNamespace is a Namespace whose calls honor a context; HAC
// bounds such namespaces with the volume's remote timeout during
// evaluation.
type ContextNamespace = hac.ContextNamespace

// NodeType distinguishes files, directories and symlinks in Info and
// DirEntry.
type NodeType = vfs.NodeType

// The node types.
const (
	FileType    = vfs.TypeFile
	DirType     = vfs.TypeDir
	SymlinkType = vfs.TypeSymlink
)

// Open-flag constants for OpenFile.
const (
	ORead   = vfs.ORead
	OWrite  = vfs.OWrite
	OCreate = vfs.OCreate
	OTrunc  = vfs.OTrunc
	OAppend = vfs.OAppend
	OExcl   = vfs.OExcl
)

// Common error sentinels, matchable with errors.Is.
var (
	ErrNotExist    = vfs.ErrNotExist
	ErrExist       = vfs.ErrExist
	ErrNotDir      = vfs.ErrNotDir
	ErrIsDir       = vfs.ErrIsDir
	ErrNotEmpty    = vfs.ErrNotEmpty
	ErrNotSemantic = hac.ErrNotSemantic
	ErrDependedOn  = hac.ErrDependedOn
	ErrDanglingRef = hac.ErrDanglingRef
	ErrNoNamespace = hac.ErrNoNamespace
	// ErrCorruptVolume marks a volume image rejected by LoadVolume —
	// truncated, bit-flipped, version-skewed or otherwise undecodable.
	ErrCorruptVolume = hac.ErrCorruptVolume
	// ErrNoSnapshot marks a SaveVolume over a substrate that cannot
	// produce a snapshot (does not implement Snapshotter).
	ErrNoSnapshot = hac.ErrNoSnapshot
	// ErrInjected and ErrCrashed are the fault sentinels produced by a
	// FaultFS substrate.
	ErrInjected = vfs.ErrInjected
	ErrCrashed  = vfs.ErrCrashed
	// ErrQuotaExceeded, ErrBackpressure and ErrShuttingDown are the
	// multi-tenant serving sentinels (DESIGN.md §12): a write past the
	// tenant's byte/document quota, an admission rejected by the
	// in-flight limit (retryable), and a server draining for shutdown.
	// All three travel the remote protocols typed.
	ErrQuotaExceeded = vfs.ErrQuotaExceeded
	ErrBackpressure  = vfs.ErrBackpressure
	ErrShuttingDown  = vfs.ErrShuttingDown
	// ErrShardUnavailable marks a cluster search that lost a shard: no
	// replica of it answered (DESIGN.md §14). Delivered as a
	// *vfs.PathError whose Path names the shard, through both wire
	// protocols.
	ErrShardUnavailable = vfs.ErrShardUnavailable
)

// New layers HAC over a substrate file system, configured by functional
// options — the canonical constructor.
func New(under FileSystem, opts ...Option) *FS {
	return hac.NewWith(under, opts...)
}

// NewVolume returns a HAC file system over a fresh in-memory substrate.
func NewVolume(opts ...Option) *FS {
	return hac.NewWith(vfs.New(), opts...)
}

// NewMemFS returns a bare in-memory hierarchical file system (the
// substrate without the HAC layer).
func NewMemFS() *MemFS { return vfs.New() }

// Snapshotter is implemented by substrates that can export a full
// snapshot of their tree; FS.SaveVolume requires one.
type Snapshotter = vfs.Snapshotter

// FaultFS wraps a substrate with deterministic, seed-driven fault
// injection — per-operation error rates, crash points that freeze the
// store, torn writes, latency — for crash-consistency testing (see
// DESIGN.md §8).
type FaultFS = vfs.FaultFS

// FaultConfig configures a FaultFS.
type FaultConfig = vfs.FaultConfig

// FaultStats are a FaultFS's per-operation counters.
type FaultStats = vfs.FaultStats

// NewFaultFS wraps under with fault injection.
func NewFaultFS(under FileSystem, cfg FaultConfig) *FaultFS {
	return vfs.NewFaultFS(under, cfg)
}

// CrashWriter is an io.Writer that fails permanently after a byte
// limit, for simulating a crash during a volume save.
type CrashWriter = vfs.CrashWriter

// DialRemote connects to a remote CBA server (cmd/hacindexd) and
// returns a Namespace that can be passed to FS.SemanticMount. name
// becomes the namespace name inside the volume.
func DialRemote(name, addr string) *remote.BinClient {
	return remote.DialBin(name, addr)
}

// ServeIndex starts serving the tree at root in fsys over the remote
// CBA protocol on addr, blocking until the listener fails. It is the
// library form of cmd/hacindexd.
func ServeIndex(fsys FileSystem, root, addr string, logger *log.Logger) error {
	backend, err := remote.NewIndexBackend(fsys, root)
	if err != nil {
		return err
	}
	return remote.NewServer(backend, logger).ListenAndServe(addr)
}

// Transducer extracts attribute terms (such as "from:alice") from a
// document, in the spirit of SFS transducers. Register one with
// FS.RegisterTransducer.
type Transducer = index.Transducer

// Built-in transducers.
var (
	EmailTransducer  = index.EmailTransducer
	PathTransducer   = index.PathTransducer
	SourceTransducer = index.SourceTransducer
)

// Scheduler periodically re-runs the data-consistency pass; see
// FS.StartAutoReindex.
type Scheduler = hac.Scheduler

// LoadVolume restores a volume saved with FS.SaveVolume, rebuilding the
// index and settling all consistency. Corrupted or truncated images
// fail with an error wrapping ErrCorruptVolume, never a panic.
func LoadVolume(r io.Reader, opts Options) (*FS, error) {
	return hac.LoadVolume(r, opts)
}

// LoadVolumeFile restores a volume from a file written by
// FS.SaveVolumeFile (or any reader-based save).
func LoadVolumeFile(path string, opts Options) (*FS, error) {
	return hac.LoadVolumeFile(path, opts)
}

// DialFS connects to a remote volume served by cmd/hacvold (or
// ServeFS) and returns a FileSystem view of it. The result composes
// with everything local: mount it into a MemFS with Mount, or use it
// as the substrate of a local HAC layer.
func DialFS(addr string) *remotefs.MuxClient {
	return remotefs.DialMux(addr)
}

// ServeFS exports a file system — typically a live HAC volume — on
// addr over the remote file-system protocol, blocking until the
// listener fails. It is the library form of cmd/hacvold.
func ServeFS(fsys FileSystem, addr string, logger *log.Logger) error {
	return remotefs.NewServer(fsys, logger).ListenAndServe(addr)
}

// CatalogEntry is one published semantic directory in a catalog.
type CatalogEntry = catalog.Entry

// Catalog is the §3.2 central database of published semantic
// directories.
type Catalog = catalog.Catalog

// NewCatalog returns an empty catalog; serve it with ServeCatalog or
// use it in-process.
func NewCatalog() *Catalog { return catalog.New() }

// DialCatalog connects to a catalog server (cmd/haccatd).
func DialCatalog(addr string) *catalog.Client { return catalog.Dial(addr) }

// ServeCatalog exposes a catalog on addr, blocking until the listener
// fails. It is the library form of cmd/haccatd.
func ServeCatalog(cat *Catalog, addr string, logger *log.Logger) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return catalog.NewServer(cat, logger).Serve(l)
}

// Observer bundles a metrics Registry and a span Tracer — the sink
// every instrumented layer records into. Inject one per volume with
// WithObserver, or share the process-wide DefaultObserver.
type Observer = obs.Observer

// Registry is a metrics registry: counters, gauges and fixed-bucket
// histograms with Prometheus-text and expvar exposition.
type Registry = obs.Registry

// Tracer retains recent operation spans in a bounded ring buffer.
type Tracer = obs.Tracer

// Span is one traced operation (Sync pass, per-directory evaluation).
type Span = obs.Span

// NewObserver returns an observer with a fresh registry and tracer,
// isolated from the process-wide default.
func NewObserver() *Observer { return obs.NewObserver() }

// DefaultObserver returns the process-wide observer — the one behind
// the daemons' -debug-addr endpoints and every volume built without
// WithObserver.
func DefaultObserver() *Observer { return obs.Default() }

// DiscardObserver returns the no-op observer: instrumented code runs
// unchanged but records nothing (one nil check per record).
func DiscardObserver() *Observer { return obs.Discard() }

// ServeDebug starts the observability HTTP server (Prometheus /metrics,
// /debug/vars, /debug/pprof, /debug/spans) for o on addr — the library
// form of the daemons' -debug-addr flag. The returned listener owns the
// server; closing it stops serving. addr may be ":0".
func ServeDebug(addr string, o *Observer) (net.Listener, error) {
	return obs.Serve(addr, o)
}

// Walk traverses a file system tree depth-first in name order, without
// following symlinks.
func Walk(fsys FileSystem, root string, fn vfs.WalkFunc) error {
	return vfs.Walk(fsys, root, fn)
}

// Files lists all regular files under root, sorted.
func Files(fsys FileSystem, root string) ([]string, error) {
	return vfs.Files(fsys, root)
}
