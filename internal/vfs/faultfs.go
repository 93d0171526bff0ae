package vfs

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Fault-injection sentinels, comparable with errors.Is.
var (
	// ErrInjected marks an artificial I/O failure produced by a FaultFS.
	ErrInjected = errors.New("injected fault")
	// ErrCrashed is returned by every operation issued to a FaultFS
	// after its crash point fired, until Restart is called.
	ErrCrashed = errors.New("file system crashed")
)

// FaultConfig describes the faults a FaultFS injects. The zero value
// injects nothing, so a FaultFS over a healthy substrate behaves
// exactly like the substrate.
type FaultConfig struct {
	// Seed initializes the deterministic fault stream. Two FaultFS
	// instances with the same seed, config and operation sequence
	// inject faults at the same points.
	Seed int64
	// ErrorRate is the probability, per counted operation, of failing
	// with ErrInjected before the substrate is touched.
	ErrorRate float64
	// OpErrorRates overrides ErrorRate for individual operations,
	// keyed by the op name recorded in the counters ("write",
	// "remove", "symlink", ...).
	OpErrorRates map[string]float64
	// CrashAtOp freezes the store when the running operation count
	// reaches this value: the operation at the crash point and every
	// later one fail with ErrCrashed. 0 means never.
	CrashAtOp uint64
	// TornWrites makes a WriteFile that lands exactly on the crash
	// point commit a prefix of its data before failing, simulating a
	// torn write at power loss.
	TornWrites bool
	// Latency is added to every counted operation, for tests that
	// need slow-storage interleavings.
	Latency time.Duration
}

// FaultStats is a snapshot of a FaultFS's operation counters.
type FaultStats struct {
	Ops      uint64            // operations counted (pre-crash)
	Injected uint64            // operations failed with ErrInjected
	Rejected uint64            // operations refused with ErrCrashed
	Crashes  uint64            // times the crash point fired
	PerOp    map[string]uint64 // counted operations by name
	Errors   map[string]uint64 // injected failures by name
}

// FaultFS wraps a FileSystem and injects deterministic, seed-driven
// faults beneath any layer built on top of it: per-operation error
// rates, an operation-count crash point that freezes the store
// mid-sequence, torn writes at the crash point, and latency. It is the
// test substrate for crash-safety and consistency-recovery tests; see
// DESIGN.md §8.
//
// FaultFS implements FileSystem, and Under exposes the wrapped
// substrate — so a HAC volume over a FaultFS of a content-addressed
// substrate can still be saved.
type FaultFS struct {
	under FileSystem

	mu      sync.Mutex
	rng     *rand.Rand
	cfg     FaultConfig
	crashed bool
	stats   FaultStats
}

var _ FileSystem = (*FaultFS)(nil)

// NewFaultFS wraps under with fault injection configured by cfg.
func NewFaultFS(under FileSystem, cfg FaultConfig) *FaultFS {
	return &FaultFS{
		under: under,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg,
	}
}

// Under returns the wrapped substrate.
func (fs *FaultFS) Under() FileSystem { return fs.under }

// SetErrorRate changes the global per-operation error rate.
func (fs *FaultFS) SetErrorRate(rate float64) {
	fs.mu.Lock()
	fs.cfg.ErrorRate = rate
	fs.mu.Unlock()
}

// SetOpErrorRate overrides the error rate for one operation name.
func (fs *FaultFS) SetOpErrorRate(op string, rate float64) {
	fs.mu.Lock()
	if fs.cfg.OpErrorRates == nil {
		fs.cfg.OpErrorRates = make(map[string]float64)
	}
	fs.cfg.OpErrorRates[op] = rate
	fs.mu.Unlock()
}

// CrashAfter schedules the crash point n counted operations from now
// (n = 1 crashes the very next operation).
func (fs *FaultFS) CrashAfter(n uint64) {
	fs.mu.Lock()
	fs.cfg.CrashAtOp = fs.stats.Ops + n
	fs.mu.Unlock()
}

// Crashed reports whether the crash point has fired.
func (fs *FaultFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Restart clears the crashed state ("power back on"): the store keeps
// whatever the substrate committed before the crash, and no further
// crash point is armed until CrashAfter is called again.
func (fs *FaultFS) Restart() {
	fs.mu.Lock()
	fs.crashed = false
	fs.cfg.CrashAtOp = 0
	fs.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (fs *FaultFS) Stats() FaultStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.stats
	s.PerOp = make(map[string]uint64, len(fs.stats.PerOp))
	for k, v := range fs.stats.PerOp {
		s.PerOp[k] = v
	}
	s.Errors = make(map[string]uint64, len(fs.stats.Errors))
	for k, v := range fs.stats.Errors {
		s.Errors[k] = v
	}
	return s
}

// OpNames returns the operation names seen so far, sorted — handy for
// assertions over the per-op counters.
func (fs *FaultFS) OpNames() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.stats.PerOp))
	for k := range fs.stats.PerOp {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// begin counts one operation and decides its fate: nil to proceed to
// the substrate, or an injected error. atCrash reports that this very
// operation tripped the crash point (for torn-write handling).
func (fs *FaultFS) begin(op, path string) (err error, atCrash bool) {
	fs.mu.Lock()
	latency := fs.cfg.Latency
	if fs.crashed {
		fs.stats.Rejected++
		fs.mu.Unlock()
		return pe(op, path, ErrCrashed), false
	}
	fs.stats.Ops++
	if fs.stats.PerOp == nil {
		fs.stats.PerOp = make(map[string]uint64)
	}
	fs.stats.PerOp[op]++
	if fs.cfg.CrashAtOp > 0 && fs.stats.Ops >= fs.cfg.CrashAtOp {
		fs.crashed = true
		fs.stats.Crashes++
		fs.mu.Unlock()
		return pe(op, path, ErrCrashed), true
	}
	rate := fs.cfg.ErrorRate
	if r, ok := fs.cfg.OpErrorRates[op]; ok {
		rate = r
	}
	if rate > 0 && fs.rng.Float64() < rate {
		fs.stats.Injected++
		if fs.stats.Errors == nil {
			fs.stats.Errors = make(map[string]uint64)
		}
		fs.stats.Errors[op]++
		fs.mu.Unlock()
		if latency > 0 {
			time.Sleep(latency)
		}
		return pe(op, path, ErrInjected), false
	}
	fs.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return nil, false
}

// tornLen picks how much of a torn write survives: a strict prefix of
// the data (possibly empty).
func (fs *FaultFS) tornLen(n int) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n == 0 {
		return 0
	}
	return fs.rng.Intn(n)
}

func (fs *FaultFS) Mkdir(path string) error {
	if err, _ := fs.begin("mkdir", path); err != nil {
		return err
	}
	return fs.under.Mkdir(path)
}

func (fs *FaultFS) MkdirAll(path string) error {
	if err, _ := fs.begin("mkdirall", path); err != nil {
		return err
	}
	return fs.under.MkdirAll(path)
}

func (fs *FaultFS) Create(path string) (File, error) {
	return fs.OpenFile(path, ORead|OWrite|OCreate|OTrunc)
}

func (fs *FaultFS) Open(path string) (File, error) {
	return fs.OpenFile(path, ORead)
}

func (fs *FaultFS) OpenFile(path string, flag int) (File, error) {
	if err, _ := fs.begin("open", path); err != nil {
		return nil, err
	}
	f, err := fs.under.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, fs: fs}, nil
}

func (fs *FaultFS) ReadFile(path string) ([]byte, error) {
	if err, _ := fs.begin("read", path); err != nil {
		return nil, err
	}
	return fs.under.ReadFile(path)
}

func (fs *FaultFS) WriteFile(path string, data []byte) error {
	err, atCrash := fs.begin("write", path)
	if err != nil {
		if atCrash && fs.cfg.TornWrites {
			// The crash interrupted the write mid-stream: a prefix of
			// the data reaches the store.
			_ = fs.under.WriteFile(path, data[:fs.tornLen(len(data))])
		}
		return err
	}
	return fs.under.WriteFile(path, data)
}

func (fs *FaultFS) Symlink(target, link string) error {
	if err, _ := fs.begin("symlink", link); err != nil {
		return err
	}
	return fs.under.Symlink(target, link)
}

func (fs *FaultFS) Readlink(path string) (string, error) {
	if err, _ := fs.begin("readlink", path); err != nil {
		return "", err
	}
	return fs.under.Readlink(path)
}

func (fs *FaultFS) Remove(path string) error {
	if err, _ := fs.begin("remove", path); err != nil {
		return err
	}
	return fs.under.Remove(path)
}

func (fs *FaultFS) RemoveAll(path string) error {
	if err, _ := fs.begin("removeall", path); err != nil {
		return err
	}
	return fs.under.RemoveAll(path)
}

func (fs *FaultFS) Rename(oldPath, newPath string) error {
	if err, _ := fs.begin("rename", oldPath); err != nil {
		return err
	}
	return fs.under.Rename(oldPath, newPath)
}

func (fs *FaultFS) Stat(path string) (Info, error) {
	if err, _ := fs.begin("stat", path); err != nil {
		return Info{}, err
	}
	return fs.under.Stat(path)
}

func (fs *FaultFS) Lstat(path string) (Info, error) {
	if err, _ := fs.begin("lstat", path); err != nil {
		return Info{}, err
	}
	return fs.under.Lstat(path)
}

func (fs *FaultFS) ReadDir(path string) ([]DirEntry, error) {
	if err, _ := fs.begin("readdir", path); err != nil {
		return nil, err
	}
	return fs.under.ReadDir(path)
}

// faultFile passes handle I/O through the fault layer, so reads and
// writes on open handles are also counted, injected and frozen.
type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err, _ := f.fs.begin("fread", f.Name()); err != nil {
		return 0, err
	}
	return f.File.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err, _ := f.fs.begin("fread", f.Name()); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) Write(p []byte) (int, error) {
	err, atCrash := f.fs.begin("fwrite", f.Name())
	if err != nil {
		if atCrash && f.fs.cfg.TornWrites {
			n := f.fs.tornLen(len(p))
			_, _ = f.File.Write(p[:n])
		}
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err, _ := f.fs.begin("fwrite", f.Name()); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Truncate(size int64) error {
	if err, _ := f.fs.begin("ftruncate", f.Name()); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

// CrashWriter simulates a crash in the middle of writing a byte
// stream: the first Limit bytes reach W, then every write fails with
// ErrCrashed. It turns any saver into a torn-image generator for
// recovery tests.
type CrashWriter struct {
	W     interface{ Write([]byte) (int, error) }
	Limit int
	n     int
}

func (c *CrashWriter) Write(p []byte) (int, error) {
	remain := c.Limit - c.n
	if remain <= 0 {
		return 0, ErrCrashed
	}
	if len(p) <= remain {
		n, err := c.W.Write(p)
		c.n += n
		return n, err
	}
	n, err := c.W.Write(p[:remain])
	c.n += n
	if err != nil {
		return n, err
	}
	return n, ErrCrashed
}
