package main

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/cluster"
	"hacfs/internal/remote"
	"hacfs/internal/vfs"
)

// The -trace run times calls into each layer from the benchmark's own
// files. Three of those are decorators at seams the code already
// exposes as interfaces — the vfs.FileSystem under hac.New, the
// ShardConn a cluster.Options.Dial returns, and the backend given to
// remote.NewServer — plus a byte-counting relay on the loopback
// connection. None of them is installed on an end-to-end run.

// timedFS counts and times every call HAC makes into its substrate.
// Reads and writes through an opened vfs.File are not wrapped; the
// Open/Create that produced it is.
type timedFS struct {
	under vfs.FileSystem
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds inside the substrate
}

// Under lets hac and serve find the cas.FS beneath the decorator.
func (t *timedFS) Under() vfs.FileSystem { return t.under }

func (t *timedFS) done(start time.Time) {
	t.calls.Add(1)
	t.busy.Add(int64(time.Since(start)))
}

func (t *timedFS) Mkdir(p string) error {
	defer t.done(time.Now())
	return t.under.Mkdir(p)
}
func (t *timedFS) MkdirAll(p string) error {
	defer t.done(time.Now())
	return t.under.MkdirAll(p)
}
func (t *timedFS) Create(p string) (vfs.File, error) {
	defer t.done(time.Now())
	return t.under.Create(p)
}
func (t *timedFS) Open(p string) (vfs.File, error) {
	defer t.done(time.Now())
	return t.under.Open(p)
}
func (t *timedFS) OpenFile(p string, flag int) (vfs.File, error) {
	defer t.done(time.Now())
	return t.under.OpenFile(p, flag)
}
func (t *timedFS) ReadFile(p string) ([]byte, error) {
	defer t.done(time.Now())
	return t.under.ReadFile(p)
}
func (t *timedFS) WriteFile(p string, data []byte) error {
	defer t.done(time.Now())
	return t.under.WriteFile(p, data)
}
func (t *timedFS) Symlink(target, link string) error {
	defer t.done(time.Now())
	return t.under.Symlink(target, link)
}
func (t *timedFS) Readlink(p string) (string, error) {
	defer t.done(time.Now())
	return t.under.Readlink(p)
}
func (t *timedFS) Remove(p string) error {
	defer t.done(time.Now())
	return t.under.Remove(p)
}
func (t *timedFS) RemoveAll(p string) error {
	defer t.done(time.Now())
	return t.under.RemoveAll(p)
}
func (t *timedFS) Rename(o, n string) error {
	defer t.done(time.Now())
	return t.under.Rename(o, n)
}
func (t *timedFS) Stat(p string) (vfs.Info, error) {
	defer t.done(time.Now())
	return t.under.Stat(p)
}
func (t *timedFS) Lstat(p string) (vfs.Info, error) {
	defer t.done(time.Now())
	return t.under.Lstat(p)
}
func (t *timedFS) ReadDir(p string) ([]vfs.DirEntry, error) {
	defer t.done(time.Now())
	return t.under.ReadDir(p)
}

// relay forwards loopback connections to backend and counts the bytes
// in both directions. It adds no delay of its own beyond the copy.
type relay struct {
	l     net.Listener
	bytes atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startRelay(backend string) (*relay, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{l: l}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, c, b)
			r.mu.Unlock()
			r.wg.Add(2)
			go r.pump(b, c)
			go r.pump(c, b)
		}
	}()
	return r, nil
}

func (r *relay) addr() string { return r.l.Addr().String() }

func (r *relay) pump(dst, src net.Conn) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
}

// close stops the relay and waits for its goroutines.
func (r *relay) close() {
	r.l.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// span is one timed call into a layer.
type span struct {
	start, end time.Time
	first      bool // the opening fetch of a cursor (after == 0)
}

// spanLog collects the spans of a decorator.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the spans recorded so far and clears the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// covered returns how much of the time line the spans cover — the
// union of their intervals, so concurrent shard calls count once. A
// caller's self time is its own duration minus this.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var end time.Time
	for _, s := range spans {
		if s.start.After(end) {
			total += s.end.Sub(s.start)
			end = s.end
		} else if s.end.After(end) {
			total += s.end.Sub(end)
			end = s.end
		}
	}
	return total
}

// timedConn records the coordinator's calls to one shard replica.
type timedConn struct {
	cluster.ShardConn
	log *spanLog
}

func (c *timedConn) SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) ([]string, uint64, uint64, error) {
	s := span{start: time.Now(), first: after == 0}
	paths, next, epoch, err := c.ShardConn.SearchPageUnder(ctx, q, scope, after, limit)
	s.end = time.Now()
	c.log.add(s)
	return paths, next, epoch, err
}

// timedBackend records a shard server's calls into its index backend.
type timedBackend struct {
	*remote.IndexBackend
	log *spanLog
}

func (b *timedBackend) SearchPageUnder(ctx context.Context, q, scope string, after uint64, limit int) ([]string, uint64, uint64, error) {
	s := span{start: time.Now()}
	paths, next, epoch, err := b.IndexBackend.SearchPageUnder(ctx, q, scope, after, limit)
	s.end = time.Now()
	b.log.add(s)
	return paths, next, epoch, err
}
