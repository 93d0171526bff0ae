package plan

import (
	"container/list"
	"slices"
	"sync"

	"hacfs/internal/bitset"
)

// Cache is an epoch-keyed LRU of query results. An entry is keyed by
// the canonical query text plus scope key, and is valid only while
//
//   - the index version it was computed at still stands (any document
//     commit, tombstone, rename, or merge advances the version), and
//   - every dependency epoch matches: one Dep per directory whose link
//     set the result depends on (the scope directory and every dir:
//     reference), with the epoch HAC bumps through the dependency graph
//     whenever that directory's links change.
//
// Stale entries are evicted on lookup; there is no background sweep.
//
// A cached set is immutable and shared: Put publishes the set it is
// given, Get hands the same set to every hit, and nobody — the caller
// that Put it included — may mutate it afterwards. Readers that need a
// private copy Clone it themselves. Cache is safe for concurrent use.
type Cache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

// Dep pins one directory's link-set epoch.
type Dep struct {
	UID   uint64
	Epoch uint64
}

type cacheEntry struct {
	key     string
	res     *bitset.Segmented
	version uint64
	deps    []Dep
}

// DefaultCacheSize is the default entry capacity.
const DefaultCacheSize = 256

// NewCache returns an empty cache holding at most max entries (<= 0
// uses DefaultCacheSize).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached result for key — shared, read-only — if it is
// still valid: computed at the given index version and under exactly
// the given dependency epochs (a key fixes which directories a result
// reads and in what order, so deps compares positionally). Invalid
// entries are evicted.
func (c *Cache) Get(key string, version uint64, deps []Dep) (*bitset.Segmented, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.version != version || !slices.Equal(ent.deps, deps) {
		c.ll.Remove(el)
		delete(c.m, key)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return ent.res, true
}

// Put publishes res for key at the given version and dependency epochs.
// res is shared from here on; the caller may keep reading it but must
// not mutate it.
func (c *Cache) Put(key string, res *bitset.Segmented, version uint64, deps []Dep) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.res, ent.version, ent.deps = res, version, deps
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, version: version, deps: deps})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
