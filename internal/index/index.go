// Package index implements the content-based access (CBA) engine HAC
// delegates searches to — the role Glimpse played in the paper. It is a
// segmented in-memory inverted index: documents are tokenized into
// terms and each term maps, per segment, to a compressed set
// (bitset.Container) of local document slots.
//
// The paper's data-consistency model (§2.4) shapes the API: documents
// can be added and updated incrementally, removals are tombstoned, and
// the paper's periodic "reindexing" is realized as an online merge of
// sealed segments (merge.go) that never invalidates document IDs.
// SyncTree walks a file system and performs the incremental reindex the
// paper describes ("re-index the file system periodically ... or on
// user request, for any part of the file system").
//
// Storage layout (DESIGN.md §10): writes land in a mutable active
// segment; once it reaches the seal threshold it becomes an immutable
// sealed segment and a fresh active segment takes over. Deletions only
// tombstone. A DocID is segmentID<<32 | localID, so merging sealed
// segments assigns new IDs internally but old IDs keep resolving
// through per-segment forward tables; epoch-pinned snapshots
// (snapshot.go) give queries a consistent segment set while a merge
// runs.
package index

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/bitset"
	"hacfs/internal/vfs"
)

// DocID identifies an indexed document: the segment ID in the high 32
// bits, the local slot within the segment in the low 32. IDs are stable
// for the life of the index — a merge retires segments but installs
// forward tables, so an old ID keeps resolving to the same document.
type DocID = uint64

// NoDoc is the resolution of a deleted document in a forward table.
const NoDoc DocID = ^DocID(0)

func makeID(seg, local uint32) DocID { return DocID(seg)<<32 | DocID(local) }

func splitID(id DocID) (seg, local uint32) { return uint32(id >> 32), uint32(id) }

// ErrNotEmpty is returned (wrapped in a *vfs.PathError) by SetTokenizer
// and RegisterTransducer once documents have been indexed: both change
// how content maps to terms, so calling them late would leave the
// already-indexed documents silently missing terms.
var ErrNotEmpty = errors.New("index: documents already indexed")

type docEntry struct {
	path    string
	modTime time.Time
	size    int
	alive   bool
}

// segment is one unit of index storage. The active segment is mutable
// — slots are appended, replaced in place and reclaimed (active.go);
// sealed segments never change their docs slice length or their
// postings — only the tombstone state (dead, deadCount) and the doc
// entries' path/modTime fields (renames) move under the index write
// lock. Postings are packed (Container.Pack) once, at the moment the
// segment becomes immutable, and from then on only read: every lookup
// clones before it combines, so the off-lock merge build can walk them
// without a lock. A segment produced by a merge additionally carries
// prev, the pre-merge DocID of each local slot, so snapshots pinned
// before the merge can map current IDs back into their own segment set.
type segment struct {
	id        uint32
	docs      []docEntry
	postings  map[string]*bitset.Container // term → local slots
	dirs      map[string]*bitset.Container // ancestor dir → local slots beneath it (dirs.go)
	dead      *bitset.Container            // tombstoned local slots
	deadCount int
	sealed    bool
	slotTerms []string // packed terms of each slot (active.go); active only, nil once sealed
	prev      []DocID  // merge provenance: local → pre-merge DocID (nil unless merged)
	dict      termDict // lazy sorted/length-bucketed vocabulary (dict.go); sealed only
}

func newSegment(id uint32) *segment {
	return &segment{
		id:       id,
		postings: make(map[string]*bitset.Container),
		dirs:     make(map[string]*bitset.Container),
		dead:     bitset.NewContainer(),
	}
}

// aliveLocal returns the live slots among the first n: one run, minus
// the tombstones. Caller holds ix.mu.
func (s *segment) aliveLocal(n int) *bitset.Container {
	c := bitset.FullContainer(n)
	c.AndNot(s.dead)
	return c
}

// seal marks the segment immutable and packs its postings and dirs —
// the one point after which they are only read. Caller owns s (it is
// being built) or holds ix.mu for writing.
func (s *segment) seal() {
	s.sealed = true
	s.slotTerms = nil
	for _, c := range s.postings {
		c.Pack()
	}
	s.packDirs()
}

// DefaultSealThreshold is the active-segment size at which it seals.
const DefaultSealThreshold = 4096

// Index is a segmented inverted index over documents named by path. It
// is safe for concurrent use.
type Index struct {
	mu      sync.RWMutex
	active  *segment
	sealed  []*segment // in creation order
	bySeg   map[uint32]*segment
	nextSeg uint32
	byPath  map[string]DocID

	// forward maps a merged-away segment to the new DocID of each of its
	// local slots (NoDoc for slots that were dead at merge time). Chains
	// are compressed at each merge commit, so resolution is O(1) hops in
	// the steady state.
	forward map[uint32][]DocID

	// epoch counts merge commits; snapshots record the epoch they
	// pinned, and Search-visible segment sets only change when it moves.
	epoch uint64

	// version counts every result-visible mutation (commit, tombstone,
	// rename, merge commit) — much finer-grained than epoch, which only
	// moves on merges. The query-result cache keys on it: a cached result
	// is valid exactly while the version it was computed at still stands.
	version atomic.Uint64

	liveDocs   int
	deadDocs   int
	totalSlots int // live + dead slots across resident segments

	sealThreshold int
	tok           Tokenizer
	// transducers, keyed by lowercase file extension ("" = all files),
	// add attribute terms alongside the tokenizer's words.
	transducers map[string][]Transducer
	met         ixMetrics

	// mergeMu serializes whole merge operations (plan → build → commit).
	// Lock order: mergeMu before mu; never acquire mergeMu under mu.
	mergeMu sync.Mutex
}

// Tokenizer splits document content into terms. The default is
// Tokenize.
type Tokenizer func(content []byte) []string

// New returns an empty index using the default tokenizer.
func New() *Index {
	ix := &Index{
		bySeg:         make(map[uint32]*segment),
		byPath:        make(map[string]DocID),
		forward:       make(map[uint32][]DocID),
		sealThreshold: DefaultSealThreshold,
		tok:           Tokenize,
	}
	ix.newActiveLocked()
	return ix
}

// newActiveLocked installs a fresh active segment. Caller holds ix.mu
// (or is the constructor).
func (ix *Index) newActiveLocked() {
	s := newSegment(ix.nextSeg)
	ix.nextSeg++
	ix.bySeg[s.id] = s
	ix.active = s
}

// sealActiveLocked freezes a non-empty active segment and starts a new
// one. Caller holds ix.mu.
func (ix *Index) sealActiveLocked() {
	if len(ix.active.docs) == 0 {
		return
	}
	ix.active.seal()
	ix.sealed = append(ix.sealed, ix.active)
	ix.newActiveLocked()
}

// eachSegmentLocked visits every resident segment (sealed in creation
// order, then the active one). Caller holds ix.mu.
func (ix *Index) eachSegmentLocked(fn func(*segment)) {
	for _, s := range ix.sealed {
		fn(s)
	}
	fn(ix.active)
}

// SetSealThreshold overrides the active-segment seal size, mainly so
// tests can force multi-segment layouts with small corpora. n <= 0
// restores the default.
func (ix *Index) SetSealThreshold(n int) {
	if n <= 0 {
		n = DefaultSealThreshold
	}
	ix.mu.Lock()
	ix.sealThreshold = n
	ix.mu.Unlock()
}

// SetTokenizer replaces the tokenizer. It must be called before any
// documents are added; once the store is non-empty it fails with a
// *vfs.PathError wrapping ErrNotEmpty, because documents indexed with
// the old tokenizer would silently keep its terms.
func (ix *Index) SetTokenizer(t Tokenizer) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.totalSlots > 0 {
		return &vfs.PathError{Op: "settokenizer", Path: "index", Err: ErrNotEmpty}
	}
	ix.tok = t
	return nil
}

// Add indexes content under path, replacing any previous document at
// the same path, and returns the document's ID.
func (ix *Index) Add(path string, content []byte) DocID {
	return ix.AddWithTime(path, content, time.Time{})
}

// AddWithTime is Add recording the document's modification time, used
// by SyncTree to detect staleness.
func (ix *Index) AddWithTime(path string, content []byte, modTime time.Time) DocID {
	return ix.commitDoc(ix.prepareDoc(path, content, modTime))
}

// preparedDoc is a tokenized document awaiting its merge into the
// index. Preparation (the expensive part: tokenization plus
// transducers) runs without the index write lock, so many documents can
// be prepared concurrently and committed by one writer.
type preparedDoc struct {
	path    string
	modTime time.Time
	size    int
	terms   map[string]struct{}
	// bulk marks a document appended by a reindex pass (SyncTree): it
	// keeps no per-slot term list (active.go), so bulk ingestion costs
	// the active segment no extra memory.
	bulk bool
}

// prepareDoc tokenizes content and runs the transducers. It does not
// take the write lock and is safe to call from many goroutines.
func (ix *Index) prepareDoc(path string, content []byte, modTime time.Time) preparedDoc {
	terms := ix.termSet(content)
	for _, t := range ix.applyTransducers(path, content) {
		terms[t] = struct{}{}
	}
	return preparedDoc{path: path, modTime: modTime, size: len(content), terms: terms}
}

// commitDoc merges one prepared document under the write lock. Commit
// order determines document IDs, so a deterministic caller must commit
// in a deterministic order.
func (ix *Index) commitDoc(d preparedDoc) DocID {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.commitDocLocked(d)
}

func (ix *Index) commitDocLocked(d preparedDoc) DocID {
	s := ix.active
	if old, ok := ix.byPath[d.path]; ok {
		if os, local, ok := ix.resolveLocked(old); ok && os == s && s.slotTerms[local] != "" {
			return ix.replaceLocked(local, d)
		}
		ix.tombstoneLocked(old)
	}
	local := uint32(len(s.docs))
	s.docs = append(s.docs, docEntry{path: d.path, modTime: d.modTime, size: d.size, alive: true})
	s.dirsAdd(d.path, local)
	id := makeID(s.id, local)
	ix.byPath[d.path] = id
	s.slotTerms = append(s.slotTerms, s.addSlotTerms(local, d.terms, !d.bulk))
	ix.liveDocs++
	ix.totalSlots++
	ix.version.Add(1)
	ix.met.docsIndexed.Add(1)
	if len(s.docs) >= ix.sealThreshold {
		ix.sealActiveLocked()
	}
	return id
}

// termSet tokenizes content into a set of unique terms.
func (ix *Index) termSet(content []byte) map[string]struct{} {
	terms := ix.tok(content)
	set := make(map[string]struct{}, len(terms))
	for _, t := range terms {
		set[t] = struct{}{}
	}
	return set
}

// resolveLocked follows forward tables from id to its resident segment
// and local slot. Caller holds ix.mu.
func (ix *Index) resolveLocked(id DocID) (*segment, uint32, bool) {
	for hops := 0; hops < 64; hops++ {
		seg, local := splitID(id)
		if s, ok := ix.bySeg[seg]; ok {
			if int(local) < len(s.docs) {
				return s, local, true
			}
			return nil, 0, false
		}
		tbl, ok := ix.forward[seg]
		if !ok || int(local) >= len(tbl) {
			return nil, 0, false
		}
		id = tbl[local]
		if id == NoDoc {
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// tombstoneLocked marks id dead. Caller holds ix.mu.
func (ix *Index) tombstoneLocked(id DocID) {
	s, local, ok := ix.resolveLocked(id)
	if !ok || !s.docs[local].alive {
		return
	}
	s.docs[local].alive = false
	s.dead.Add(local)
	s.deadCount++
	ix.liveDocs--
	ix.deadDocs++
	ix.version.Add(1)
	delete(ix.byPath, s.docs[local].path)
	ix.met.docsRemoved.Add(1)
	if s == ix.active {
		ix.reclaimLocked(local)
	}
}

// Remove deletes the document at path from the index. It reports
// whether a document was present.
func (ix *Index) Remove(path string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id, ok := ix.byPath[path]
	if !ok {
		return false
	}
	ix.tombstoneLocked(id)
	return true
}

// RemovePrefix deletes every document at or beneath root — the removal
// counterpart of RenamePrefix — and returns the removed paths, sorted.
func (ix *Index) RemovePrefix(root string) []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if id, ok := ix.byPath[root]; ok {
		// root is itself a document, so nothing can lie beneath it.
		ix.tombstoneLocked(id)
		return []string{root}
	}
	var gone []string
	for p := range ix.byPath {
		if vfs.HasPrefix(p, root) {
			gone = append(gone, p)
		}
	}
	sortStrings(gone)
	for _, p := range gone {
		ix.tombstoneLocked(ix.byPath[p])
	}
	return gone
}

// RenamePath records that a document moved without content change.
func (ix *Index) RenamePath(oldPath, newPath string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id, ok := ix.byPath[oldPath]
	if !ok {
		return false
	}
	s, local, ok := ix.resolveLocked(id)
	if !ok {
		return false
	}
	if prior, ok := ix.byPath[newPath]; ok && newPath != oldPath {
		// The move replaces whatever was indexed at newPath; left alive it
		// would keep matching under a path byPath no longer leads to.
		ix.tombstoneLocked(prior)
	}
	delete(ix.byPath, oldPath)
	s.dirsRename(s.docs[local].path, newPath, local)
	s.docs[local].path = newPath
	ix.byPath[newPath] = id
	ix.version.Add(1)
	return true
}

// RenamePrefix records that the directory at oldRoot moved to newRoot,
// rewriting the paths of every indexed document beneath it. It returns
// the number of documents updated.
func (ix *Index) RenamePrefix(oldRoot, newRoot string) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	type move struct {
		old string
		id  DocID
	}
	var moves []move
	for p, id := range ix.byPath {
		if vfs.HasPrefix(p, oldRoot) {
			moves = append(moves, move{p, id})
		}
	}
	for _, m := range moves {
		s, local, ok := ix.resolveLocked(m.id)
		if !ok {
			continue
		}
		np := newRoot + m.old[len(oldRoot):]
		delete(ix.byPath, m.old)
		s.dirsRename(s.docs[local].path, np, local)
		s.docs[local].path = np
		ix.byPath[np] = m.id
	}
	if len(moves) > 0 {
		ix.version.Add(1)
	}
	return len(moves)
}

// PathOf resolves a document ID to its path. IDs issued before a merge
// keep resolving through the merge's forward tables.
func (ix *Index) PathOf(id DocID) (string, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s, local, ok := ix.resolveLocked(id)
	if !ok || !s.docs[local].alive {
		return "", false
	}
	return s.docs[local].path, true
}

// IDOf resolves a path to its live document ID. The byPath entry may
// briefly lag a merge commit (the repoint runs in batches after the
// swap), so the raw value is canonicalized through the forward tables
// before it escapes.
func (ix *Index) IDOf(path string) (DocID, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.byPath[path]
	if !ok {
		return 0, false
	}
	if s, local, ok := ix.resolveLocked(id); ok {
		return makeID(s.id, local), true
	}
	return 0, false
}

// Version returns the mutation counter: it moves on every
// result-visible change, so equal versions imply equal query results.
func (ix *Index) Version() uint64 { return ix.version.Load() }

// NumDocs returns the number of live documents.
func (ix *Index) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveDocs
}

// Universe returns the size of the current ID space (live + dead slots
// across resident segments), the N in the paper's "N/8 bytes per
// semantic directory".
func (ix *Index) Universe() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.totalSlots
}

// Epoch returns the merge epoch: it advances exactly when a merge
// commit changes the resident segment set.
func (ix *Index) Epoch() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.epoch
}

// Stats describes the index footprint, for the Table 3 experiment.
type Stats struct {
	Docs         int   // live documents
	DeadDocs     int   // tombstoned documents awaiting a merge
	Segments     int   // resident segments (sealed + active)
	Terms        int   // distinct terms
	IndexBytes   int   // approximate index payload size: postings + doc entries
	DirsBytes    int   // ancestor-directory scope sets (dirs.go); not part of IndexBytes
	ContentBytes int64 // total size of live indexed content
}

// Stats returns a snapshot of the index footprint.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := Stats{
		Docs:     ix.liveDocs,
		DeadDocs: ix.deadDocs,
		Segments: len(ix.sealed) + 1,
	}
	terms := make(map[string]struct{})
	ix.eachSegmentLocked(func(seg *segment) {
		for term, c := range seg.postings {
			terms[term] = struct{}{}
			s.IndexBytes += len(term) + c.SizeBytes()
		}
		for dir, c := range seg.dirs {
			s.DirsBytes += len(dir) + c.SizeBytes()
		}
		for _, d := range seg.docs {
			s.IndexBytes += len(d.path) + 32
			if d.alive {
				s.ContentBytes += int64(d.size)
			}
		}
	})
	s.Terms = len(terms)
	return s
}

// SyncTreeParallel is SyncTree with file reads and tokenization fanned
// out over a pool of workers goroutines. Each bounded chunk of the work
// list is assembled into a whole segment off-lock and committed sealed
// in one step — the write lock is taken once per chunk, not once per
// document. Chunks are cut from the walk (sorted-path) order, so link
// materialization and Search results downstream are identical to a
// serial SyncTree over the same tree; only the segment layout differs.
// workers <= 1 falls back to the serial path.
func (ix *Index) SyncTreeParallel(fsys vfs.FileSystem, root string, workers int) (added, updated, removed int, err error) {
	if workers <= 1 {
		return ix.SyncTree(fsys, root)
	}

	// Phase 1: one cheap serial walk decides what needs (re)indexing.
	type job struct {
		path    string
		modTime time.Time
		existed bool
	}
	var jobs []job
	seen := make(map[string]bool)
	err = vfs.Walk(fsys, root, func(p string, info vfs.Info) error {
		if info.Type != vfs.TypeFile {
			return nil
		}
		seen[p] = true
		ix.mu.RLock()
		id, ok := ix.byPath[p]
		stale := false
		if ok {
			if s, local, rok := ix.resolveLocked(id); rok {
				stale = !s.docs[local].modTime.Equal(info.ModTime)
			}
		}
		ix.mu.RUnlock()
		if ok && !stale {
			return nil
		}
		jobs = append(jobs, job{path: p, modTime: info.ModTime, existed: ok})
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}

	// Phase 2+3: workers read and tokenize one bounded chunk at a time;
	// the chunk then becomes one sealed segment, built in walk order.
	// Chunking bounds how many prepared term sets are alive at once —
	// preparing the whole tree before committing any of it made the heap
	// (and GC time) grow with the corpus, erasing the tokenization
	// speedup.
	type prep struct {
		doc preparedDoc
		err error
	}
	// A chunk never exceeds the seal threshold, so the segment layout
	// honours SetSealThreshold whatever the worker count.
	ix.mu.RLock()
	chunk := min(32*workers, ix.sealThreshold)
	ix.mu.RUnlock()
	preps := make([]prep, chunk)
	for lo := 0; lo < len(jobs); lo += chunk {
		hi := lo + chunk
		if hi > len(jobs) {
			hi = len(jobs)
		}
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					content, err := fsys.ReadFile(jobs[i].path)
					if err != nil {
						preps[i-lo] = prep{err: err}
						continue
					}
					preps[i-lo] = prep{doc: ix.prepareDoc(jobs[i].path, content, jobs[i].modTime)}
				}
			}()
		}
		wg.Wait()
		docs := make([]preparedDoc, 0, hi-lo)
		for i := lo; i < hi; i++ {
			p := &preps[i-lo]
			if errors.Is(p.err, vfs.ErrNotExist) {
				// Removed or renamed since the walk saw it: not an error,
				// and whatever the index held for the path is stale.
				delete(seen, jobs[i].path)
				*p = prep{}
				continue
			}
			if p.err != nil {
				return added, updated, removed, p.err
			}
			docs = append(docs, p.doc)
			*p = prep{}
			if jobs[i].existed {
				updated++
			} else {
				added++
			}
		}
		ix.commitChunk(docs)
	}

	removed = ix.removeVanished(root, seen)
	ix.MaybeMerge()
	return added, updated, removed, nil
}

// commitChunk builds one sealed segment from prepared documents (in
// slice order) off-lock, then installs it under a single write-lock
// acquisition — the parallel path's seal-on-merge commit.
func (ix *Index) commitChunk(docs []preparedDoc) {
	if len(docs) == 0 {
		return
	}
	seg := newSegment(0) // id assigned at install time
	for i, d := range docs {
		seg.docs = append(seg.docs, docEntry{path: d.path, modTime: d.modTime, size: d.size, alive: true})
		seg.dirsAdd(d.path, uint32(i))
		seg.addSlotTerms(uint32(i), d.terms, false)
	}
	seg.seal()

	ix.mu.Lock()
	defer ix.mu.Unlock()
	seg.id = ix.nextSeg
	ix.nextSeg++
	for i := range seg.docs {
		p := seg.docs[i].path
		if old, ok := ix.byPath[p]; ok {
			ix.tombstoneLocked(old)
		}
		ix.byPath[p] = makeID(seg.id, uint32(i))
	}
	ix.bySeg[seg.id] = seg
	ix.sealed = append(ix.sealed, seg)
	ix.liveDocs += len(seg.docs)
	ix.totalSlots += len(seg.docs)
	ix.version.Add(1)
	ix.met.docsIndexed.Add(int64(len(seg.docs)))
}

// removeVanished drops indexed documents under root that are absent
// from seen, returning how many were removed.
func (ix *Index) removeVanished(root string, seen map[string]bool) int {
	ix.mu.RLock()
	var gone []string
	for p := range ix.byPath {
		if vfs.HasPrefix(p, root) && !seen[p] {
			gone = append(gone, p)
		}
	}
	ix.mu.RUnlock()
	removed := 0
	for _, p := range gone {
		if ix.Remove(p) {
			removed++
		}
	}
	return removed
}

// SyncTree incrementally reindexes all regular files under root in
// fsys: new files are added, files whose modification time changed are
// re-indexed, and indexed files that no longer exist under root are
// removed. It returns the number of added, updated and removed
// documents.
func (ix *Index) SyncTree(fsys vfs.FileSystem, root string) (added, updated, removed int, err error) {
	seen := make(map[string]bool)
	err = vfs.Walk(fsys, root, func(p string, info vfs.Info) error {
		if info.Type != vfs.TypeFile {
			return nil
		}
		seen[p] = true
		ix.mu.RLock()
		id, ok := ix.byPath[p]
		var stale bool
		if ok {
			if s, local, rok := ix.resolveLocked(id); rok {
				stale = !s.docs[local].modTime.Equal(info.ModTime)
			}
		}
		ix.mu.RUnlock()
		if ok && !stale {
			return nil
		}
		content, err := fsys.ReadFile(p)
		if errors.Is(err, vfs.ErrNotExist) {
			delete(seen, p) // gone since the walk saw it (see SyncTreeParallel)
			return nil
		}
		if err != nil {
			return err
		}
		d := ix.prepareDoc(p, content, info.ModTime)
		d.bulk = true
		ix.commitDoc(d)
		if ok {
			updated++
		} else {
			added++
		}
		return nil
	})
	if err != nil {
		return added, updated, removed, err
	}
	removed = ix.removeVanished(root, seen)
	ix.MaybeMerge()
	return added, updated, removed, nil
}
