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
// user request, for any part of the file system"), building one sealed
// segment per pass.
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
	"slices"
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
// postings — only the tombstone state (dead, deadCount), the doc
// entries' path/modTime fields and the path order (renames) move under
// the index write lock. Postings are packed (Container.Pack) once, at
// the moment the segment becomes immutable, and from then on only read:
// every lookup clones before it combines, so the off-lock merge build
// can walk them without a lock. A segment produced by a merge additionally carries
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
	order     []uint32 // slots in path order (order.go); sealed only
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

// seal marks the segment immutable, packs its postings and dirs — the
// one point after which they are only read — and builds its path order.
// Caller owns s (it is being built) or holds ix.mu for writing.
func (s *segment) seal() {
	s.sealed = true
	s.slotTerms = nil
	for _, c := range s.postings {
		c.Pack()
	}
	s.packDirs()
	s.buildOrder()
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

	// saveMu serializes saves, which share save (persist.go). Lock
	// order: saveMu before mu.
	saveMu sync.Mutex
	save   segmentScratch
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
// tests can force multi-segment layouts with small corpora. It shapes
// only the active segment that per-document writes fill: a SyncTree
// pass installs one sealed segment of its own. n <= 0 restores the
// default.
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

// AddWithTime is Add recording the document's modification time, which
// a later SyncTree compares with the file's to detect staleness.
func (ix *Index) AddWithTime(path string, content []byte, modTime time.Time) DocID {
	return ix.commitDoc(ix.prepareDoc(path, content, modTime))
}

// preparedDoc is a tokenized document awaiting its commit. Preparation
// (the expensive part: tokenization plus transducers) runs without the
// index write lock.
type preparedDoc struct {
	path    string
	modTime time.Time
	size    int
	terms   map[string]struct{}
}

// prepareDoc tokenizes content and runs the transducers. It does not
// take the write lock.
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
		if os, local, ok := ix.resolveLocked(old); ok && os == s {
			return ix.replaceLocked(local, d)
		}
		ix.tombstoneLocked(old)
	}
	local := uint32(len(s.docs))
	s.docs = append(s.docs, docEntry{path: d.path, modTime: d.modTime, size: d.size, alive: true})
	s.dirsAdd(d.path, local)
	id := makeID(s.id, local)
	ix.byPath[d.path] = id
	s.slotTerms = append(s.slotTerms, s.addSlotTerms(local, d.terms))
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
	s.orderRename(local, newPath)
	s.docs[local].path = newPath
	ix.byPath[newPath] = id
	ix.version.Add(1)
	return true
}

// RenamePrefix records that the directory at oldRoot moved to newRoot,
// rewriting the paths of every indexed document beneath it. A moved
// document replaces whatever was indexed at its new path, as RenamePath
// does. It returns the number of documents updated.
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
	// Every moved path leaves byPath first, so what is still indexed at a
	// new path afterwards is a document the move displaces, never one
	// that is itself about to move.
	for _, m := range moves {
		delete(ix.byPath, m.old)
	}
	var touched []*segment
	for _, m := range moves {
		s, local, ok := ix.resolveLocked(m.id)
		if !ok {
			continue
		}
		np := newRoot + m.old[len(oldRoot):]
		if prior, ok := ix.byPath[np]; ok {
			ix.tombstoneLocked(prior)
		}
		s.dirsRename(s.docs[local].path, np, local)
		s.docs[local].path = np
		ix.byPath[np] = m.id
		if s.order != nil && !slices.Contains(touched, s) {
			touched = append(touched, s)
		}
	}
	for _, s := range touched {
		s.resortOrder()
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

// SyncTree incrementally reindexes all regular files under root in
// fsys — the paper's reindex (§2.4): new files are added, files whose
// modification time changed are re-indexed, and indexed files that no
// longer exist under root are removed. It returns the number of added,
// updated and removed documents.
//
// One goroutine walks the tree in path order and reads and tokenizes
// each new or stale file straight into one segment built off-lock; at
// the end the segment is sealed and installed in one write-lock step,
// so DocIDs follow walk order. A file that vanishes between the walk
// and the read is skipped. onDir, when not nil, is called with every
// directory the walk visits, in walk order and before the directory's
// entries, so a caller that needs the tree's directories too
// (hac.Reindex registers them) walks it once.
func (ix *Index) SyncTree(fsys vfs.FileSystem, root string, onDir func(dir string)) (added, updated, removed int, err error) {
	seg := newSegment(0)  // numbered at install
	var prior []liveEntry // per slot of seg: what the staleness check saw at its path
	seen := make(map[string]bool)
	err = vfs.Walk(fsys, root, func(p string, info vfs.Info) error {
		if info.Type == vfs.TypeDir && onDir != nil {
			onDir(p)
		}
		if info.Type != vfs.TypeFile {
			return nil
		}
		seen[p] = true
		ix.mu.RLock()
		was := ix.liveLocked(p)
		ix.mu.RUnlock()
		if was.id != NoDoc && was.modTime.Equal(info.ModTime) {
			return nil
		}
		content, err := fsys.ReadFile(p)
		if errors.Is(err, vfs.ErrNotExist) {
			delete(seen, p) // removed or renamed since the walk saw it
			return nil
		}
		if err != nil {
			return err
		}
		local := uint32(len(seg.docs))
		seg.docs = append(seg.docs, docEntry{path: p, modTime: info.ModTime, size: len(content), alive: true})
		seg.dirsAdd(p, local)
		for _, t := range ix.tok(content) {
			seg.addPosting(t, local)
		}
		for _, t := range ix.applyTransducers(p, content) {
			seg.addPosting(t, local)
		}
		prior = append(prior, was)
		if was.id == NoDoc {
			added++
		} else {
			updated++
		}
		return nil
	})
	ix.install(seg, prior) // what was read before an error is kept
	if err != nil {
		return added, updated, removed, err
	}
	removed = ix.removeVanished(root, seen)
	ix.MaybeMerge()
	return added, updated, removed, nil
}

// liveEntry is the live document at a path as one moment saw it: its
// canonical ID (NoDoc when there was none) and modification time.
type liveEntry struct {
	id      DocID
	modTime time.Time
}

// liveLocked returns the live document at path. Caller holds ix.mu.
func (ix *Index) liveLocked(path string) liveEntry {
	if id, ok := ix.byPath[path]; ok {
		if s, local, ok := ix.resolveLocked(id); ok {
			return liveEntry{makeID(s.id, local), s.docs[local].modTime}
		}
	}
	return liveEntry{id: NoDoc}
}

// install seals a pass's segment and makes it resident in one
// write-lock step, each slot replacing what prior says the pass saw at
// its path. A path the index changed while the pass ran — rewritten
// (an active-segment rewrite keeps its ID, so the modification time
// tells), removed, or moved onto — keeps the newer state: its slot goes
// in dead.
func (ix *Index) install(seg *segment, prior []liveEntry) {
	if len(seg.docs) == 0 {
		return
	}
	seg.seal()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	seg.id = ix.nextSeg
	ix.nextSeg++
	for i := range seg.docs {
		p, was := seg.docs[i].path, prior[i]
		if s, local, ok := ix.resolveLocked(was.id); ok {
			was.id = makeID(s.id, local) // a merge since the check moved it
		}
		now := ix.liveLocked(p)
		if now.id != was.id || !now.modTime.Equal(was.modTime) {
			seg.docs[i].alive = false
			seg.dead.Add(uint32(i))
			seg.deadCount++
			ix.deadDocs++
			continue
		}
		if now.id != NoDoc {
			ix.tombstoneLocked(now.id)
		}
		ix.byPath[p] = makeID(seg.id, uint32(i))
		ix.liveDocs++
	}
	ix.bySeg[seg.id] = seg
	ix.sealed = append(ix.sealed, seg)
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
