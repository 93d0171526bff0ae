package index

import (
	"runtime"
	"time"

	"hacfs/internal/bitset"
)

// Online compaction. A merge folds a set of sealed segments into one
// fresh segment, dropping tombstoned slots, and retires the victims —
// the paper's §2.4 "reindexing" made incremental and concurrent.
//
// The heavy work happens off-lock: sealed postings are immutable, and
// the plan phase copies the per-victim doc entries and tombstone sets
// under the read lock, so Search and Sync proceed while the
// merged segment is assembled. The commit phase then takes the write
// lock briefly to reconcile anything that moved during the build
// (documents tombstoned or renamed after the plan was taken), install
// the forward tables that keep pre-merge DocIDs resolving, rewrite
// byPath for the moved documents, and bump the epoch.
//
// Merge policy: MaybeMerge fires when the sealed-segment count exceeds
// mergeMaxSealed or when dead slots exceed mergeDeadNum/mergeDeadDen of
// the ID space. ForceMerge always folds everything, sealing the active
// segment first.

const (
	// mergeMaxSealed is the sealed-segment count that triggers a merge.
	mergeMaxSealed = 8
	// mergeDeadNum/mergeDeadDen: merge when dead/total > 3/10.
	mergeDeadNum = 3
	mergeDeadDen = 10
	// mergeYieldEvery paces the off-lock build phase: after this many
	// units of work the builder yields the processor. On GOMAXPROCS=1
	// the build is otherwise one long CPU burst and concurrent Search
	// calls wait out the scheduler's ~10ms preemption quantum; yielding
	// keeps reader latency bounded by a slice, not the whole merge.
	mergeYieldEvery = 512
)

// victimSnap is one victim's state captured at plan time. Doc entries
// are copied (paths move under renames) and the tombstone set is
// cloned; postings are shared because sealed postings never change.
type victimSnap struct {
	s    *segment
	docs []docEntry
	dead *bitset.Container
}

const noLocal = ^uint32(0)

// MaybeMerge runs one merge pass if the policy calls for it, returning
// whether a merge happened. It never seals the active segment.
func (ix *Index) MaybeMerge() bool {
	ix.mergeMu.Lock()
	defer ix.mergeMu.Unlock()
	ix.mu.RLock()
	trigger := len(ix.sealed) > mergeMaxSealed ||
		(ix.totalSlots > 0 && ix.deadDocs*mergeDeadDen > ix.totalSlots*mergeDeadNum && len(ix.sealed) > 0)
	worthIt := len(ix.sealed) >= 2 || (len(ix.sealed) == 1 && ix.sealed[0].deadCount > 0)
	ix.mu.RUnlock()
	if !trigger || !worthIt {
		return false
	}
	ix.mergeSealedLocked()
	return true
}

// ForceMerge seals the active segment and folds every sealed segment
// into one, unconditionally. DocIDs issued before the call remain
// valid. It replaces the old stop-the-world Compact: callers that want
// "settle everything now" semantics call this, and nothing else needs
// the remap it used to return.
func (ix *Index) ForceMerge() {
	ix.mergeMu.Lock()
	defer ix.mergeMu.Unlock()
	ix.mu.Lock()
	ix.sealActiveLocked()
	skip := len(ix.sealed) == 0 || (len(ix.sealed) == 1 && ix.sealed[0].deadCount == 0)
	ix.mu.Unlock()
	if skip {
		return
	}
	ix.mergeSealedLocked()
}

// StartMerger runs MaybeMerge every interval on a background goroutine
// until the returned stop function is called. Stop blocks until any
// in-flight pass finishes.
func (ix *Index) StartMerger(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				ix.MaybeMerge()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// mergeSealedLocked merges all currently-sealed segments. Caller holds
// mergeMu (so there is exactly one merge in flight) but NOT ix.mu.
func (ix *Index) mergeSealedLocked() {
	start := time.Now()

	// Plan: capture the victims under the read lock. Doc entries are
	// copied because renames rewrite paths in place; tombstone sets are
	// cloned because deletes keep landing while we build.
	ix.mu.RLock()
	victims := make([]victimSnap, 0, len(ix.sealed))
	inputSlots := 0
	for _, s := range ix.sealed {
		victims = append(victims, victimSnap{
			s:    s,
			docs: append([]docEntry(nil), s.docs...),
			dead: s.dead.Clone(),
		})
		inputSlots += len(s.docs)
	}
	ix.mu.RUnlock()
	if len(victims) == 0 {
		return
	}

	// Reserve the merged segment's identity now, so the forward tables
	// can be assembled off-lock too. IDs stay unique even if a chunk
	// commit seals a new active segment while the build runs.
	ix.mu.Lock()
	mergedID := ix.nextSeg
	ix.nextSeg++
	ix.mu.Unlock()

	// Build: assemble the merged segment from the immutable postings and
	// the planned copies, entirely off-lock. remap[i][local] is the
	// merged local slot of victim i's local, or noLocal if it was dead
	// at plan time.
	merged := newSegment(mergedID)
	work := 0
	pace := func(units int) {
		if work += units; work >= mergeYieldEvery {
			work = 0
			runtime.Gosched()
		}
	}
	remap := make([][]uint32, len(victims))
	var prev []DocID
	for i, v := range victims {
		remap[i] = make([]uint32, len(v.docs))
		for l, d := range v.docs {
			pace(1)
			if !d.alive || v.dead.Contains(uint32(l)) {
				remap[i][l] = noLocal
				continue
			}
			nl := uint32(len(merged.docs))
			merged.docs = append(merged.docs, d)
			merged.dirsAdd(d.path, nl)
			prev = append(prev, makeID(v.s.id, uint32(l)))
			remap[i][l] = nl
		}
	}
	merged.prev = prev
	// Victims are folded in order and each remap is monotonic, so every
	// merged posting is filled by ascending Adds.
	for i, v := range victims {
		for term, c := range v.s.postings {
			acc := merged.postings[term]
			c.Range(func(l uint32) bool {
				if nl := remap[i][l]; nl != noLocal {
					if acc == nil {
						acc = bitset.NewContainer()
						merged.postings[term] = acc
					}
					acc.Add(nl)
				}
				return true
			})
			pace(1 + c.Len()/8)
		}
	}
	merged.seal()

	// Pre-assemble the victims' forward tables off-lock; the commit
	// phase only patches the slots that changed since the plan.
	victimSet := make(map[uint32]bool, len(victims))
	fwds := make([][]DocID, len(victims))
	for i, v := range victims {
		victimSet[v.s.id] = true
		fwd := make([]DocID, len(v.s.docs))
		for l := range v.s.docs {
			pace(1)
			if nl := remap[i][l]; nl != noLocal {
				fwd[l] = makeID(mergedID, nl)
			} else {
				fwd[l] = NoDoc
			}
		}
		fwds[i] = fwd
	}

	// Commit: reconcile the delta since the plan, then swap the segment
	// set atomically under the write lock. Chain compression runs after
	// the swap in short per-table holds — its cost grows with merge
	// history, and a reader arriving mid-sweep must not wait for all of
	// it.
	ix.mu.Lock()

	for i, v := range victims {
		for l := range v.s.docs {
			nl := remap[i][l]
			if nl == noLocal {
				continue
			}
			cur := &v.s.docs[l]
			if !cur.alive {
				// Tombstoned after the plan: the delete wins.
				merged.docs[nl].alive = false
				merged.dead.Add(nl)
				merged.deadCount++
				fwds[i][l] = NoDoc
			} else {
				// Renames after the plan rewrote path/modTime in place;
				// refresh so the merged entry is current.
				merged.dirsRename(merged.docs[nl].path, cur.path, nl)
				merged.docs[nl] = *cur
			}
		}
	}

	// Install forward tables for the victims.
	for i, v := range victims {
		ix.forward[v.s.id] = fwds[i]
		delete(ix.bySeg, v.s.id)
	}
	stale := make([]uint32, 0, len(ix.forward))
	for segID := range ix.forward {
		if !victimSet[segID] {
			stale = append(stale, segID)
		}
	}

	// Swap the resident set. Segments sealed after the plan was taken
	// (a concurrent chunk commit, or the active segment filling up) are
	// not victims and must survive the swap.
	remaining := ix.sealed[:0]
	for _, s := range ix.sealed {
		if !victimSet[s.id] {
			remaining = append(remaining, s)
		}
	}
	clear(ix.sealed[len(remaining):]) // or the slice's tail keeps the victims reachable
	ix.sealed = remaining
	if len(merged.docs) > 0 {
		ix.bySeg[merged.id] = merged
		ix.sealed = append(ix.sealed, merged)
	}
	deadBefore := 0
	for _, v := range victims {
		deadBefore += v.s.deadCount
	}
	ix.totalSlots += len(merged.docs) - inputSlots
	ix.deadDocs += merged.deadCount - deadBefore
	ix.epoch++
	ix.version.Add(1)
	ix.mu.Unlock()

	// Repoint byPath at the moved documents in batches, each under its
	// own brief write hold. Between batches a stale byPath entry still
	// resolves correctly — it names a victim slot whose forward table
	// was installed with the swap — so this is pure housekeeping kept
	// off the readers' critical path. A slot whose entry no longer leads
	// here lost a race to a concurrent re-add, delete, or rename; the
	// competing writer's value wins.
	if len(merged.docs) > 0 {
		for lo := 0; lo < len(merged.docs); lo += mergeYieldEvery {
			hi := min(lo+mergeYieldEvery, len(merged.docs))
			ix.mu.Lock()
			for nl := lo; nl < hi; nl++ {
				if !merged.docs[nl].alive {
					continue
				}
				path := merged.docs[nl].path
				cur, ok := ix.byPath[path]
				if !ok {
					continue
				}
				if s, l, ok := ix.resolveLocked(cur); ok && s == merged && l == uint32(nl) {
					ix.byPath[path] = makeID(merged.id, uint32(nl))
				}
			}
			ix.mu.Unlock()
		}
	}

	// Compress provenance chains so older retired segments point
	// directly at resident slots. The sweep's cost grows with merge
	// history, so it runs in bounded batches, each under its own brief
	// write hold: only mergeMu-holders touch ix.forward, so dropping
	// ix.mu between batches is safe, and resolution stays correct on
	// uncompressed chains via the hop walk — this is purely keeping
	// lookups O(1), off the readers' critical path. Tables with no
	// surviving targets are dropped; resolution treats a missing table
	// and an all-NoDoc table identically.
	for _, segID := range stale {
		live, length := 0, 0
		for lo := 0; ; lo += mergeYieldEvery {
			ix.mu.Lock()
			tbl := ix.forward[segID]
			length = len(tbl)
			hi := min(lo+mergeYieldEvery, length)
			for j := lo; j < hi; j++ {
				id := tbl[j]
				for hops := 0; id != NoDoc && hops < 64; hops++ {
					seg, local := splitID(id)
					next, ok := ix.forward[seg]
					if !ok {
						if _, resident := ix.bySeg[seg]; !resident {
							id = NoDoc // target segment gone entirely
						}
						break
					}
					if int(local) >= len(next) {
						id = NoDoc
						break
					}
					id = next[local]
				}
				tbl[j] = id
				if id != NoDoc {
					live++
				}
			}
			if hi == length && live == 0 {
				delete(ix.forward, segID)
			}
			ix.mu.Unlock()
			if hi == length {
				break
			}
		}
	}

	ix.met.merges.Add(1)
	ix.met.mergeSeconds.ObserveSince(start)
	if out := len(merged.docs) - merged.deadCount; out > 0 {
		ix.met.mergeAmp.Observe(float64(inputSlots) / float64(out))
	}
}
