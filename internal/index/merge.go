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
// lock once to reconcile anything that moved during the build
// (documents tombstoned or renamed after the plan was taken), repoint
// byPath at the moved documents, swap the segment set and bump the
// epoch. The victims' DocIDs retire with them: a snapshot pinned before
// the commit still reads the victims it holds, follows each victim slot
// to the slot it moved to for its liveness (segment.retired), and finds
// a moved document's pinned slot by its path (Snapshot.IDOf).
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
	return ix.maybeMergeLocked()
}

// maybeMergeLocked is MaybeMerge with mergeMu held.
func (ix *Index) maybeMergeLocked() bool {
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
// into one, unconditionally. DocIDs the index issued before the call
// stop resolving through it; a snapshot taken before the call still
// resolves its own.
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

	// Build: assemble the merged segment from the immutable postings and
	// the planned copies, entirely off-lock. remap[i][local] is the
	// merged local slot of victim i's local, or noLocal if it was dead
	// at plan time. The segment is numbered at the commit.
	merged := newSegment(0)
	work := 0
	pace := func(units int) {
		if work += units; work >= mergeYieldEvery {
			work = 0
			runtime.Gosched()
		}
	}
	remap := make([][]uint32, len(victims))
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
			remap[i][l] = nl
		}
	}
	// Victims are folded in order and each remap is monotonic, so every
	// merged posting is filled by ascending Adds.
	for i, v := range victims {
		for j, term := range v.s.terms {
			c := &v.s.posts[j]
			acc := merged.open[term]
			c.Range(func(l uint32) bool {
				if nl := remap[i][l]; nl != noLocal {
					if acc == nil {
						acc = bitset.NewContainer()
						merged.open[term] = acc
					}
					acc.Add(nl)
				}
				return true
			})
			pace(1 + c.Len()/8)
		}
	}
	merged.seal()

	// Commit: reconcile the delta since the plan, repoint byPath and swap
	// the segment set, all in one write hold.
	ix.mu.Lock()
	merged.id = ix.nextSeg
	ix.nextSeg++
	moved := false
	victimSet := make(map[uint32]bool, len(victims))
	for i, v := range victims {
		victimSet[v.s.id] = true
		delete(ix.bySeg, v.s.id)
		v.s.retired = &retirement{to: merged, slots: remap[i]}
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
				continue
			}
			// Renames after the plan rewrote path/modTime in place;
			// refresh so the merged entry is current.
			moved = moved || merged.docs[nl].path != cur.path
			merged.docs[nl] = *cur
			// Repoint only an entry that still names the pre-merge slot,
			// so no other writer's entry is overwritten.
			if ix.byPath[cur.path] == makeID(v.s.id, uint32(l)) {
				ix.byPath[cur.path] = makeID(merged.id, nl)
			}
		}
	}
	if moved {
		merged.resortOrder() // the build sorted the paths the plan saw
	}

	// Swap the resident set. Segments sealed after the plan was taken
	// (a concurrent reindex pass's, or the active segment filling up) are
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
	// Read while the lock keeps tombstones off the merged segment.
	out := len(merged.docs) - merged.deadCount
	ix.mu.Unlock()

	ix.met.merges.Add(1)
	ix.met.mergeSeconds.ObserveSince(start)
	if out > 0 {
		ix.met.mergeAmp.Observe(float64(inputSlots) / float64(out))
	}
}
