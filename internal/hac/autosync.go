package hac

import (
	"slices"
	"sync"
	"sync/atomic"

	"hacfs/internal/vfs"
)

// autoSyncSet tracks path prefixes with immediate data consistency.
// Every mutating call asks covers, so the registered prefixes are
// published as an immutable slice behind an atomic pointer: a volume
// with none registered pays one nil load per call.
type autoSyncSet struct {
	mu       sync.Mutex // serializes Enable/Disable
	prefixes atomic.Pointer[[]string]
}

func (s *autoSyncSet) covers(path string) bool {
	ps := s.prefixes.Load()
	if ps == nil {
		return false
	}
	for _, p := range *ps {
		if vfs.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// update publishes the registered set with prefix added or removed.
func (s *autoSyncSet) update(prefix string, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var next []string
	if cur := s.prefixes.Load(); cur != nil {
		next = slices.DeleteFunc(slices.Clone(*cur), func(p string) bool { return p == prefix })
	}
	if add {
		next = append(next, prefix)
	}
	if len(next) == 0 {
		s.prefixes.Store(nil)
		return
	}
	s.prefixes.Store(&next)
}

// EnableAutoSync makes file changes under prefix take effect
// immediately: the changed file is re-indexed and scope consistency
// restored as part of the mutating call — WriteFile, the Close of a
// handle that was written or truncated, Remove, RemoveAll, Rename —
// instead of waiting for the next Reindex. This is §2.4's "users can
// decide to update certain semantic directories as soon as new mail
// comes in, but not when an application modifies some files" — enable
// it for the mail spool, leave the rest lazy.
func (fs *FS) EnableAutoSync(prefix string) error {
	clean, err := vfs.Clean(prefix)
	if err != nil {
		return &vfs.PathError{Op: "autosync", Path: prefix, Err: err}
	}
	fs.autoSync.update(clean, true)
	return nil
}

// DisableAutoSync removes a prefix registered with EnableAutoSync.
func (fs *FS) DisableAutoSync(prefix string) {
	clean, err := vfs.Clean(prefix)
	if err != nil {
		return
	}
	fs.autoSync.update(clean, false)
}

// autoSyncWritten is called after the file at a path covered by an
// auto-sync prefix was written: the file is re-indexed and its links
// brought up to date by the delta pass (delta.go). data is the file's
// whole new content, info the written handle's final Stat. An error
// means the file is written and indexed but links may be stale until the
// next Sync. Callers must not hold fs.mu.
func (fs *FS) autoSyncWritten(path string, data []byte, info vfs.Info) error {
	fs.ix.AddWithTime(path, data, info.ModTime)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.gen++ // the index changed; staged engine results are stale
	return fs.deltaSyncLocked(path, false)
}

// autoSyncRemoved is called after path was removed — with everything
// beneath it when subtree is set. If the path is covered by an
// auto-sync prefix, the documents that went with it leave the index and
// their links are dropped. An error means the removal happened but links
// may be stale until the next Sync. Callers must not hold fs.mu.
func (fs *FS) autoSyncRemoved(path string, subtree bool) error {
	if !fs.autoSync.covers(path) {
		return nil
	}
	many := false
	if subtree {
		removed := fs.ix.RemovePrefix(path)
		if len(removed) == 1 {
			path = removed[0]
		}
		// Many documents left at once: no single link to move, so every
		// directory takes the whole-directory evaluation.
		many = len(removed) > 1
	} else {
		fs.ix.Remove(path)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.gen++
	return fs.deltaSyncLocked(path, many)
}
