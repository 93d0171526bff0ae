package hac

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"hacfs/internal/vfs"
)

// Namespace is a remote file or query system that can be semantically
// mounted (§3). It is deliberately opaque: HAC ships the user's query
// text and gets back result identifiers, "with whatever query mechanism
// is used there". HAC bounds every call it makes with
// DefaultRemoteTimeout, and an evaluation pass's call also with the
// pass's context.
type Namespace interface {
	// Name identifies the namespace within one HAC volume; link targets
	// embed it.
	Name() string
	// SearchContext evaluates a query and returns matching paths within
	// the namespace.
	SearchContext(ctx context.Context, query string) ([]string, error)
	// FetchContext retrieves the content behind one result, for the sact
	// command.
	FetchContext(ctx context.Context, path string) ([]byte, error)
}

// nsSearch runs one namespace search, bounded by ctx and
// DefaultRemoteTimeout.
func (fs *FS) nsSearch(ctx context.Context, ns Namespace, q string) ([]string, error) {
	start := time.Now()
	defer fs.met.nsSearchSeconds.ObserveSince(start)
	ctx, cancel := context.WithTimeout(ctx, DefaultRemoteTimeout)
	defer cancel()
	results, err := ns.SearchContext(ctx, q)
	if err != nil {
		fs.met.nsErrors.Add(1)
	}
	return results, err
}

// remoteScheme prefixes link targets that point into mounted
// namespaces: "remote://<namespace><path>".
const remoteScheme = "remote://"

// RemoteTarget builds the link-target string for a result from a
// namespace.
func RemoteTarget(nsName, path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return remoteScheme + nsName + path
}

// splitRemoteTarget parses a remote link target. ok is false for local
// targets.
func splitRemoteTarget(target string) (nsName, path string, ok bool) {
	if !strings.HasPrefix(target, remoteScheme) {
		return "", "", false
	}
	rest := target[len(remoteScheme):]
	i := strings.IndexByte(rest, '/')
	if i <= 0 {
		return "", "", false
	}
	return rest[:i], rest[i:], true
}

// IsRemoteTarget reports whether a link target points into a mounted
// namespace.
func IsRemoteTarget(target string) bool {
	_, _, ok := splitRemoteTarget(target)
	return ok
}

// SemanticMount mounts a namespace at the directory path (the paper's
// smount). Several namespaces may be mounted on the same point —
// a multiple semantic mount point (§3.2) — and their results are
// treated as disjoint sets. Namespace names must be unique within the
// volume. Queries whose scope includes the mount point start importing
// results from the namespace immediately.
func (fs *FS) SemanticMount(path string, ns Namespace) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return &vfs.PathError{Op: "smount", Path: path, Err: err}
	}
	if ns == nil || ns.Name() == "" {
		return &vfs.PathError{Op: "smount", Path: path, Err: vfs.ErrInvalid}
	}
	info, err := fs.under.Stat(clean)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		return &vfs.PathError{Op: "smount", Path: path, Err: vfs.ErrNotDir}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, existing := range fs.mounts {
		for _, e := range existing {
			if e.Name() == ns.Name() {
				return fmt.Errorf("hac: namespace %q already mounted", ns.Name())
			}
		}
	}
	fs.registerDirLocked(clean)
	fs.mounts[clean] = append(fs.mounts[clean], ns)
	// Queries whose scope covers the new mount must import its results.
	return fs.resyncLocked(fs.semanticOrderLocked(), fs.evalCfg(nil))
}

// SemanticUnmount detaches the named namespace from the mount point at
// path.
func (fs *FS) SemanticUnmount(path, nsName string) error {
	clean, err := vfs.Clean(path)
	if err != nil {
		return &vfs.PathError{Op: "sumount", Path: path, Err: err}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	list := fs.mounts[clean]
	for i, ns := range list {
		if ns.Name() == nsName {
			fs.mounts[clean] = append(list[:i], list[i+1:]...)
			if len(fs.mounts[clean]) == 0 {
				delete(fs.mounts, clean)
			}
			return fs.resyncLocked(fs.semanticOrderLocked(), fs.evalCfg(nil))
		}
	}
	return fmt.Errorf("%w: %s at %s", ErrNoNamespace, nsName, clean)
}

// SemanticMounts returns mount-point path → mounted namespace names.
func (fs *FS) SemanticMounts() map[string][]string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make(map[string][]string, len(fs.mounts))
	for p, list := range fs.mounts {
		names := make([]string, len(list))
		for i, ns := range list {
			names[i] = ns.Name()
		}
		sort.Strings(names)
		out[p] = names
	}
	return out
}

// evalRemoteLocked computes the remote link targets for ds's query
// (§3): every namespace mounted within the scope provided by
// parentPath evaluates the query independently; when the parent is
// itself semantic, results are further restricted to the remote
// targets the parent provides. Each remote call is bounded by ctx and
// DefaultRemoteTimeout. Caller holds fs.mu (read suffices).
func (fs *FS) evalRemoteLocked(ctx context.Context, ds *dirState, parentPath string) (map[string]bool, error) {
	if len(fs.mounts) == 0 || ds.queryText == "" {
		return nil, nil
	}
	out := make(map[string]bool)

	parentDS, ok := fs.stateAtLocked(parentPath)
	if ok && parentDS.semantic {
		// Scope = the parent's remote link targets. Query each
		// namespace that contributed and intersect.
		scope := make(map[string]bool)
		nsNames := make(map[string]bool)
		addScope := func(t string) {
			if name, _, isRemote := splitRemoteTarget(t); isRemote {
				scope[t] = true
				nsNames[name] = true
			}
		}
		// Remote targets sort after every local path.
		for _, t := range parentDS.trans[sort.SearchStrings(parentDS.trans, remoteScheme):] {
			addScope(t)
		}
		for t := range parentDS.perm {
			addScope(t)
		}
		if len(scope) == 0 {
			return nil, nil
		}
		for _, list := range fs.mounts {
			for _, ns := range list {
				if !nsNames[ns.Name()] {
					continue
				}
				results, err := fs.nsSearch(ctx, ns, ds.queryText)
				if err != nil {
					return nil, fmt.Errorf("hac: remote search in %s: %w", ns.Name(), err)
				}
				for _, r := range results {
					t := RemoteTarget(ns.Name(), r)
					if scope[t] {
						out[t] = true
					}
				}
			}
		}
		return out, nil
	}

	// Syntactic parent: every mount point inside its subtree is in
	// scope; results are imported wholesale.
	for mp, list := range fs.mounts {
		if !vfs.HasPrefix(mp, parentPath) {
			continue
		}
		for _, ns := range list {
			results, err := fs.nsSearch(ctx, ns, ds.queryText)
			if err != nil {
				return nil, fmt.Errorf("hac: remote search in %s: %w", ns.Name(), err)
			}
			for _, r := range results {
				out[RemoteTarget(ns.Name(), r)] = true
			}
		}
	}
	return out, nil
}

// Extract returns the content behind a link in a semantic directory —
// the paper's sact command. Local targets are read through the file
// system; remote targets are fetched from their namespace. A plain file
// path reads the file itself.
func (fs *FS) Extract(linkPath string) ([]byte, error) {
	clean, err := vfs.Clean(linkPath)
	if err != nil {
		return nil, &vfs.PathError{Op: "sact", Path: linkPath, Err: err}
	}
	info, err := fs.Lstat(clean)
	if err != nil {
		return nil, err
	}
	if info.Type != vfs.TypeSymlink {
		return fs.under.ReadFile(clean)
	}
	target := info.Target
	if nsName, rpath, ok := splitRemoteTarget(target); ok {
		ns := fs.namespaceByName(nsName)
		if ns == nil {
			return nil, pathErr("sact", linkPath, fmt.Errorf("%w: %s", ErrNoNamespace, nsName))
		}
		ctx, cancel := context.WithTimeout(context.Background(), DefaultRemoteTimeout)
		defer cancel()
		return ns.FetchContext(ctx, rpath)
	}
	if !vfs.IsAbs(target) {
		target = vfs.Join(vfs.Dir(clean), target)
	}
	return fs.ReadFile(target)
}

func (fs *FS) namespaceByName(name string) Namespace {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for _, list := range fs.mounts {
		for _, ns := range list {
			if ns.Name() == name {
				return ns
			}
		}
	}
	return nil
}
