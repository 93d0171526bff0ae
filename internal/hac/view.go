package hac

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"hacfs/internal/vfs"
)

// Links are a view (DESIGN.md §3). A semantic directory keeps its
// transient set as the sorted target list its last consistency pass
// committed — dirState.trans, plus the few link names that are not the
// target's base name — and its permanent links as dirState.perm, and
// writes nothing for either to the substrate, which holds only the
// directory's files and subdirectories. FS serves each link as a symlink
// through its vfs.FileSystem methods, so that through FS the directory
// reads as if the links were real (I8). A path the substrate resolves
// never consults the view: it is read for a ReadDir of a semantic
// directory, a name the substrate reports missing, and a create, mkdir or
// symlink that could land on a view name.
//
// A commit names nothing: the transient links it adds are named when the
// directory's name index is first built after it (linkViewLocked), which
// is when anything first reads or takes a name there — a lookup, a
// ReadDir, Links, a Symlink, MarkPermanent or Rename into the directory,
// a Rename of a linked document, a save, MetadataBytes or the audit. The
// build names them by the rule a commit once applied: the permanent links
// keep their names, and each transient target, in target order, takes its
// base name or the first free ~n against those and the directory's
// physical entries (a ReadDir's own listing, else one ReadDir). A name,
// once given, is kept: a built index is edited in place, naming each
// later add as it comes. So an unbuilt index means unnamed transient
// links; a load, which restores names, builds the index of them at once.

// maxLinkHops bounds the links one path resolution follows, as the
// substrates' own walks do: vfs.ErrLoop beyond it.
const maxLinkHops = 40

// linkView indexes a directory's links, transient and permanent, by name.
// It is built on first use, naming the transient links a commit left
// unnamed; commits and edits of single links keep a built one current.
type linkView struct {
	byName  map[string]string // link name → target
	entries []vfs.DirEntry    // the links in name order; nil until a ReadDir needs them
}

// hasLinks reports whether the directory links anything.
func (ds *dirState) hasLinks() bool { return len(ds.trans)+len(ds.perm) > 0 }

// nameOf returns the link name of transient target t. Valid only once
// the directory's links are named: its name index is built.
func (ds *dirState) nameOf(t string) string {
	if name, ok := ds.transName[t]; ok {
		return name
	}
	return linkBaseName(t)
}

// transAt returns where t is, or would be inserted, in trans.
func (ds *dirState) transAt(t string) (int, bool) {
	i := sort.SearchStrings(ds.trans, t)
	return i, i < len(ds.trans) && ds.trans[i] == t
}

// linked reports whether the directory links t, and how.
func (ds *dirState) linked(t string) (LinkClass, bool) {
	if _, ok := ds.perm[t]; ok {
		return Permanent, true
	}
	if _, ok := ds.transAt(t); ok {
		return Transient, true
	}
	return 0, false
}

// linkViewLocked returns ds's name index, building it first if none is
// built (viewLocked). Readers holding fs.mu for reading may call it
// concurrently. Caller holds fs.mu.
func (fs *FS) linkViewLocked(ds *dirState) (*linkView, error) {
	ds.viewMu.Lock()
	defer ds.viewMu.Unlock()
	return fs.viewLocked(ds, nil, false)
}

// viewLocked returns ds.view, building it first if nil. An unbuilt index
// means the transient links are unnamed: the build keeps the permanent
// links' names and names each transient target, in target order, under
// its base name or the first free ~n against those and the directory's
// physical entries — listing, if listed (the caller's substrate listing
// of the directory, read under fs.mu), else one ReadDir's. A build writes
// ds.transName only under ds.viewMu, and before ds.view is set. Caller
// holds fs.mu and ds.viewMu.
func (fs *FS) viewLocked(ds *dirState, listing []vfs.DirEntry, listed bool) (*linkView, error) {
	if ds.view != nil {
		return ds.view, nil
	}
	byName := make(map[string]string, len(ds.perm)+len(ds.trans))
	for t, name := range ds.perm {
		byName[name] = t
	}
	if len(ds.trans) > 0 {
		if !listed {
			dirPath, ok := fs.pathOfLocked(ds.uid)
			if !ok {
				return nil, fmt.Errorf("%w: uid %d", ErrDanglingRef, ds.uid)
			}
			var err error
			if listing, err = fs.under.ReadDir(dirPath); err != nil {
				return nil, err
			}
		}
		ds.nameTrans(byName, physicalNames(listing), ds.trans)
	}
	ds.view = &linkView{byName: byName}
	return ds.view, nil
}

// indexHeldNames builds ds's name index from the names its links hold,
// naming none: a load calls it once it restored them. Caller holds fs.mu
// for writing.
func (ds *dirState) indexHeldNames() {
	byName := make(map[string]string, len(ds.perm)+len(ds.trans))
	for t, name := range ds.perm {
		byName[name] = t
	}
	for _, t := range ds.trans {
		byName[ds.nameOf(t)] = t
	}
	ds.view = &linkView{byName: byName}
}

// nameLinksLocked names ds's transient links, building its name index,
// if a commit left them unnamed; ds.transName is then complete. Caller
// holds fs.mu.
func (fs *FS) nameLinksLocked(ds *dirState) error {
	if len(ds.trans) == 0 {
		return nil
	}
	_, err := fs.linkViewLocked(ds)
	return err
}

// viewEntriesLocked returns the links as directory entries, in name
// order, without their ModTime: ds.changed moves without a rebuild, so
// withViewLocked stamps it. listing is the directory's substrate listing,
// read under fs.mu: a build names against it. The slice is shared:
// callers copy, never modify. Caller holds fs.mu.
func (fs *FS) viewEntriesLocked(ds *dirState, listing []vfs.DirEntry) ([]vfs.DirEntry, error) {
	ds.viewMu.Lock()
	defer ds.viewMu.Unlock()
	v, err := fs.viewLocked(ds, listing, true)
	if err != nil {
		return nil, err
	}
	if v.entries == nil {
		v.entries = make([]vfs.DirEntry, 0, len(v.byName))
		for name, t := range v.byName {
			v.entries = append(v.entries, vfs.DirEntry{Name: name, Type: vfs.TypeSymlink, Target: t})
		}
		slices.SortFunc(v.entries, func(a, b vfs.DirEntry) int { return strings.Compare(a.Name, b.Name) })
	}
	return v.entries, nil
}

// The mutators below run with fs.mu held for writing, so no reader is
// inside linkViewLocked or viewEntriesLocked: a built index is edited in
// place.

// addTrans links transient target t under name; "" adds it unnamed,
// which only a directory with no name index may do (addTransLocked).
func (ds *dirState) addTrans(t, name string) {
	i, _ := ds.transAt(t)
	ds.trans = slices.Insert(ds.trans, i, t)
	if name != "" && name != linkBaseName(t) {
		ds.setTransName(t, name)
	}
	if v := ds.view; v != nil {
		v.byName[name] = t
		v.entries = nil
	}
	ds.changed = time.Now()
}

// dropTrans unlinks transient target t, if linked.
func (ds *dirState) dropTrans(t string) {
	i, ok := ds.transAt(t)
	if !ok {
		return
	}
	if v := ds.view; v != nil {
		delete(v.byName, ds.nameOf(t))
		v.entries = nil
	}
	delete(ds.transName, t)
	ds.trans = slices.Delete(ds.trans, i, i+1)
	ds.changed = time.Now()
}

func (ds *dirState) setTransName(t, name string) {
	if ds.transName == nil {
		ds.transName = make(map[string]string)
	}
	ds.transName[t] = name
}

// setPermanent makes t a permanent link named name, replacing a link to t
// of either class: the directory links each target once.
func (ds *dirState) setPermanent(t, name string) {
	ds.dropLink(t)
	ds.perm[t] = name
	if v := ds.view; v != nil {
		v.byName[name] = t
		v.entries = nil
	}
	ds.changed = time.Now()
}

// dropLink unlinks t, if linked, whatever its class.
func (ds *dirState) dropLink(t string) {
	name, ok := ds.perm[t]
	if !ok {
		ds.dropTrans(t)
		return
	}
	delete(ds.perm, t)
	if v := ds.view; v != nil {
		delete(v.byName, name)
		v.entries = nil
	}
	ds.changed = time.Now()
}

// linksLocked returns the directory's classified links, sorted by
// target, naming the transient links first if a commit left them
// unnamed. trans is sorted already: only the few permanent and
// prohibited targets are sorted, then merged in. Caller holds fs.mu.
func (fs *FS) linksLocked(ds *dirState) ([]Link, error) {
	if err := fs.nameLinksLocked(ds); err != nil {
		return nil, err
	}
	other := make([]Link, 0, len(ds.perm)+len(ds.prohibited))
	for target, name := range ds.perm {
		other = append(other, Link{Name: name, Target: target, Class: Permanent})
	}
	for target := range ds.prohibited {
		other = append(other, Link{Target: target, Class: Prohibited})
	}
	slices.SortFunc(other, func(a, b Link) int { return strings.Compare(a.Target, b.Target) })
	out := make([]Link, 0, len(ds.trans)+len(other))
	j := 0
	for _, target := range ds.trans {
		for ; j < len(other) && other[j].Target < target; j++ {
			out = append(out, other[j])
		}
		out = append(out, Link{Name: ds.nameOf(target), Target: target, Class: Transient})
	}
	return append(out, other[j:]...), nil
}

// linkTargets returns the targets of the directory's links, transient
// and permanent, sorted: trans with the few permanent targets merged in.
// It needs no names. Caller holds fs.mu.
func (ds *dirState) linkTargets() []string {
	perm := make([]string, 0, len(ds.perm))
	for t := range ds.perm {
		perm = append(perm, t)
	}
	slices.Sort(perm)
	out := make([]string, 0, len(ds.trans)+len(perm))
	j := 0
	for _, t := range ds.trans {
		for ; j < len(perm) && perm[j] < t; j++ {
			out = append(out, perm[j])
		}
		out = append(out, t)
	}
	return append(out, perm[j:]...)
}

// nameTrans names transient targets ts, in order, each under its base
// name or the first free ~n against the names in byName and taken, and
// enters them in byName.
func (ds *dirState) nameTrans(byName map[string]string, taken map[string]bool, ts []string) {
	for _, t := range ts {
		base := linkBaseName(t)
		name := freeName(base, byName, taken)
		byName[name] = t
		if name != base {
			ds.setTransName(t, name)
		}
	}
}

// freeName returns base, or the first of base~2, base~3, … that is
// neither a link's name in view nor in taken.
func freeName(base string, view map[string]string, taken map[string]bool) string {
	name := base
	for n := 2; ; n++ {
		if _, linked := view[name]; !linked && !taken[name] {
			return name
		}
		name = base + "~" + strconv.Itoa(n)
	}
}

// takenNamesLocked returns the names a new link of ds may not take
// besides the view's own: every physical entry of the directory. One
// ReadDir. Caller holds fs.mu.
func (fs *FS) takenNamesLocked(dirPath string) (map[string]bool, error) {
	entries, err := fs.under.ReadDir(dirPath)
	if err != nil {
		return nil, err
	}
	return physicalNames(entries), nil
}

// physicalNames returns the names of a substrate listing.
func physicalNames(entries []vfs.DirEntry) map[string]bool {
	taken := make(map[string]bool, len(entries))
	for _, e := range entries {
		taken[e.Name] = true
	}
	return taken
}

// newLinkNameLocked picks the name a new link to t in ds takes, after
// every name the directory's links hold: its base name, or the first
// free ~n. Caller holds fs.mu.
func (fs *FS) newLinkNameLocked(ds *dirState, dirPath, t string) (string, error) {
	v, err := fs.linkViewLocked(ds)
	if err != nil {
		return "", err
	}
	taken, err := fs.takenNamesLocked(dirPath)
	if err != nil {
		return "", err
	}
	return freeName(linkBaseName(t), v.byName, taken), nil
}

// addTransLocked links transient target t: unnamed while the directory's
// name index is unbuilt, named now, after the names it holds, otherwise.
// Caller holds fs.mu for writing.
func (fs *FS) addTransLocked(ds *dirState, dirPath, t string) error {
	name := ""
	if ds.view != nil {
		var err error
		if name, err = fs.newLinkNameLocked(ds, dirPath, t); err != nil {
			return err
		}
	}
	ds.addTrans(t, name)
	return nil
}

// viewLinkLocked returns the link named name in the directory at dir, if
// dir is a semantic directory that has one. A directory whose links
// cannot be named (its listing failed) answers that it has none, and the
// substrate's answer stands. Caller holds fs.mu.
func (fs *FS) viewLinkLocked(dir, name string) (*dirState, string, bool) {
	ds, ok := fs.stateAtLocked(dir)
	if !ok || !ds.semantic || !ds.hasLinks() {
		return nil, "", false
	}
	v, err := fs.linkViewLocked(ds)
	if err != nil {
		return nil, "", false
	}
	t, ok := v.byName[name]
	return ds, t, ok
}

// viewInfo is the Lstat answer for a link.
func viewInfo(ds *dirState, name, target string) vfs.Info {
	return vfs.Info{Name: name, Type: vfs.TypeSymlink, ModTime: ds.changed, Target: target}
}

// walkEnd is where resolveLocked's walk stopped.
type walkEnd struct {
	path    string // the path reached: no link left in it but an unfollowed last component
	viaView bool   // the walk met a view link
	// When the unfollowed last component is a view link: its directory
	// and target.
	dir    *dirState
	target string
	// When the walk stopped at a name that exists neither on the
	// substrate nor in the view: the path from that name on, to be read
	// under path — what a MkdirAll creates. "" when the missing name is
	// in a link's target: the link dangles.
	rest string
}

// resolveLocked walks clean the way a substrate walk would if every view
// link were a real symlink: each link met is followed — the last
// component's too when follow is set — for at most maxLinkHops links. The
// substrate answers for every name it holds; a name it reports missing
// is looked up in its directory's view. It costs one substrate Lstat per
// component. It reads clean in place: every prefix it looks up is a
// slice of the path, and it allocates only to splice a link's target in,
// so a path with no link on the way comes back as clean itself. Caller
// holds fs.mu.
func (fs *FS) resolveLocked(clean string, follow bool) (walkEnd, error) {
	var end walkEnd
	// p is the path walked: clean, until a link's target is spliced in
	// for the link. p[:i] is the part resolved so far, "" for the root;
	// each component is "/name". p[own:] is the caller's own path, not a
	// link's target.
	p, i, own := clean, 0, 0
	if p == "/" {
		p = ""
	}
	hops := 0
	for i < len(p) {
		j := len(p)
		if k := strings.IndexByte(p[i+1:], '/'); k >= 0 {
			j = i + 1 + k
		}
		cur, next, name, last := "/", p[:j], p[i+1:j], j == len(p)
		if i > 0 {
			cur = p[:i]
		}
		info, err := fs.under.Lstat(next)
		var target string
		switch {
		case err == nil && info.Type == vfs.TypeSymlink && (follow || !last):
			target = info.Target
		case err == nil:
			if !last && info.Type != vfs.TypeDir {
				return end, &vfs.PathError{Op: "lstat", Path: next, Err: vfs.ErrNotDir}
			}
			i = j
			continue
		case !isNotExist(err):
			return end, err
		default:
			ds, t, ok := fs.viewLinkLocked(cur, name)
			if !ok {
				end.path = cur
				if i >= own {
					end.rest = p[i:]
				}
				return end, err
			}
			end.viaView = true
			if last && !follow {
				end.path, end.dir, end.target = next, ds, t
				return end, nil
			}
			target = t
		}
		if hops++; hops > maxLinkHops {
			return end, &vfs.PathError{Op: "lstat", Path: clean, Err: vfs.ErrLoop}
		}
		// An absolute target restarts at the root, a relative one at the
		// link's directory.
		base := p[:i]
		if vfs.IsAbs(target) {
			base = ""
		}
		t := vfs.Join("/", target)
		if t == "/" {
			t = ""
		}
		own = len(base) + len(t) + max(own-j, 0)
		p, i = base+t+p[j:], len(base)
	}
	end.path = p
	if p == "" {
		end.path = "/"
	}
	return end, nil
}

// followLocked returns the path clean leads to with every link on the
// way followed, for retrying a substrate call that reported clean
// missing (miss). Unless a view link lies on the way, the substrate's
// answer stands and miss is returned. Caller holds fs.mu.
func (fs *FS) followLocked(clean string, miss error) (string, error) {
	end, err := fs.resolveLocked(clean, true)
	switch {
	case !end.viaView:
		return "", miss
	case err != nil:
		return "", err
	}
	return end.path, nil
}

// lstatViewLocked answers Lstat for a path the substrate reported
// missing (miss). Caller holds fs.mu.
func (fs *FS) lstatViewLocked(p string, miss error) (vfs.Info, error) {
	clean, err := vfs.Clean(p)
	if err != nil {
		return vfs.Info{}, miss
	}
	dir, name := vfs.Split(clean)
	if ds, t, ok := fs.viewLinkLocked(dir, name); ok {
		return viewInfo(ds, name, t), nil
	}
	end, err := fs.resolveLocked(clean, false)
	switch {
	case !end.viaView:
		return vfs.Info{}, miss
	case err != nil:
		return vfs.Info{}, err
	case end.dir != nil:
		return viewInfo(end.dir, vfs.Base(end.path), end.target), nil
	}
	return fs.under.Lstat(end.path)
}

// lstatLocked is Lstat for a caller holding fs.mu.
func (fs *FS) lstatLocked(p string) (vfs.Info, error) {
	info, err := fs.under.Lstat(p)
	if !isNotExist(err) {
		return info, err
	}
	return fs.lstatViewLocked(p, err)
}

// canonicalLocked returns clean with the links in its directory part
// followed, so that a mutation finds the semantic directory it lands in.
// Where the walk fails, the substrate's own call reports it — unless a
// view link lay on the way. Caller holds fs.mu.
func (fs *FS) canonicalLocked(clean string) (string, error) {
	if clean == "/" {
		return clean, nil
	}
	dir, base := vfs.Split(clean)
	end, err := fs.resolveLocked(dir, true)
	switch {
	case err != nil && end.viaView:
		return "", err
	case err != nil, end.path == dir:
		return clean, nil
	}
	return vfs.Join(end.path, base), nil
}

// makePathLocked returns the directory a MkdirAll or SemDir of clean
// names: where clean leads with every link on the way followed, the last
// component's too, and the missing rest under the part that exists. A
// name missing in a link's target fails vfs.ErrExist, as a mkdir through
// a dangling symlink does. Caller holds fs.mu.
func (fs *FS) makePathLocked(clean string) (string, error) {
	end, err := fs.resolveLocked(clean, true)
	switch {
	case err == nil:
		return end.path, nil
	case !isNotExist(err):
		return "", err
	case end.rest == "":
		return "", &vfs.PathError{Op: "mkdir", Path: clean, Err: vfs.ErrExist}
	case end.path == "/":
		return end.rest, nil
	}
	return end.path + end.rest, nil
}

// withViewLocked adds the links of the directory at dir to its
// substrate listing entries; both are in name order. A path HAC has not
// registered may still reach a semantic directory through a symlink, so
// it is resolved first. entries are read under fs.mu, so a build names
// against them. It fails only if links the directory has could not be
// named. Caller holds fs.mu.
func (fs *FS) withViewLocked(dir string, entries []vfs.DirEntry) ([]vfs.DirEntry, error) {
	ds, ok := fs.stateAtLocked(dir)
	if !ok {
		end, err := fs.resolveLocked(dir, true)
		if err != nil {
			return entries, nil
		}
		ds, ok = fs.stateAtLocked(end.path)
	}
	if !ok || !ds.semantic || !ds.hasLinks() {
		return entries, nil
	}
	view, err := fs.viewEntriesLocked(ds, entries)
	if err != nil {
		return nil, err
	}
	out := make([]vfs.DirEntry, 0, len(entries)+len(view))
	i, j := 0, 0
	for i < len(entries) || j < len(view) {
		if j < len(view) && (i == len(entries) || view[j].Name < entries[i].Name) {
			out = append(out, view[j])
			out[len(out)-1].ModTime = ds.changed
			j++
		} else {
			out = append(out, entries[i])
			i++
		}
	}
	return out, nil
}
