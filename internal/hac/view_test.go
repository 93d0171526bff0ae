package hac

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hacfs/internal/vfs"
)

// I8 for semantic directories (DESIGN.md §3, §6): links, transient and
// permanent, are a view HAC serves, and through FS a semantic directory
// must read exactly like one whose links are real symlinks. The reference
// is a plain MemFS holding the volume's substrate tree with every link of
// Links() written out as a symlink.

// materialized returns the reference for fs: its substrate tree copied
// into a MemFS, plus a real symlink per link that is not prohibited.
func materialized(t *testing.T, fs *FS) *vfs.MemFS {
	t.Helper()
	ref := vfs.New()
	if err := vfs.CopyTree(fs.Under(), "/", ref, "/"); err != nil {
		t.Fatal(err)
	}
	for _, d := range fs.SemanticDirs() {
		links, err := fs.Links(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range links {
			if l.Class == Prohibited {
				continue
			}
			if err := ref.Symlink(l.Target, vfs.Join(d, l.Name)); err != nil {
				t.Fatalf("materializing %s/%s -> %s: %v", d, l.Name, l.Target, err)
			}
		}
	}
	return ref
}

// errClass names the sentinel err wraps, the part of an error the two
// file systems must agree on.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, s := range []error{vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir, vfs.ErrInvalid, vfs.ErrLoop, vfs.ErrNotEmpty} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "other: " + err.Error()
}

// readsOf renders every read of p that I8 compares: Lstat, Readlink,
// Stat, ReadFile and ReadDir, less inode numbers and modification times.
func readsOf(fsys vfs.FileSystem, p string) string {
	var b strings.Builder
	info, err := fsys.Lstat(p)
	fmt.Fprintf(&b, "lstat %s %s %v %d %q\n", errClass(err), info.Name, info.Type, info.Size, info.Target)
	target, err := fsys.Readlink(p)
	fmt.Fprintf(&b, "readlink %s %q\n", errClass(err), target)
	info, err = fsys.Stat(p)
	fmt.Fprintf(&b, "stat %s %v %d\n", errClass(err), info.Type, info.Size)
	data, err := fsys.ReadFile(p)
	fmt.Fprintf(&b, "read %s %q\n", errClass(err), data)
	entries, err := fsys.ReadDir(p)
	fmt.Fprintf(&b, "readdir %s", errClass(err))
	for _, e := range entries {
		fmt.Fprintf(&b, " %s:%v", e.Name, e.Type)
	}
	return b.String()
}

// viewWalk drives seeded random steps against one volume.
type viewWalk struct {
	t     *testing.T
	rng   *rand.Rand
	fs    *FS
	docs  []string // corpus paths the walk wrote (some since removed)
	dirs  []string // directories the walk made semantic
	seq   int
	trail []string
}

var viewWords = []string{"alpha", "bravo", "charlie", "delta"}

func (w *viewWalk) fresh(prefix string) string {
	w.seq++
	return fmt.Sprintf("%s%d", prefix, w.seq)
}

func (w *viewWalk) words() string {
	ws := make([]string, 1+w.rng.Intn(3))
	for i := range ws {
		ws[i] = viewWords[w.rng.Intn(len(viewWords))]
	}
	return strings.Join(ws, " ")
}

func (w *viewWalk) pick(from []string) string {
	if len(from) == 0 {
		return ""
	}
	return from[w.rng.Intn(len(from))]
}

// linkIn returns the path of a random link in dir ("" when it has none).
func (w *viewWalk) linkIn(dir string) string {
	entries, _ := w.fs.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if e.Type == vfs.TypeSymlink {
			names = append(names, e.Name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	return vfs.Join(dir, w.pick(names))
}

func (w *viewWalk) docDir() string { return w.pick([]string{"/docs/a", "/docs/b"}) }

// step runs one random operation. Failures of the operation itself are
// not the subject — the reads after it are — but a panic or a broken
// audit is.
func (w *viewWalk) step() {
	fs := w.fs
	dir := w.pick(w.dirs)
	var op string
	var err error
	switch k := w.rng.Intn(17); k {
	case 0:
		d := "/" + w.fresh("s")
		if w.rng.Intn(3) == 0 {
			d = vfs.Join(dir, w.fresh("sub"))
		}
		q := w.pick(viewWords)
		op, err = "semdir "+d+" "+q, fs.SemDir(d, q)
		if err == nil {
			w.dirs = append(w.dirs, d)
		}
	case 1:
		op, err = "sync", fs.Sync("/")
	case 2:
		op = "reindex"
		_, err = fs.Reindex("/")
	case 3:
		p := w.pick(w.docs)
		if w.rng.Intn(3) == 0 {
			p = vfs.Join(w.docDir(), w.fresh("n")+".txt")
			w.docs = append(w.docs, p)
		}
		op, err = "write "+p, fs.WriteFile(p, []byte(w.words()))
	case 4, 5:
		p := w.linkIn(dir)
		op, err = "remove link "+p, fs.Remove(p)
	case 6:
		p := w.pick(w.docs)
		op, err = "remove "+p, fs.Remove(p)
	case 7:
		p := w.linkIn(dir)
		to := vfs.Join(w.pick(append([]string{"/chains"}, w.dirs...)), w.fresh("r"))
		if other := w.linkIn(dir); w.rng.Intn(2) == 0 && other != "" {
			to = other // onto another link
		}
		op, err = "rename link "+p+" "+to, fs.Rename(p, to)
	case 8:
		p := w.pick(w.docs)
		to := vfs.Join(w.docDir(), w.fresh("m")+".txt")
		onto := w.rng.Intn(3) == 0
		if onto {
			to = w.pick(w.docs)
		}
		op, err = "rename "+p+" "+to, fs.Rename(p, to)
		if err == nil {
			w.docs = append(w.docs, to)
		}
		if err == nil && onto {
			// The index took the moved document under the overwritten
			// one's path: links elsewhere to that path are stale until a
			// pass (DESIGN.md §6, I2).
			op, err = op+" + sync", fs.Sync("/")
		}
	case 9:
		p := vfs.Join(dir, w.fresh("u"))
		op, err = "symlink "+p, fs.Symlink(w.pick(w.docs), p)
	case 10:
		// A physical symlink elsewhere that points into a semantic
		// directory, at a link or at a name that is not one.
		target := w.linkIn(dir)
		if target == "" || w.rng.Intn(4) == 0 {
			target = vfs.Join(dir, "absent")
		}
		p := vfs.Join("/chains", w.fresh("c"))
		op, err = "chain "+p+" -> "+target, fs.Symlink(target, p)
	case 11:
		op, err = "permanent "+dir, fs.MarkPermanent(dir, w.pick(w.docs))
	case 12:
		if link := w.linkIn(dir); link != "" {
			target, _ := fs.Readlink(link)
			op, err = "permanent "+link, fs.MarkPermanent(dir, target)
		}
	case 13:
		if w.rng.Intn(4) == 0 {
			op, err = "syntactic "+dir, fs.MakeSyntactic(dir)
		}
	case 14:
		p := w.linkIn(dir)
		op, err = "write through "+p, fs.WriteFile(p, []byte(w.words()))
	case 15:
		// A physical symlink moves into the view, as a permanent link —
		// one to a document: a link to a link in another semantic
		// directory forms a chain the dependency graph does not see
		// (DESIGN.md §11).
		p := w.linkIn("/chains")
		if target, _ := fs.Readlink(p); strings.HasPrefix(target, "/docs/") {
			to := vfs.Join(dir, w.fresh("in"))
			if other := w.linkIn(dir); w.rng.Intn(3) == 0 && other != "" {
				to = other
			}
			op, err = "rename chain "+p+" "+to, fs.Rename(p, to)
		}
	case 16:
		// A link leaves the view, as a physical symlink.
		p := w.linkIn(dir)
		to := vfs.Join("/chains", w.fresh("out"))
		if other := w.linkIn("/chains"); w.rng.Intn(3) == 0 && other != "" {
			to = other
		}
		op, err = "rename link out "+p+" "+to, fs.Rename(p, to)
	}
	w.trail = append(w.trail, fmt.Sprintf("%s (%v)", op, err))
}

func (w *viewWalk) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%s\nsteps:\n  %s", fmt.Sprintf(format, args...), strings.Join(w.trail, "\n  "))
}

// compare checks every read of every name in each directory the walk
// made semantic, in /chains and in /docs, plus absent names and paths
// through links, against the materialized reference.
func (w *viewWalk) compare() {
	w.t.Helper()
	if problems := w.fs.CheckConsistency(); len(problems) != 0 {
		w.fatalf("CheckConsistency: %v", problems)
	}
	ref := materialized(w.t, w.fs)
	for _, dir := range append([]string{"/chains", "/docs/a", "/docs/b"}, w.dirs...) {
		names := map[string]bool{"absent": true}
		for _, fsys := range []vfs.FileSystem{w.fs, ref} {
			entries, _ := fsys.ReadDir(dir)
			for _, e := range entries {
				names[e.Name] = true
			}
		}
		paths := []string{dir}
		for name := range names {
			paths = append(paths, vfs.Join(dir, name), vfs.Join(dir, name, "inner"))
		}
		sort.Strings(paths)
		for _, p := range paths {
			if got, want := readsOf(w.fs, p), readsOf(ref, p); got != want {
				w.fatalf("%s reads\n%s\nwith real symlinks\n%s", p, got, want)
			}
		}
	}
}

// TestViewMatchesSymlinks runs the walk on MemFS and cas.FS, comparing
// after every step.
func TestViewMatchesSymlinks(t *testing.T) {
	for _, sub := range mcSubstrates {
		for seed := int64(1); seed <= 6; seed++ {
			sub, seed := sub, seed
			t.Run(fmt.Sprintf("%s/seed%d", sub.name, seed), func(t *testing.T) {
				t.Parallel()
				w := &viewWalk{t: t, rng: rand.New(rand.NewSource(seed)), fs: New(sub.mk(), Options{})}
				for _, d := range []string{"/docs/a", "/docs/b", "/chains"} {
					if err := w.fs.MkdirAll(d); err != nil {
						t.Fatal(err)
					}
				}
				// Base names repeat across /docs/a and /docs/b, so links
				// collide and take ~n names.
				for i := 0; i < 12; i++ {
					p := vfs.Join([]string{"/docs/a", "/docs/b"}[i%2], fmt.Sprintf("f%d.txt", i%5))
					if err := w.fs.WriteFile(p, []byte(w.words())); err != nil {
						t.Fatal(err)
					}
					w.docs = append(w.docs, p)
				}
				if _, err := w.fs.Reindex("/"); err != nil {
					t.Fatal(err)
				}
				for _, sd := range [][2]string{{"/s1", "alpha"}, {"/s2", "bravo"}} {
					if err := w.fs.SemDir(sd[0], sd[1]); err != nil {
						t.Fatal(err)
					}
					w.dirs = append(w.dirs, sd[0])
				}
				w.compare()
				for i := 0; i < 120; i++ {
					w.step()
					w.compare()
				}
			})
		}
	}
}

// TestViewWritePaths pins each write of the view's contract (DESIGN.md
// §3): the same call on a volume and on the reference with real symlinks
// fails or succeeds alike and leaves the same tree behind, and the
// volume's bookkeeping records what the call meant.
func TestViewWritePaths(t *testing.T) {
	cases := []struct {
		name      string
		setup     func(fs vfs.FileSystem) error // run on both, after /sel exists
		call      func(fs vfs.FileSystem) error
		err       error                // what both must fail with; nil = succeed
		links     map[string]LinkClass // /sel's classes afterwards (nil = not checked)
		writes    uint64               // substrate symlink and remove calls the volume makes
		skipRefOp bool                 // a HAC operation with no counterpart on the reference
	}{{
		name: "mkdir on a view name",
		call: func(fs vfs.FileSystem) error { return fs.Mkdir("/sel/apple1.txt") },
		err:  vfs.ErrExist,
	}, {
		name: "symlink on a view name",
		call: func(fs vfs.FileSystem) error { return fs.Symlink("/docs/cherry.txt", "/sel/apple1.txt") },
		err:  vfs.ErrExist,
	}, {
		name: "mkdirall through a view link",
		call: func(fs vfs.FileSystem) error { return fs.MkdirAll("/sel/apple1.txt/sub") },
		err:  vfs.ErrNotDir,
	}, {
		name:  "mkdirall through a dangling view link",
		setup: func(fs vfs.FileSystem) error { return fs.Remove("/docs/apple2.txt") },
		call:  func(fs vfs.FileSystem) error { return fs.MkdirAll("/sel/apple2.txt/sub") },
		err:   vfs.ErrExist,
	}, {
		name: "mkdirall through a symlink chain that dangles",
		setup: func(fs vfs.FileSystem) error {
			if err := fs.Symlink("/docs", "/d1"); err != nil {
				return err
			}
			return fs.Symlink("/d1/gone", "/d2")
		},
		call: func(fs vfs.FileSystem) error { return fs.MkdirAll("/d2/sub") },
		err:  vfs.ErrExist,
	}, {
		name: "write through a view link",
		call: func(fs vfs.FileSystem) error { return fs.WriteFile("/sel/apple1.txt", []byte("apple pie")) },
	}, {
		name: "create through a view link",
		call: func(fs vfs.FileSystem) error {
			f, err := fs.Create("/sel/m1.txt")
			if err != nil {
				return err
			}
			if _, err := f.Write([]byte("apple mail, rewritten")); err != nil {
				return err
			}
			return f.Close()
		},
	}, {
		name:  "create through a dangling view link",
		setup: func(fs vfs.FileSystem) error { return fs.Remove("/docs/apple2.txt") },
		call:  func(fs vfs.FileSystem) error { return fs.WriteFile("/sel/apple2.txt", []byte("apple")) },
		err:   vfs.ErrExist,
	}, {
		name:  "write through a symlink to a view link",
		setup: func(fs vfs.FileSystem) error { return fs.Symlink("/sel/apple1.txt", "/chain") },
		call:  func(fs vfs.FileSystem) error { return fs.WriteFile("/chain", []byte("apple, chained")) },
	}, {
		name: "a loop through a view link",
		setup: func(fs vfs.FileSystem) error {
			if err := fs.Remove("/docs/apple1.txt"); err != nil {
				return err
			}
			return fs.Symlink("/sel/apple1.txt", "/docs/apple1.txt")
		},
		call: func(fs vfs.FileSystem) error { _, err := fs.ReadFile("/sel/apple1.txt"); return err },
		err:  vfs.ErrLoop,
	}, {
		name:   "rename a file onto a view name",
		setup:  func(fs vfs.FileSystem) error { return fs.WriteFile("/notes.txt", []byte("note")) },
		call:   func(fs vfs.FileSystem) error { return fs.Rename("/notes.txt", "/sel/apple1.txt") },
		links:  map[string]LinkClass{"/docs/apple1.txt": Prohibited, "/docs/apple2.txt": Transient, "/mail/m1.txt": Transient},
		writes: 0,
	}, {
		name:  "rename a directory onto a view name",
		setup: func(fs vfs.FileSystem) error { return fs.Mkdir("/empty") },
		call:  func(fs vfs.FileSystem) error { return fs.Rename("/empty", "/sel/apple1.txt") },
		err:   vfs.ErrNotDir,
	}, {
		name:   "rename a view link within its directory",
		call:   func(fs vfs.FileSystem) error { return fs.Rename("/sel/apple1.txt", "/sel/first.txt") },
		links:  map[string]LinkClass{"/docs/apple1.txt": Permanent, "/docs/apple2.txt": Transient, "/mail/m1.txt": Transient},
		writes: 0,
	}, {
		name: "rename a view link into another semantic directory",
		setup: func(fs vfs.FileSystem) error {
			if hfs, ok := fs.(*FS); ok {
				return hfs.SemDir("/other", "")
			}
			return fs.Mkdir("/other")
		},
		call:   func(fs vfs.FileSystem) error { return fs.Rename("/sel/apple1.txt", "/other/first.txt") },
		links:  map[string]LinkClass{"/docs/apple1.txt": Prohibited, "/docs/apple2.txt": Transient, "/mail/m1.txt": Transient},
		writes: 0,
	}, {
		name:   "rename a symlink into a semantic directory",
		setup:  func(fs vfs.FileSystem) error { return fs.Symlink("/docs/cherry.txt", "/chain") },
		call:   func(fs vfs.FileSystem) error { return fs.Rename("/chain", "/sel/cherry.txt") },
		links:  map[string]LinkClass{"/docs/apple1.txt": Transient, "/docs/apple2.txt": Transient, "/docs/cherry.txt": Permanent, "/mail/m1.txt": Transient},
		writes: 1,
	}, {
		name: "rename a permanent link out of its directory",
		setup: func(fs vfs.FileSystem) error {
			if hfs, ok := fs.(*FS); ok {
				return hfs.MarkPermanent("/sel", "/docs/apple1.txt")
			}
			return nil
		},
		call:   func(fs vfs.FileSystem) error { return fs.Rename("/sel/apple1.txt", "/docs/keep.txt") },
		links:  map[string]LinkClass{"/docs/apple1.txt": Prohibited, "/docs/apple2.txt": Transient, "/mail/m1.txt": Transient},
		writes: 1,
	}, {
		name:   "rename a view link out of its directory",
		call:   func(fs vfs.FileSystem) error { return fs.Rename("/sel/apple1.txt", "/docs/keep.txt") },
		links:  map[string]LinkClass{"/docs/apple1.txt": Prohibited, "/docs/apple2.txt": Transient, "/mail/m1.txt": Transient},
		writes: 1,
	}, {
		name:   "remove a view link",
		call:   func(fs vfs.FileSystem) error { return fs.Remove("/sel/apple2.txt") },
		links:  map[string]LinkClass{"/docs/apple1.txt": Transient, "/docs/apple2.txt": Prohibited, "/mail/m1.txt": Transient},
		writes: 0,
	}, {
		name: "remove a semantic directory holding view links",
		call: func(fs vfs.FileSystem) error { return fs.Remove("/sel") },
		err:  vfs.ErrNotEmpty,
	}, {
		name: "semdir on a view name",
		call: func(fs vfs.FileSystem) error {
			if hfs, ok := fs.(*FS); ok {
				return hfs.SemDir("/sel/apple1.txt", "apple")
			}
			return nil
		},
		err:       vfs.ErrNotDir,
		skipRefOp: true,
	}, {
		name: "mark a transient link permanent",
		call: func(fs vfs.FileSystem) error {
			if hfs, ok := fs.(*FS); ok {
				return hfs.MarkPermanent("/sel", "/mail/m1.txt")
			}
			return nil
		},
		links:     map[string]LinkClass{"/docs/apple1.txt": Transient, "/docs/apple2.txt": Transient, "/mail/m1.txt": Permanent},
		writes:    0,
		skipRefOp: true,
	}, {
		name: "make the directory syntactic",
		call: func(fs vfs.FileSystem) error {
			if hfs, ok := fs.(*FS); ok {
				return hfs.MakeSyntactic("/sel")
			}
			return nil
		},
		writes:    3,
		skipRefOp: true,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fault := vfs.NewFaultFS(vfs.New(), vfs.FaultConfig{})
			fs := newTestFSOn(t, fault)
			if err := fs.SemDir("/sel", "apple"); err != nil {
				t.Fatal(err)
			}
			ref := materialized(t, fs)
			if tc.setup != nil {
				for _, fsys := range []vfs.FileSystem{fs, ref} {
					if err := tc.setup(fsys); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := fault.Stats()
			err := tc.call(fs)
			if errClass(err) != errClass(tc.err) {
				t.Fatalf("volume: %v, want %v", err, tc.err)
			}
			if d := opDelta(fault, before); d["symlink"]+d["remove"] != tc.writes {
				t.Fatalf("volume wrote %v to the substrate, want %d symlink or remove calls", d, tc.writes)
			}
			if !tc.skipRefOp {
				if rerr := tc.call(ref); errClass(rerr) != errClass(tc.err) {
					t.Fatalf("reference: %v, want %v", rerr, tc.err)
				}
			} else if tc.err == nil {
				ref = materialized(t, fs)
			}
			if problems := fs.CheckConsistency(); len(problems) != 0 {
				t.Fatalf("CheckConsistency: %v", problems)
			}
			if tc.links != nil {
				got := map[string]LinkClass{}
				links, err := fs.Links("/sel")
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range links {
					got[l.Target] = l.Class
				}
				if !reflect.DeepEqual(got, tc.links) {
					t.Fatalf("links = %v, want %v", got, tc.links)
				}
			}
			for _, p := range []string{"/sel", "/docs", "/mail", "/"} {
				entries, _ := ref.ReadDir(p)
				for _, e := range append(entries, vfs.DirEntry{Name: "absent"}) {
					q := vfs.Join(p, e.Name)
					if got, want := readsOf(fs, q), readsOf(ref, q); got != want {
						t.Fatalf("%s reads\n%s\nwith real symlinks\n%s", q, got, want)
					}
				}
			}
		})
	}
}

// TestViewConcurrentReaders: readers of a semantic directory build and
// share its name index while commits replace and edit the transient set
// under them. CI runs it with -race -count=10.
func TestViewConcurrentReaders(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				entries, err := fs.ReadDir("/sel")
				if err != nil {
					t.Errorf("ReadDir: %v", err)
					return
				}
				// A name may leave between the listing and these reads.
				for _, e := range entries {
					p := vfs.Join("/sel", e.Name)
					fs.Lstat(p)
					fs.Readlink(p)
					fs.Stat(p)
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		content := []byte("banana apple")
		if i%2 == 1 {
			content = []byte("banana pear")
		}
		if err := fs.WriteFile("/docs/banana.txt", content); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Reindex("/docs"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("/sel/m1.txt"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unprohibit("/sel", "/mail/m1.txt"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("CheckConsistency: %v", problems)
	}
}

// TestViewIndexAfterDrops: a commit that only drops links, made while
// no lookup has built the directory's name index (as after a load),
// leaves the kept links served.
func TestViewIndexAfterDrops(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	ds, _ := fs.stateAtLocked("/sel")
	ds.view = nil
	fs.mu.Unlock()
	if err := fs.WriteFile("/docs/apple2.txt", []byte("pear")); err != nil {
		t.Fatal(err)
	}
	// Reindexing /docs alone lists nothing of /sel.
	if _, err := fs.Reindex("/docs"); err != nil {
		t.Fatal(err)
	}
	if target, err := fs.Readlink("/sel/apple1.txt"); err != nil || target != "/docs/apple1.txt" {
		t.Fatalf("kept link after a dropping pass: %q, %v", target, err)
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("CheckConsistency: %v", problems)
	}
}

// TestViewEntriesFollowRenames: a plain Rename that moves link targets
// — a linked file, its directory, the directory of a permanent link's
// target — moves them in a listing built before it too, so every ReadDir
// entry still equals its Lstat.
func TestViewEntriesFollowRenames(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/keep/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/keep/sub/k.txt", []byte("pear")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/keep/sub/k.txt", "/sel/kept"); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]string{
		{"/docs/apple1.txt", "/docs/apple9.txt"}, // a transient target
		{"/docs", "/papers"},                     // its directory
		{"/keep/sub", "/keep/sub2"},              // a permanent target's directory
	} {
		if _, err := fs.ReadDir("/sel"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
		entries, err := fs.ReadDir("/sel")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			p := vfs.Join("/sel", e.Name)
			if want, err := fs.Lstat(p); err != nil || e != want {
				t.Errorf("after renaming %s to %s: ReadDir entry %+v, Lstat(%s) %+v, %v", r[0], r[1], e, p, want, err)
			}
		}
	}
}

// TestSemDirThroughSymlinkedParent: a directory is HAC's under the path
// it has with every link followed. SemDir and MkdirAll through a symlinked
// parent make and register the real directory, once, so it is the same
// semantic directory by either path, scoped by its real parent.
func TestSemDirThroughSymlinkedParent(t *testing.T) {
	for _, sub := range mcSubstrates {
		t.Run(sub.name, func(t *testing.T) {
			fs := New(sub.mk(), Options{})
			if err := fs.MkdirAll("/docs"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/docs/a.txt", []byte("apple")); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Reindex("/"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Symlink("/docs", "/alias"); err != nil {
				t.Fatal(err)
			}
			if err := fs.SemDir("/alias/sub", "apple"); err != nil {
				t.Fatal(err)
			}
			if err := fs.SemDir("/docs/sub2", "apple"); err != nil {
				t.Fatal(err)
			}
			if err := fs.MkdirAll("/alias/x/y"); err != nil {
				t.Fatal(err)
			}
			for _, d := range []string{"sub", "sub2"} {
				if !fs.IsSemantic("/docs/" + d) {
					t.Errorf("/docs/%s is not semantic", d)
				}
				link, err := fs.Lstat("/docs/" + d + "/a.txt")
				if err != nil || link.Type != vfs.TypeSymlink || link.Target != "/docs/a.txt" {
					t.Fatalf("Lstat(/docs/%s/a.txt) = %+v, %v; want a link to /docs/a.txt", d, link, err)
				}
				want := []vfs.DirEntry{link}
				if got, err := fs.LinkTargets("/docs/" + d); err != nil || !reflect.DeepEqual(got, []string{"/docs/a.txt"}) {
					t.Errorf("/docs/%s links %v, %v; want /docs/a.txt", d, got, err)
				}
				for _, p := range []string{"/docs/" + d, "/alias/" + d} {
					if got, err := fs.ReadDir(p); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("ReadDir(%s) = %v, %v; want %v", p, got, err, want)
					}
				}
			}
			for _, p := range fs.names.Paths() {
				if strings.HasPrefix(p, "/alias") {
					t.Errorf("%s is registered: a directory is registered under its real path", p)
				}
			}
			for _, p := range []string{"/docs/sub", "/docs/x", "/docs/x/y"} {
				if _, ok := fs.names.UIDOf(p); !ok {
					t.Errorf("%s is not registered", p)
				}
			}
			if problems := fs.CheckConsistency(); len(problems) != 0 {
				t.Fatal(problems)
			}
		})
	}
}
