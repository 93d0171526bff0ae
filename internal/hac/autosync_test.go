package hac

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hacfs/internal/vfs"
)

func TestAutoSyncNewMail(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/inbox-apple", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/mail"); err != nil {
		t.Fatal(err)
	}
	// New mail appears immediately, no Reindex call.
	if err := fs.WriteFile("/mail/m3.txt", []byte("apple arrives instantly")); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, target := range targetsOf(t, fs, "/inbox-apple") {
		if target == "/mail/m3.txt" {
			found = true
		}
	}
	if !found {
		t.Fatal("auto-synced file did not appear")
	}
	// Deleting the mail removes the link immediately too.
	if err := fs.Remove("/mail/m3.txt"); err != nil {
		t.Fatal(err)
	}
	for _, target := range targetsOf(t, fs, "/inbox-apple") {
		if target == "/mail/m3.txt" {
			t.Fatal("deleted auto-synced file still linked")
		}
	}
}

func TestAutoSyncScopeLimited(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/mail"); err != nil {
		t.Fatal(err)
	}
	// A change outside the auto-sync prefix stays lazy (§2.4: "but not
	// when an application modifies some files").
	if err := fs.WriteFile("/docs/lazy.txt", []byte("apple but lazy")); err != nil {
		t.Fatal(err)
	}
	for _, target := range targetsOf(t, fs, "/sel") {
		if target == "/docs/lazy.txt" {
			t.Fatal("out-of-prefix change applied eagerly")
		}
	}
	// Until the periodic pass runs.
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, target := range targetsOf(t, fs, "/sel") {
		if target == "/docs/lazy.txt" {
			found = true
		}
	}
	if !found {
		t.Fatal("lazy change lost")
	}
}

func TestAutoSyncDisable(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/mail"); err != nil {
		t.Fatal(err)
	}
	fs.DisableAutoSync("/mail")
	if err := fs.WriteFile("/mail/m9.txt", []byte("apple after disable")); err != nil {
		t.Fatal(err)
	}
	for _, target := range targetsOf(t, fs, "/sel") {
		if target == "/mail/m9.txt" {
			t.Fatal("auto-sync still active after disable")
		}
	}
}

// TestAutoSyncReportsConsistencyError: when the consistency pass of an
// auto-synced mutation fails, the call says so. The mutation itself
// stands — the bytes are written, the file is gone — the volume is
// inconsistent until the next Sync, and one Sync repairs it. A pass reads
// the substrate only to name a link it adds; a lone removal adds none, so
// its pass cannot fail.
func TestAutoSyncReportsConsistencyError(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(t *testing.T, fs *FS)
		call    func(fs *FS) error
		path    string // the file the call changes
		want    string // its content afterwards; "" = removed
		fails   bool   // the call's pass adds a link, and fails
	}{{
		// Adding a link reads the directory to pick a free name.
		name: "WriteFile",
		call: func(fs *FS) error { return fs.WriteFile("/mail/new.txt", []byte("apple pie")) },
		path: "/mail/new.txt", want: "apple pie", fails: true,
	}, {
		name: "Close",
		call: func(fs *FS) error {
			f, err := fs.Create("/mail/new.txt")
			if err != nil {
				return err
			}
			if _, err := f.Write([]byte("apple pie")); err != nil {
				return err
			}
			return f.Close()
		},
		path: "/mail/new.txt", want: "apple pie", fails: true,
	}, {
		// The delta pass only drops m1's links: the permanent one stays,
		// outliving its target, and nothing is read.
		name: "Remove",
		call: func(fs *FS) error { return fs.Remove("/mail/m1.txt") },
		path: "/mail/m1.txt",
	}, {
		// Two documents leave at once: every directory takes the full
		// evaluation, which also meets a match the index took without a
		// pass, and adds its link.
		name: "RemoveAll",
		prepare: func(t *testing.T, fs *FS) {
			for _, p := range []string{"/mail/sub/a.txt", "/mail/sub/b.txt", "/late.txt"} {
				if err := fs.WriteFile(p, []byte("apple")); err != nil {
					t.Fatal(err)
				}
			}
		},
		call: func(fs *FS) error {
			fs.Index().Add("/late.txt", []byte("apple"))
			return fs.RemoveAll("/mail/sub")
		},
		path: "/mail/sub/a.txt", fails: true,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			under := vfs.NewFaultFS(vfs.New(), vfs.FaultConfig{})
			fs := New(under, Options{})
			if err := fs.MkdirAll("/mail/sub"); err != nil {
				t.Fatal(err)
			}
			if err := fs.EnableAutoSync("/mail"); err != nil {
				t.Fatal(err)
			}
			if err := fs.SemDir("/sel", "apple"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/mail/m1.txt", []byte("apple message")); err != nil {
				t.Fatal(err)
			}
			if err := fs.MarkPermanent("/sel", "/mail/m1.txt"); err != nil {
				t.Fatal(err)
			}
			if tc.prepare != nil {
				tc.prepare(t, fs)
			}
			if problems := fs.CheckConsistency(); len(problems) != 0 {
				t.Fatalf("before the fault: %v", problems)
			}
			// The directory cannot be read: any pass that adds a link now
			// fails.
			under.SetOpErrorRate("readdir", 1)

			err := tc.call(fs)
			switch {
			case tc.fails && !errors.Is(err, vfs.ErrInjected):
				t.Fatalf("%s under a failing consistency pass = %v, want the injected error", tc.name, err)
			case !tc.fails && err != nil:
				t.Fatalf("%s = %v, want a pass that reads nothing", tc.name, err)
			}
			data, err := fs.ReadFile(tc.path)
			switch {
			case tc.want == "" && !errors.Is(err, vfs.ErrNotExist):
				t.Fatalf("%s still readable: %q, %v", tc.path, data, err)
			case tc.want != "" && (err != nil || string(data) != tc.want):
				t.Fatalf("%s = %q, %v; want %q", tc.path, data, err, tc.want)
			}
			under.SetOpErrorRate("readdir", 0)
			if problems := fs.CheckConsistency(); tc.fails == (len(problems) == 0) {
				t.Fatalf("after the call, CheckConsistency reports %v", problems)
			}
			if err := fs.Sync("/"); err != nil {
				t.Fatal(err)
			}
			if problems := fs.CheckConsistency(); len(problems) != 0 {
				t.Fatalf("after one Sync: %v", problems)
			}
		})
	}
}

// openHookFS runs hook once, as path is first read: opened for reading,
// or read whole (a reindex pass reads the substrate with ReadFile).
type openHookFS struct {
	vfs.FileSystem
	path string
	hook func()
}

func (f *openHookFS) fire(path string) {
	if path == f.path && f.hook != nil {
		hook := f.hook
		f.hook = nil
		hook()
	}
}

func (f *openHookFS) OpenFile(path string, flag int) (vfs.File, error) {
	if flag == vfs.ORead {
		f.fire(path)
	}
	return f.FileSystem.OpenFile(path, flag)
}

func (f *openHookFS) ReadFile(path string) ([]byte, error) {
	f.fire(path)
	return f.FileSystem.ReadFile(path)
}

// TestReindexKeepsAutoSyncedChanges: an auto-synced write or remove that
// lands while Reindex runs, after the pass read the file, wins — the
// pass neither restores the older content nor revives the removed
// document as a ghost link.
func TestReindexKeepsAutoSyncedChanges(t *testing.T) {
	mem := vfs.New()
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	mem.SetClock(func() time.Time { return clock })
	sub := &openHookFS{FileSystem: mem, path: "/mail/z.txt"}
	fs := New(sub, Options{})
	if err := fs.MkdirAll("/mail"); err != nil {
		t.Fatal(err)
	}
	names := []string{"/mail/a.txt", "/mail/b.txt"}
	for i := 0; i < 10; i++ {
		names = append(names, fmt.Sprintf("/mail/c%02d.txt", i))
	}
	names = append(names, "/mail/z.txt")
	for _, p := range names {
		if err := fs.WriteFile(p, []byte("mail old")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	for dir, q := range map[string]string{"/newer": "newer", "/all": "mail"} {
		if err := fs.SemDir(dir, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.EnableAutoSync("/mail"); err != nil {
		t.Fatal(err)
	}
	// Every file changes behind HAC's back, so the pass reads them all.
	clock = clock.Add(time.Minute)
	for _, p := range names {
		if err := mem.WriteFile(p, []byte("mail stale")); err != nil {
			t.Fatal(err)
		}
	}
	sub.hook = func() {
		clock = clock.Add(time.Minute)
		if err := fs.WriteFile("/mail/a.txt", []byte("mail newer")); err != nil {
			t.Error(err)
		}
		if err := fs.Remove("/mail/b.txt"); err != nil {
			t.Error(err)
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if sub.hook != nil {
		t.Fatal("the pass never read /mail/z.txt")
	}
	wantTargets(t, fs, "/newer", "/mail/a.txt")
	for _, target := range targetsOf(t, fs, "/all") {
		if target == "/mail/b.txt" {
			t.Fatal("the removed /mail/b.txt is linked again")
		}
	}
	if _, ok := fs.ix.IDOf("/mail/b.txt"); ok {
		t.Fatal("the removed /mail/b.txt is indexed again")
	}
}

// TestReindexDropsFilesRemovedAfterTheirRead: a file the index never
// held, removed or renamed away by an auto-synced call after the pass
// read it, is not installed as a ghost document; one removed and
// re-created there keeps the re-created document.
func TestReindexDropsFilesRemovedAfterTheirRead(t *testing.T) {
	mem := vfs.New()
	sub := &openHookFS{FileSystem: mem, path: "/mail/z.txt"}
	fs := New(sub, Options{})
	if err := fs.MkdirAll("/mail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/all", "mail"); err != nil {
		t.Fatal(err)
	}
	if err := fs.EnableAutoSync("/mail"); err != nil {
		t.Fatal(err)
	}
	// Written behind HAC's back: the pass meets each one as new.
	for _, p := range []string{"/mail/gone.txt", "/mail/moved.txt", "/mail/re.txt", "/mail/z.txt"} {
		if err := mem.WriteFile(p, []byte("mail new")); err != nil {
			t.Fatal(err)
		}
	}
	sub.hook = func() {
		if err := fs.Remove("/mail/gone.txt"); err != nil {
			t.Error(err)
		}
		if err := fs.Rename("/mail/moved.txt", "/elsewhere.txt"); err != nil {
			t.Error(err)
		}
		if err := fs.Remove("/mail/re.txt"); err != nil {
			t.Error(err)
		}
		if err := fs.WriteFile("/mail/re.txt", []byte("mail recreated")); err != nil {
			t.Error(err)
		}
	}
	rep, err := fs.Reindex("/")
	if err != nil {
		t.Fatal(err)
	}
	if sub.hook != nil {
		t.Fatal("the pass never read /mail/z.txt")
	}
	for _, p := range []string{"/mail/gone.txt", "/mail/moved.txt"} {
		if _, ok := fs.ix.IDOf(p); ok {
			t.Errorf("%s is indexed after it was removed", p)
		}
	}
	if _, ok := fs.ix.IDOf("/mail/re.txt"); !ok {
		t.Error("the re-created /mail/re.txt is not indexed")
	}
	if rep.Added != 1 {
		t.Errorf("Reindex added %d documents, want 1 (/mail/z.txt)", rep.Added)
	}
	wantTargets(t, fs, "/all", "/mail/re.txt", "/mail/z.txt")
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("after the pass: %v", problems)
	}
}

// TestReindexAfterDirectorySwaps: a directory replaced after its parent
// was listed, before the pass lists it, neither fails the pass nor keeps
// documents under a symlinked path. One replaced by a file is skipped
// until the next pass; one replaced by a symlink to a directory is
// listed through the link, and the next pass, which does not follow
// links, drops what that indexed.
func TestReindexAfterDirectorySwaps(t *testing.T) {
	mem := vfs.New()
	sub := &openHookFS{FileSystem: mem, path: "/b/a.txt"}
	fs := New(sub, Options{})
	for _, d := range []string{"/b/sub", "/b/tofile", "/elsewhere"} {
		if err := mem.MkdirAll(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/b/a.txt", "/b/sub/s.txt", "/b/tofile/t.txt", "/elsewhere/g.txt"} {
		if err := mem.WriteFile(p, []byte("apple")); err != nil {
			t.Fatal(err)
		}
	}
	// The pass reads /b/a.txt after listing /b, before /b/sub and /b/tofile.
	sub.hook = func() {
		for _, err := range []error{
			mem.RemoveAll("/b/sub"),
			mem.Symlink("/elsewhere", "/b/sub"),
			mem.RemoveAll("/b/tofile"),
			mem.WriteFile("/b/tofile", []byte("apple")),
		} {
			if err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatalf("a pass over swapped directories: %v", err)
	}
	if _, ok := fs.ix.IDOf("/b/sub/g.txt"); !ok {
		t.Fatal("the pass did not list /b/sub through the link it became")
	}
	if _, err := fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.ix.IDOf("/b/sub/g.txt"); ok {
		t.Error("/b/sub/g.txt, a path through a symlink, is still indexed after a second pass")
	}
	for _, p := range []string{"/b/a.txt", "/b/tofile", "/elsewhere/g.txt"} {
		if _, ok := fs.ix.IDOf(p); !ok {
			t.Errorf("%s is not indexed after a second pass", p)
		}
	}
}
