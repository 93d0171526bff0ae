package hac

import (
	"errors"
	"testing"

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
// inconsistent until the next Sync, and one Sync repairs it.
func TestAutoSyncReportsConsistencyError(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(t *testing.T, fs *FS)
		call    func(fs *FS) error
		path    string // the file the call changes
		want    string // its content afterwards; "" = removed
	}{{
		name: "WriteFile",
		call: func(fs *FS) error { return fs.WriteFile("/mail/new.txt", []byte("apple pie")) },
		path: "/mail/new.txt", want: "apple pie",
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
		path: "/mail/new.txt", want: "apple pie",
	}, {
		// A permanent link outlives its target; the delta pass re-checks
		// the symlink behind it and finds it gone.
		name: "Remove",
		prepare: func(t *testing.T, fs *FS) {
			if err := fs.MarkPermanent("/sel", "/mail/m1.txt"); err != nil {
				t.Fatal(err)
			}
		},
		call: func(fs *FS) error { return fs.Remove("/mail/m1.txt") },
		path: "/mail/m1.txt",
	}, {
		// Two documents leave at once: every directory takes the full
		// evaluation, whose repair pass finds m1's symlink gone.
		name: "RemoveAll",
		prepare: func(t *testing.T, fs *FS) {
			for _, p := range []string{"/mail/sub/a.txt", "/mail/sub/b.txt"} {
				if err := fs.WriteFile(p, []byte("apple")); err != nil {
					t.Fatal(err)
				}
			}
		},
		call: func(fs *FS) error { return fs.RemoveAll("/mail/sub") },
		path: "/mail/sub/a.txt",
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
			if tc.prepare != nil {
				tc.prepare(t, fs)
			}
			if problems := fs.CheckConsistency(); len(problems) != 0 {
				t.Fatalf("before the fault: %v", problems)
			}
			// m1's symlink vanishes behind HAC's back and cannot be
			// re-created: any pass that touches it, like any pass that adds
			// a link, now fails.
			if err := under.Under().Remove("/sel/m1.txt"); err != nil {
				t.Fatal(err)
			}
			under.SetOpErrorRate("symlink", 1)

			if err := tc.call(fs); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("%s under a failing consistency pass = %v, want the injected error", tc.name, err)
			}
			data, err := fs.ReadFile(tc.path)
			switch {
			case tc.want == "" && !errors.Is(err, vfs.ErrNotExist):
				t.Fatalf("%s still readable: %q, %v", tc.path, data, err)
			case tc.want != "" && (err != nil || string(data) != tc.want):
				t.Fatalf("%s = %q, %v; want %q", tc.path, data, err, tc.want)
			}
			if problems := fs.CheckConsistency(); len(problems) == 0 {
				t.Fatal("the failed pass left nothing for CheckConsistency to report")
			}

			under.SetOpErrorRate("symlink", 0)
			if err := fs.Sync("/"); err != nil {
				t.Fatal(err)
			}
			if problems := fs.CheckConsistency(); len(problems) != 0 {
				t.Fatalf("after one Sync: %v", problems)
			}
		})
	}
}
