package vfs

import (
	"errors"
	"testing"
)

func newMounted(t *testing.T) (host, guest *MemFS) {
	t.Helper()
	host = New()
	guest = New()
	mustMkdirAll(t, host, "/mnt")
	mustWrite(t, guest, "/g.txt", "guest data")
	mustMkdirAll(t, guest, "/gdir")
	if err := host.Mount("/mnt", guest); err != nil {
		t.Fatal(err)
	}
	return host, guest
}

func TestMountReadThrough(t *testing.T) {
	host, _ := newMounted(t)
	data, err := host.ReadFile("/mnt/g.txt")
	if err != nil || string(data) != "guest data" {
		t.Fatalf("ReadFile through mount = %q, %v", data, err)
	}
	entries, err := host.ReadDir("/mnt")
	if err != nil || len(entries) != 2 {
		t.Fatalf("ReadDir through mount = %v, %v", entries, err)
	}
	// Stat on the mount point reports the guest root.
	info, err := host.Stat("/mnt")
	if err != nil || !info.IsDir() {
		t.Fatalf("Stat mount point = %+v, %v", info, err)
	}
}

func TestMountWriteThrough(t *testing.T) {
	host, guest := newMounted(t)
	if err := host.WriteFile("/mnt/new.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if data, err := guest.ReadFile("/new.txt"); err != nil || string(data) != "x" {
		t.Fatalf("guest did not receive write: %q, %v", data, err)
	}
	if err := host.MkdirAll("/mnt/deep/dir"); err != nil {
		t.Fatal(err)
	}
	if info, err := guest.Stat("/deep/dir"); err != nil || !info.IsDir() {
		t.Fatalf("guest MkdirAll missing: %v", err)
	}
	if err := host.Symlink("/g.txt", "/mnt/ln"); err != nil {
		t.Fatal(err)
	}
	if target, err := guest.Readlink("/ln"); err != nil || target != "/g.txt" {
		t.Fatalf("guest symlink = %q, %v", target, err)
	}
}

func TestMountShadowsLocalContents(t *testing.T) {
	host := New()
	guest := New()
	mustMkdirAll(t, host, "/mnt")
	mustWrite(t, host, "/mnt/hidden", "local")
	if err := host.Mount("/mnt", guest); err != nil {
		t.Fatal(err)
	}
	if _, err := host.ReadFile("/mnt/hidden"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("shadowed file visible: %v", err)
	}
	if err := host.Unmount("/mnt"); err != nil {
		t.Fatal(err)
	}
	if data, err := host.ReadFile("/mnt/hidden"); err != nil || string(data) != "local" {
		t.Fatalf("after unmount = %q, %v", data, err)
	}
}

func TestMountErrors(t *testing.T) {
	host, guest := newMounted(t)
	// Mounting on a missing dir.
	if err := host.Mount("/missing", guest); !errors.Is(err, ErrNotExist) {
		t.Fatalf("mount on missing err = %v", err)
	}
	// Mounting on a file.
	mustWrite(t, host, "/f", "x")
	if err := host.Mount("/f", New()); !errors.Is(err, ErrNotDir) {
		t.Fatalf("mount on file err = %v", err)
	}
	// Double mount.
	mustMkdirAll(t, host, "/other")
	if err := host.Mount("/mnt", New()); !errors.Is(err, ErrBusy) {
		t.Fatalf("double mount err = %v", err)
	}
	// Self mount.
	if err := host.Mount("/other", host); !errors.Is(err, ErrInvalid) {
		t.Fatalf("self mount err = %v", err)
	}
	// nil mount.
	if err := host.Mount("/other", nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil mount err = %v", err)
	}
	// Unmount of non-mount.
	if err := host.Unmount("/other"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unmount non-mount err = %v", err)
	}
}

func TestMountPointProtection(t *testing.T) {
	host, _ := newMounted(t)
	if err := host.Remove("/mnt"); !errors.Is(err, ErrBusy) {
		t.Fatalf("remove mount point err = %v", err)
	}
	if err := host.RemoveAll("/mnt"); !errors.Is(err, ErrBusy) {
		t.Fatalf("removeall mount point err = %v", err)
	}
	if err := host.Rename("/mnt", "/elsewhere"); !errors.Is(err, ErrBusy) {
		t.Fatalf("rename mount point err = %v", err)
	}
	// RemoveAll of an ancestor containing a mount is also refused.
	host2 := New()
	mustMkdirAll(t, host2, "/a/mnt")
	if err := host2.Mount("/a/mnt", New()); err != nil {
		t.Fatal(err)
	}
	if err := host2.RemoveAll("/a"); !errors.Is(err, ErrBusy) {
		t.Fatalf("removeall over mount err = %v", err)
	}
}

func TestRenameWithinMount(t *testing.T) {
	host, guest := newMounted(t)
	if err := host.Rename("/mnt/g.txt", "/mnt/renamed.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := guest.Stat("/renamed.txt"); err != nil {
		t.Fatalf("rename within mount did not reach guest: %v", err)
	}
	// Rename across the mount boundary is refused.
	mustWrite(t, host, "/local", "x")
	if err := host.Rename("/local", "/mnt/moved"); !errors.Is(err, ErrCrossMount) {
		t.Fatalf("cross-mount rename err = %v", err)
	}
	if err := host.Rename("/mnt/renamed.txt", "/pulled"); !errors.Is(err, ErrCrossMount) {
		t.Fatalf("cross-mount rename out err = %v", err)
	}
}

func TestNestedMounts(t *testing.T) {
	a, b, c := New(), New(), New()
	mustMkdirAll(t, a, "/m1")
	mustMkdirAll(t, b, "/m2")
	mustWrite(t, c, "/deep.txt", "deep")
	if err := a.Mount("/m1", b); err != nil {
		t.Fatal(err)
	}
	if err := a.Mount("/m1/m2", c); err == nil {
		// Mount through a mount must fail on the host...
		t.Fatal("mount through mount succeeded on host")
	}
	// ...but mounting directly on b works and is visible through a.
	if err := b.Mount("/m2", c); err != nil {
		t.Fatal(err)
	}
	data, err := a.ReadFile("/m1/m2/deep.txt")
	if err != nil || string(data) != "deep" {
		t.Fatalf("nested mount read = %q, %v", data, err)
	}
}

func TestSymlinkIntoMount(t *testing.T) {
	host, _ := newMounted(t)
	if err := host.Symlink("/mnt/g.txt", "/shortcut"); err != nil {
		t.Fatal(err)
	}
	data, err := host.ReadFile("/shortcut")
	if err != nil || string(data) != "guest data" {
		t.Fatalf("symlink into mount = %q, %v", data, err)
	}
}
