package vfs

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestFaultFSTransparentWhenQuiet(t *testing.T) {
	fs := NewFaultFS(New(), FaultConfig{})
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/f.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/a/b/f.txt")
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := fs.Symlink("/a/b/f.txt", "/a/l"); err != nil {
		t.Fatal(err)
	}
	if target, err := fs.Readlink("/a/l"); err != nil || target != "/a/b/f.txt" {
		t.Fatalf("Readlink = %q, %v", target, err)
	}
	st := fs.Stats()
	if st.Ops == 0 || st.Injected != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PerOp["write"] != 1 || st.PerOp["read"] != 1 {
		t.Fatalf("per-op counters = %v", st.PerOp)
	}
}

func TestFaultFSDeterministicInjection(t *testing.T) {
	run := func() (errs []int, stats FaultStats) {
		fs := NewFaultFS(New(), FaultConfig{Seed: 7, ErrorRate: 0.3})
		for i := 0; i < 100; i++ {
			if err := fs.WriteFile("/f.txt", []byte("x")); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("op %d: unexpected error %v", i, err)
				}
				errs = append(errs, i)
			}
		}
		return errs, fs.Stats()
	}
	errs1, st1 := run()
	errs2, st2 := run()
	if len(errs1) == 0 {
		t.Fatal("no faults injected at 30% rate over 100 ops")
	}
	if !reflect.DeepEqual(errs1, errs2) {
		t.Fatalf("fault stream not deterministic: %v vs %v", errs1, errs2)
	}
	if st1.Injected != uint64(len(errs1)) || st1.Errors["write"] != st1.Injected {
		t.Fatalf("injected counters wrong: %+v", st1)
	}
	if st2.Injected != st1.Injected {
		t.Fatalf("stats not deterministic: %d vs %d", st1.Injected, st2.Injected)
	}
}

func TestFaultFSPerOpRates(t *testing.T) {
	fs := NewFaultFS(New(), FaultConfig{Seed: 1})
	fs.SetOpErrorRate("remove", 1.0)
	if err := fs.WriteFile("/f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f.txt"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Remove error = %v, want ErrInjected", err)
	}
	// The path is recorded on the injected error.
	var pe *PathError
	if err := fs.Remove("/f.txt"); !errors.As(err, &pe) || pe.Op != "remove" || pe.Path != "/f.txt" {
		t.Fatalf("injected error not a typed PathError: %v", err)
	}
	// Other ops still work.
	if _, err := fs.ReadFile("/f.txt"); err != nil {
		t.Fatal(err)
	}
}

func TestFaultFSCrashPointFreezesStore(t *testing.T) {
	fs := NewFaultFS(New(), FaultConfig{Seed: 2})
	if err := fs.WriteFile("/a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	fs.CrashAfter(2)
	if err := fs.WriteFile("/b.txt", []byte("b")); err != nil {
		t.Fatal(err) // op 1 of 2: still alive
	}
	if err := fs.WriteFile("/c.txt", []byte("c")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash point did not fire: %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("Crashed() = false after crash")
	}
	// Everything fails now, reads included.
	if _, err := fs.ReadFile("/a.txt"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read = %v, want ErrCrashed", err)
	}
	if err := fs.Mkdir("/d"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash mkdir = %v, want ErrCrashed", err)
	}
	st := fs.Stats()
	if st.Crashes != 1 || st.Rejected < 2 {
		t.Fatalf("crash counters = %+v", st)
	}
	// Restart: the store thaws with pre-crash contents intact.
	fs.Restart()
	data, err := fs.ReadFile("/b.txt")
	if err != nil || string(data) != "b" {
		t.Fatalf("post-restart read = %q, %v", data, err)
	}
	if _, err := fs.ReadFile("/c.txt"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("crashed-out write visible after restart: %v", err)
	}
}

func TestFaultFSTornWrite(t *testing.T) {
	mem := New()
	fs := NewFaultFS(mem, FaultConfig{Seed: 3, TornWrites: true})
	if err := fs.WriteFile("/f.txt", []byte("old-contents")); err != nil {
		t.Fatal(err)
	}
	fs.CrashAfter(1)
	long := bytes.Repeat([]byte("new"), 100)
	if err := fs.WriteFile("/f.txt", long); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write error = %v, want ErrCrashed", err)
	}
	// The substrate holds a strict prefix of the new data.
	data, err := mem.ReadFile("/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(long) {
		t.Fatalf("torn write committed all %d bytes", len(data))
	}
	if !bytes.HasPrefix(long, data) {
		t.Fatalf("torn write left non-prefix contents %q", data)
	}
}

func TestFaultFSHandleIO(t *testing.T) {
	fs := NewFaultFS(New(), FaultConfig{Seed: 4})
	f, err := fs.Create("/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	fs.SetOpErrorRate("fwrite", 1.0)
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("handle write = %v, want ErrInjected", err)
	}
	fs.SetOpErrorRate("fwrite", 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.PerOp["fwrite"] != 2 || st.Errors["fwrite"] != 1 {
		t.Fatalf("handle counters = %+v / %+v", st.PerOp, st.Errors)
	}
}

func TestCrashWriter(t *testing.T) {
	var buf bytes.Buffer
	w := &CrashWriter{W: &buf, Limit: 5}
	if n, err := w.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("first write = %d, %v", n, err)
	}
	if n, err := w.Write([]byte("defg")); n != 2 || !errors.Is(err, ErrCrashed) {
		t.Fatalf("crossing write = %d, %v", n, err)
	}
	if _, err := w.Write([]byte("h")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write = %v", err)
	}
	if buf.String() != "abcde" {
		t.Fatalf("written bytes = %q, want %q", buf.String(), "abcde")
	}
}
