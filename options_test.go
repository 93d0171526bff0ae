package hacfs_test

import (
	"errors"
	"testing"

	"hacfs"
)

// TestFunctionalOptions covers the redesigned construction and
// evaluation API: functional options on the constructor set volume
// defaults, and per-pass options override them.
func TestFunctionalOptions(t *testing.T) {
	fs := hacfs.NewVolume(hacfs.WithParallelism(2), hacfs.WithVerify(true))
	if err := fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/a.txt", []byte("apple pie recipe")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/docs/b.txt", []byte("banana bread recipe")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Reindex("/", hacfs.WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/recipes", "recipe"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncAll(hacfs.WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/recipes")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 {
		t.Fatalf("LinkTargets(/recipes) = %v, want 2 entries", targets)
	}
}

// TestPathErrorShape verifies the typed error contract: errors.As
// recovers the failing path and operation, while errors.Is keeps
// matching the sentinel the error wraps.
func TestPathErrorShape(t *testing.T) {
	fs := hacfs.NewVolume()
	if err := fs.Mkdir("/plain"); err != nil {
		t.Fatal(err)
	}
	_, err := fs.Query("/plain")
	if err == nil {
		t.Fatal("Query on non-semantic dir succeeded")
	}
	var pe *hacfs.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *hacfs.PathError", err, err)
	}
	if pe.Path != "/plain" {
		t.Fatalf("PathError.Path = %q, want /plain", pe.Path)
	}
	if pe.Op == "" {
		t.Fatal("PathError.Op is empty")
	}
	if !errors.Is(err, hacfs.ErrNotSemantic) {
		t.Fatalf("errors.Is(%v, ErrNotSemantic) = false", err)
	}

	// Substrate errors carry the same shape through the HAC layer.
	_, err = fs.ReadFile("/missing")
	if !errors.As(err, &pe) || !errors.Is(err, hacfs.ErrNotExist) {
		t.Fatalf("ReadFile(/missing) = %v, want PathError wrapping ErrNotExist", err)
	}
}
