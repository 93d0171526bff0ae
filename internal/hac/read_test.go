package hac

import (
	"testing"

	"hacfs/internal/vfs/cas"
)

// depth8 builds a HAC volume over cas.FS holding one file eight
// components deep, and returns the volume and the file's path.
func depth8(tb testing.TB) (*FS, string) {
	tb.Helper()
	fs := New(cas.New(nil), Options{})
	if err := fs.MkdirAll("/a/b/c/d/e/f/g"); err != nil {
		tb.Fatal(err)
	}
	p := "/a/b/c/d/e/f/g/h.txt"
	if err := fs.WriteFile(p, []byte("apple banana cherry")); err != nil {
		tb.Fatal(err)
	}
	return fs, p
}

// TestReadPathAllocs pins the read path's allocations: a depth-8
// ReadFile through HAC allocates the content, the substrate's handle and
// the tracked handle, and nothing per path component — no HAC-side prefix
// walk, no component split in cas.FS.
func TestReadPathAllocs(t *testing.T) {
	fs, p := depth8(t)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := fs.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("hac.FS.ReadFile at depth 8: %v allocations, want <= 4", got)
	}
}

func BenchmarkReadFileDepth8(b *testing.B) {
	fs, p := depth8(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fs.ReadFile(p); err != nil {
			b.Fatal(err)
		}
	}
}
