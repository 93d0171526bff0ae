package hac

import (
	"errors"
	"strings"
	"testing"

	"hacfs/internal/vfs"
)

func TestSearchWithDirRef(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/curated", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/curated/m1.txt"); err != nil {
		t.Fatal(err)
	}
	// Ad-hoc search referencing the curated directory.
	got, err := searchSorted(fs, "dir:/curated AND fruit", "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "/docs/apple1.txt" {
		t.Fatalf("Search dir-ref = %v", got)
	}
	// Unknown reference errors cleanly.
	if _, err := searchSorted(fs, "dir:/nowhere", "/"); !errors.Is(err, ErrDanglingRef) {
		t.Fatalf("dangling search err = %v", err)
	}
}

func TestSearchBadInputs(t *testing.T) {
	fs := newTestFS(t)
	if _, err := searchSorted(fs, "(((", "/"); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := searchSorted(fs, "apple", "relative"); err == nil {
		t.Fatal("relative scope accepted")
	}
}

func TestExtractErrors(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Extract("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Extract missing err = %v", err)
	}
	// A remote link whose namespace is gone.
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Under().Symlink("remote://ghost/x", "/d/ln"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Extract("/d/ln"); !errors.Is(err, ErrNoNamespace) {
		t.Fatalf("ghost namespace err = %v", err)
	}
	// A dangling local link.
	if err := fs.Under().Symlink("/gone", "/d/dang"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Extract("/d/dang"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("dangling extract err = %v", err)
	}
}

func TestExtractRelativeLink(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Under().Symlink("apple1.txt", "/docs/rel"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Extract("/docs/rel")
	if err != nil || string(data) != "apple fruit red" {
		t.Fatalf("relative extract = %q, %v", data, err)
	}
}

func TestSetQueryEmptyClearsTransients(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/docs/cherry.txt", "/sel/mine"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetQuery("/sel", ""); err != nil {
		t.Fatal(err)
	}
	// Transients gone; the permanent link stays.
	wantTargets(t, fs, "/sel", "/docs/cherry.txt")
	q, err := fs.Query("/sel")
	if err != nil || q != "" {
		t.Fatalf("query = %q, %v", q, err)
	}
}

func TestQueryDisplayPlainTerms(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple AND banana"); err != nil {
		t.Fatal(err)
	}
	disp, err := fs.QueryDisplay("/sel")
	if err != nil || disp != "(apple AND banana)" {
		t.Fatalf("QueryDisplay = %q, %v", disp, err)
	}
}

func TestLinksErrorSurface(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Links("/docs"); !errors.Is(err, ErrNotSemantic) {
		t.Fatalf("Links err = %v", err)
	}
	if _, err := fs.LinkTargets("relative"); err == nil {
		t.Fatal("relative path accepted")
	}
}

func TestSemanticDirsListing(t *testing.T) {
	fs := newTestFS(t)
	for _, d := range []string{"/b-sel", "/a-sel"} {
		if err := fs.SemDir(d, "apple"); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.SemanticDirs()
	if len(got) != 2 || got[0] != "/a-sel" || got[1] != "/b-sel" {
		t.Fatalf("SemanticDirs = %v", got)
	}
}

func TestSyncOnFileFails(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.Sync("/docs/apple1.txt"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("Sync on file err = %v", err)
	}
	if err := fs.Sync("/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Sync on missing err = %v", err)
	}
}

func TestDeepLinkChainsInScope(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/first", "apple"); err != nil {
		t.Fatal(err)
	}
	// A second semantic dir holds a link pointing at the FIRST dir's
	// link (link-to-link); scope resolution must chase it to the file.
	if err := fs.SemDir("/second", ""); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/first/apple1.txt", "/second/indirect"); err != nil {
		t.Fatal(err)
	}
	// A child of /second scopes over the resolved file.
	if err := fs.SemDir("/second/sub", "fruit"); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/second/sub")
	if err != nil || len(targets) != 1 || !strings.Contains(targets[0], "apple1") {
		t.Fatalf("link-chain scope = %v, %v", targets, err)
	}
}

func TestSemDirUnderFileFails(t *testing.T) {
	fs := newTestFS(t)
	err := fs.SemDir("/docs/apple1.txt/sub", "apple")
	if !errors.Is(err, vfs.ErrNotDir) && !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}
