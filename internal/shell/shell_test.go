package shell

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"

	"hacfs/internal/catalog"
	"hacfs/internal/hac"
	"hacfs/internal/remote"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// runScript executes commands and returns the accumulated output.
func runScript(t *testing.T, sh *Shell, lines ...string) string {
	t.Helper()
	var buf bytes.Buffer
	sh.out = &buf
	for _, line := range lines {
		if err := sh.Exec(line); err != nil {
			t.Fatalf("Exec(%q): %v", line, err)
		}
	}
	return buf.String()
}

func newShell(t *testing.T) *Shell {
	t.Helper()
	return New(hac.New(vfs.New(), hac.Options{}), &bytes.Buffer{})
}

func TestSplitArgs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"ls", []string{"ls"}},
		{"  cd   /a/b  ", []string{"cd", "/a/b"}},
		{`squery /d "apple AND banana"`, []string{"squery", "/d", "apple AND banana"}},
		{`write f "two words" tail`, []string{"write", "f", "two words", "tail"}},
		{`x ""`, []string{"x", ""}},
	}
	for _, c := range cases {
		got, err := splitArgs(c.in)
		if err != nil {
			t.Fatalf("splitArgs(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitArgs(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
	if _, err := splitArgs(`bad "unterminated`); err == nil {
		t.Error("unterminated quote accepted")
	}
}

func TestBasicFileCommands(t *testing.T) {
	sh := newShell(t)
	out := runScript(t, sh,
		"mkdir /docs",
		"write /docs/a.txt hello world",
		"cat /docs/a.txt",
		"cd /docs",
		"pwd",
		"ls",
	)
	if !strings.Contains(out, "hello world") {
		t.Fatalf("cat output missing: %q", out)
	}
	if !strings.Contains(out, "/docs\n") {
		t.Fatalf("pwd output missing: %q", out)
	}
	if !strings.Contains(out, "a.txt") {
		t.Fatalf("ls output missing: %q", out)
	}
	if sh.Cwd() != "/docs" {
		t.Fatalf("cwd = %q", sh.Cwd())
	}
}

func TestRelativePaths(t *testing.T) {
	sh := newShell(t)
	runScript(t, sh,
		"mkdir /a",
		"cd /a",
		"write f.txt data",
		"mkdir sub",
		"cd sub",
		"cd ..",
		"mv f.txt g.txt",
	)
	if _, err := sh.FS().Stat("/a/g.txt"); err != nil {
		t.Fatalf("relative mv failed: %v", err)
	}
}

func TestSemanticWorkflow(t *testing.T) {
	sh := newShell(t)
	out := runScript(t, sh,
		"mkdir /notes",
		"write /notes/one.txt apple pie recipe",
		"write /notes/two.txt banana bread recipe",
		"write /notes/three.txt car maintenance",
		"sreindex /",
		`smkdir /recipes recipe`,
		"ls /recipes",
		"slinks /recipes",
		"squery /recipes",
		"search / apple",
	)
	if !strings.Contains(out, "one.txt -> /notes/one.txt") {
		t.Fatalf("semantic links missing from ls: %q", out)
	}
	if !strings.Contains(out, "transient") {
		t.Fatalf("slinks output missing class: %q", out)
	}
	if !strings.Contains(out, "recipe\n") {
		t.Fatalf("squery output missing: %q", out)
	}
	if !strings.Contains(out, "/notes/one.txt") || !strings.Contains(out, "1 match(es)") {
		t.Fatalf("search output wrong: %q", out)
	}

	// Delete a link, verify prohibition survives ssync.
	out = runScript(t, sh,
		"rm /recipes/two.txt",
		"ssync /",
		"slinks /recipes",
	)
	if !strings.Contains(out, "prohibited") {
		t.Fatalf("prohibited link missing: %q", out)
	}
	if strings.Count(out, "transient") != 1 {
		t.Fatalf("transient count wrong: %q", out)
	}
}

func TestSactAndStat(t *testing.T) {
	sh := newShell(t)
	out := runScript(t, sh,
		"write /f.txt fingerprint data",
		"sreindex /",
		"smkdir /fp fingerprint",
		"sact /fp/f.txt",
		"stat /fp",
	)
	if !strings.Contains(out, "fingerprint data") {
		t.Fatalf("sact output missing: %q", out)
	}
	if !strings.Contains(out, "query: fingerprint") {
		t.Fatalf("stat query missing: %q", out)
	}
}

func TestTreeMarksSemanticDirs(t *testing.T) {
	sh := newShell(t)
	out := runScript(t, sh,
		"mkdir /plain",
		"write /plain/x.txt needle",
		"sreindex /",
		"smkdir /sel needle",
		"tree /",
	)
	if !strings.Contains(out, "sel/*") {
		t.Fatalf("tree does not mark semantic dir: %q", out)
	}
	if !strings.Contains(out, "plain/") {
		t.Fatalf("tree missing plain dir: %q", out)
	}
}

func TestErrorsAreReportedNotFatal(t *testing.T) {
	sh := newShell(t)
	var buf bytes.Buffer
	sh.out = &buf
	if err := sh.Run(strings.NewReader("cat /missing\npwd\nexit\n"), false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "error:") {
		t.Fatalf("error not reported: %q", out)
	}
	if !strings.Contains(out, "/\n") {
		t.Fatalf("shell stopped after error: %q", out)
	}
	if !sh.Quit() {
		t.Fatal("exit did not set quit")
	}
}

func TestUnknownCommand(t *testing.T) {
	sh := newShell(t)
	if err := sh.Exec("frobnicate"); err == nil {
		t.Fatal("unknown command accepted")
	}
	// Comments and blanks are fine.
	if err := sh.Exec("# a comment"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Exec("   "); err != nil {
		t.Fatal(err)
	}
}

func TestSmountAgainstLiveServer(t *testing.T) {
	// Start a real hacindexd-style server.
	fsys := vfs.New()
	if err := fsys.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile("/lib/paper.ps", []byte("fingerprint survey")); err != nil {
		t.Fatal(err)
	}
	backend, err := remote.NewIndexBackend(fsys, "/")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(backend, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)

	sh := newShell(t)
	out := runScript(t, sh,
		"mkdir /remote",
		"smount /remote diglib "+l.Addr().String(),
		"smkdir /fp fingerprint",
		"ls /fp",
		"sstat",
	)
	if !strings.Contains(out, "diglib.paper.ps -> remote://diglib/lib/paper.ps") {
		t.Fatalf("remote link missing: %q", out)
	}
	if !strings.Contains(out, "semantic mount:  /remote -> diglib") {
		t.Fatalf("sstat mounts missing: %q", out)
	}
	// sact fetches across the network.
	out = runScript(t, sh, "sact /fp/diglib.paper.ps")
	if !strings.Contains(out, "fingerprint survey") {
		t.Fatalf("remote sact failed: %q", out)
	}
	out = runScript(t, sh, "sumount /remote diglib", "ls /fp")
	if strings.Contains(out, "diglib.paper.ps") {
		t.Fatalf("remote link survived unmount: %q", out)
	}
}

func TestSaveAndLoad(t *testing.T) {
	path := t.TempDir() + "/volume.hac"
	sh := newShell(t)
	runScript(t, sh,
		"write /doc.txt apple content",
		"sreindex /",
		"smkdir /sel apple",
		"save "+path,
	)
	// A fresh shell loads the volume and sees everything.
	sh2 := newShell(t)
	out := runScript(t, sh2,
		"load "+path,
		"ls /sel",
		"squery /sel",
	)
	if !strings.Contains(out, "doc.txt -> /doc.txt") {
		t.Fatalf("loaded volume missing links: %q", out)
	}
	if !strings.Contains(out, "apple") {
		t.Fatalf("loaded volume missing query: %q", out)
	}
}

func TestMountRemoteVolume(t *testing.T) {
	// Alice's volume served by hacvold's machinery.
	alice := hac.New(vfs.New(), hac.Options{})
	if err := alice.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := alice.WriteFile("/docs/fp.txt", []byte("fingerprint notes")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SemDir("/fp", "fingerprint"); err != nil {
		t.Fatal(err)
	}
	srv := remotefs.NewServer(alice, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)

	// Bob's shell mounts it and browses the semantic directory.
	sh := newShell(t)
	out := runScript(t, sh,
		"mkdir /alice",
		"mount /alice "+l.Addr().String(),
		"ls /alice/fp",
		"cat /alice/docs/fp.txt",
	)
	if !strings.Contains(out, "fp.txt -> /docs/fp.txt") {
		t.Fatalf("remote semantic dir invisible: %q", out)
	}
	if !strings.Contains(out, "fingerprint notes") {
		t.Fatalf("remote cat failed: %q", out)
	}
	out = runScript(t, sh, "umount /alice", "ls /alice")
	if strings.Contains(out, "fp") {
		t.Fatalf("umount did not detach: %q", out)
	}
}

func TestCatalogCommands(t *testing.T) {
	srv := catalog.NewServer(catalog.New(), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	addr := l.Addr().String()

	sh := newShell(t)
	out := runScript(t, sh,
		"write /docs.txt fingerprint research",
		"sreindex /",
		"smkdir /fp fingerprint",
		"spublish alice "+addr,
		"scatalog "+addr+" fingerprint",
		"ssimilar "+addr+" alice /fp",
	)
	if !strings.Contains(out, "published 1 semantic directories as alice") {
		t.Fatalf("spublish output: %q", out)
	}
	if !strings.Contains(out, "alice") || !strings.Contains(out, "/fp") {
		t.Fatalf("scatalog output: %q", out)
	}
	if !strings.Contains(out, "no similar classifications") {
		t.Fatalf("ssimilar output: %q", out)
	}
}

func TestLsGlob(t *testing.T) {
	sh := newShell(t)
	out := runScript(t, sh,
		"mkdir /d",
		"write /d/a1.txt x",
		"write /d/a2.txt y",
		"write /d/b.md z",
		"ls /d/a*.txt",
	)
	if !strings.Contains(out, "a1.txt") || !strings.Contains(out, "a2.txt") {
		t.Fatalf("glob ls missing matches: %q", out)
	}
	if strings.Contains(out, "b.md") {
		t.Fatalf("glob ls matched too much: %q", out)
	}
}

func TestQuotedQueries(t *testing.T) {
	sh := newShell(t)
	runScript(t, sh,
		"write /a.txt apple banana",
		"write /b.txt apple",
		"sreindex /",
		`smkdir /sel "apple AND banana"`,
	)
	q, err := sh.FS().Query("/sel")
	if err != nil || q != "(apple AND banana)" {
		t.Fatalf("query = %q, %v", q, err)
	}
	entries, _ := sh.FS().ReadDir("/sel")
	if len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
}

// newCASShell builds a shell whose volume sits on the content-addressed
// substrate, like hacsh -cas does.
func newCASShell(t *testing.T) *Shell {
	t.Helper()
	return New(hac.New(cas.New(nil), hac.Options{}), &bytes.Buffer{})
}

func TestSnapshotRollback(t *testing.T) {
	sh := newCASShell(t)
	out := runScript(t, sh,
		"mkdir /docs",
		"write /docs/a.txt apple pie recipe",
		"sreindex /",
		"snapshot before",
		"write /docs/a.txt motor oil",
		"write /docs/b.txt extra file",
		"snapshot",
		"rollback before",
		"cat /docs/a.txt",
	)
	if !strings.Contains(out, "snapshot before sealed") {
		t.Fatalf("snapshot output: %q", out)
	}
	if !strings.Contains(out, "before") || !strings.Contains(out, "taken") {
		t.Fatalf("snapshot listing output: %q", out)
	}
	if !strings.Contains(out, "apple pie recipe") {
		t.Fatalf("rollback did not restore content: %q", out)
	}
	if _, err := sh.FS().Stat("/docs/b.txt"); err == nil {
		t.Fatal("file created after the snapshot survived rollback")
	}
	// Rollback reindexes: the semantic layer should reflect the rewound tree.
	if err := sh.Exec("smkdir /recipes recipe"); err != nil {
		t.Fatalf("smkdir after rollback: %v", err)
	}
	entries, err := sh.FS().ReadDir("/recipes")
	if err != nil || len(entries) != 1 {
		t.Fatalf("semantic dir after rollback: %v, %v", entries, err)
	}
}

func TestSnapshotErrors(t *testing.T) {
	sh := newCASShell(t)
	runScript(t, sh, "snapshot s1")
	if err := sh.Exec("snapshot s1"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate snapshot: %v", err)
	}
	if err := sh.Exec("rollback nope"); err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("rollback of unknown snapshot: %v", err)
	}

	plain := newShell(t)
	for _, cmd := range []string{"snapshot s", "rollback s", "clone"} {
		if err := plain.Exec(cmd); err == nil || !strings.Contains(err.Error(), "not content-addressed") {
			t.Fatalf("%s on a plain volume: %v", cmd, err)
		}
	}
}

func TestCloneDiverges(t *testing.T) {
	sh := newCASShell(t)
	out := runScript(t, sh,
		"write /f.txt original",
		"snapshot pre",
		"clone",
		"write /f.txt rewritten",
		"cat /f.txt",
	)
	if !strings.Contains(out, "copy-on-write clone") {
		t.Fatalf("clone output: %q", out)
	}
	if !strings.Contains(out, "rewritten") {
		t.Fatalf("write on the clone not visible: %q", out)
	}
	// Snapshots are keyed to the shared blob store, so one taken before
	// the clone still rolls the fork back.
	out = runScript(t, sh, "rollback pre", "cat /f.txt")
	if !strings.Contains(out, "original") {
		t.Fatalf("pre-clone snapshot did not restore the fork: %q", out)
	}
}

// TestExplainSemanticDirectory: "explain <semdir>" prints the plan
// behind the directory's links — its stored query under the scope its
// parent provides — and smkdir still refuses a path that exists.
func TestExplainSemanticDirectory(t *testing.T) {
	sh := newShell(t)
	out := runScript(t, sh,
		"mkdir /notes",
		"mkdir /other",
		"write /notes/one.txt apple pie recipe",
		"write /other/two.txt apple cider recipe",
		"write /other/three.txt apple sauce recipe",
		"sreindex /",
		"smkdir /notes/recipes apple AND recipe",
		"explain /notes/recipes",
	)
	for _, want := range []string{"scope: /notes", "apple", "recipe", "leaves=2", "postings_skipped="} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain of a semantic directory lacks %q: %q", want, out)
		}
	}
	if strings.Contains(out, "postings_skipped=0") {
		t.Fatalf("the parent scope was not pushed into the lookups: %q", out)
	}
	if err := sh.Exec("explain /notes"); err == nil || !strings.Contains(err.Error(), "not a semantic directory") {
		t.Fatalf("explain of a syntactic directory = %v", err)
	}
	if err := sh.Exec("smkdir /notes/recipes pie"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("smkdir on an existing directory = %v", err)
	}
	if err := sh.Exec("smkdir /notes/one.txt pie"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("smkdir on an existing file = %v", err)
	}
}
