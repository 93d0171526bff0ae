package hac

import (
	"errors"
	"strings"
	"testing"
)

func TestCheckConsistencyCleanVolume(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/sel/sub", "fruit"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/sel/apple2.txt"); err != nil {
		t.Fatal(err)
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("clean volume reported: %v", problems)
	}
}

func TestCheckConsistencyDetectsTampering(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	// Tamper with the substrate directly, bypassing the HAC layer: an
	// unclassified symlink appears.
	if err := fs.Under().Symlink("/docs/banana.txt", "/sel/rogue"); err != nil {
		t.Fatal(err)
	}
	problems := fs.CheckConsistency()
	if len(problems) == 0 {
		t.Fatal("tampering not detected")
	}
	found := false
	for _, p := range problems {
		if strings.Contains(p, "unclassified symlink") && strings.Contains(p, "rogue") {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong diagnosis: %v", problems)
	}
}

// TestCheckConsistencyDetectsPlantedSymlink: a symlink planted on the
// substrate under a permanent link's name hides the link, and is reported
// once; removing it brings the link back.
func TestCheckConsistencyDetectsPlantedSymlink(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MarkPermanent("/sel", "/docs/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Under().Symlink("/docs/banana.txt", "/sel/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	problems := fs.CheckConsistency()
	if want := "/sel: unclassified symlink apple1.txt → /docs/banana.txt"; len(problems) != 1 || problems[0] != want {
		t.Fatalf("planted symlink reported as %q, want %q", problems, want)
	}
	if err := fs.Under().Remove("/sel/apple1.txt"); err != nil {
		t.Fatal(err)
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("after removing the planted symlink: %v", problems)
	}
	if target, err := fs.Readlink("/sel/apple1.txt"); err != nil || target != "/docs/apple1.txt" {
		t.Fatalf("permanent link after removing the planted symlink: %q, %v", target, err)
	}
}

// TestCheckConsistencyAuditsI2 shows the I2 audit is a second opinion:
// it notices a match the directory does not link, a transient link the
// query does not produce, and is quiet again once Sync has run.
func TestCheckConsistencyAuditsI2(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	wantProblem := func(fragment string) {
		t.Helper()
		problems := fs.CheckConsistency()
		for _, p := range problems {
			if strings.Contains(p, "I2 violated") && strings.Contains(p, fragment) {
				return
			}
		}
		t.Fatalf("no I2 report mentioning %q in %v", fragment, problems)
	}
	// The index moves without a consistency pass after it.
	fs.Index().Add("/docs/late.txt", []byte("apple late"))
	wantProblem("/docs/late.txt matches the query but is not linked")
	fs.Index().Remove("/docs/apple1.txt")
	wantProblem("transient /docs/apple1.txt is not in the query's result")
	if err := fs.Sync("/"); err != nil {
		t.Fatal(err)
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("after Sync: %v", problems)
	}
	wantTargets(t, fs, "/sel", "/docs/apple2.txt", "/docs/late.txt", "/mail/m1.txt")
}

// TestDirPlanPushesParentScopeDown: a semantic directory under a
// syntactic non-root parent is evaluated like a Search scoped to that
// parent — the planner reads only the parent's postings instead of
// filtering the whole index afterwards.
func TestDirPlanPushesParentScopeDown(t *testing.T) {
	fs := newTestFS(t)
	// "apple" has three postings, /mail two documents.
	if err := fs.SemDir("/mail/sel", "apple"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/mail/sel", "/mail/m1.txt")
	p, err := fs.ExplainDir("/mail/sel")
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.PostingsSkipped == 0 {
		t.Fatalf("plan under /mail skipped no postings: %+v\n%s", st, p.Explain())
	}
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("audit: %v", problems)
	}
	if _, err := fs.ExplainDir("/docs"); !errors.Is(err, ErrNotSemantic) {
		t.Fatalf("ExplainDir of a syntactic directory = %v", err)
	}
}

// TestDirRefQueryHasNoImplicitParentScope: a query with dir: references
// chose DAG scoping (§2.5), so its directory links documents outside
// its parent's subtree, and the audit agrees.
func TestDirRefQueryHasNoImplicitParentScope(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SemDir("/curated", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/proj"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemDir("/proj/refined", "dir:/curated AND NOT banana"); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/proj/refined", "/docs/apple1.txt", "/mail/m1.txt")
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	wantTargets(t, fs, "/proj/refined", "/docs/apple1.txt", "/mail/m1.txt")
	if problems := fs.CheckConsistency(); len(problems) != 0 {
		t.Fatalf("audit: %v", problems)
	}
}
