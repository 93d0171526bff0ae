package index

import (
	"reflect"
	"sort"
	"testing"
)

func TestEmailTransducer(t *testing.T) {
	content := []byte("from alice\nto bob\nsubject project status\n\nbody mentions carol from nowhere\n")
	got := EmailTransducer("/mail/m1.eml", content)
	sort.Strings(got)
	want := []string{"from:alice", "subject:project", "subject:status", "to:bob"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EmailTransducer = %v, want %v", got, want)
	}
}

func TestEmailTransducerColonHeaders(t *testing.T) {
	content := []byte("From: Alice Smith\nTo: bob\n\nbody\n")
	got := EmailTransducer("/m.eml", content)
	has := map[string]bool{}
	for _, g := range got {
		has[g] = true
	}
	if !has["from:alice"] || !has["from:smith"] || !has["to:bob"] {
		t.Fatalf("colon-header attrs = %v", got)
	}
}

func TestEmailTransducerStopsAtBlankLine(t *testing.T) {
	content := []byte("from alice\n\nfrom mallory in the body\n")
	got := EmailTransducer("/m.eml", content)
	for _, g := range got {
		if g == "from:mallory" {
			t.Fatal("transducer read past the header block")
		}
	}
}

func TestPathTransducer(t *testing.T) {
	got := PathTransducer("/src/fingerprint-match.c", nil)
	has := map[string]bool{}
	for _, g := range got {
		has[g] = true
	}
	for _, want := range []string{"ext:c", "name:fingerprint", "name:match"} {
		if !has[want] {
			t.Fatalf("PathTransducer = %v, missing %s", got, want)
		}
	}
	if got := PathTransducer("/noext", nil); len(got) != 1 || got[0] != "name:noext" {
		t.Fatalf("no-extension attrs = %v", got)
	}
}

func TestSourceTransducer(t *testing.T) {
	content := []byte("#include <stdio.h>\n  #include \"util.h\"\nint main() {}\n")
	got := SourceTransducer("/a.c", content)
	has := map[string]bool{}
	for _, g := range got {
		has[g] = true
	}
	for _, want := range []string{"lang:c", "include:stdio", "include:util"} {
		if !has[want] {
			t.Fatalf("SourceTransducer = %v, missing %s", got, want)
		}
	}
}

func TestTransducerIndexIntegration(t *testing.T) {
	ix := New()
	ix.RegisterTransducer(".eml", EmailTransducer)
	ix.RegisterTransducer("", PathTransducer)

	ix.Add("/mail/hello.eml", []byte("from alice\n\nhello there\n"))
	ix.Add("/mail/other.eml", []byte("from bob\n\nhello again\n"))
	ix.Add("/notes/plain.txt", []byte("from alice in content only"))

	// Attribute query hits only the email with the matching header.
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("from:alice")); len(got) != 1 || got[0] != "/mail/hello.eml" {
		t.Fatalf("from:alice = %v", got)
	}
	// Plain words still work, including in non-email files.
	if got := ix.Snapshot().Lookup("alice").Len(); got != 2 {
		t.Fatalf("alice matches %d, want 2", got)
	}
	// Path attributes from the catch-all transducer.
	if got := ix.Snapshot().Lookup("ext:eml").Len(); got != 2 {
		t.Fatalf("ext:eml matches %d", got)
	}
	if got := ix.Snapshot().Paths(ix.Snapshot().Lookup("name:plain")); len(got) != 1 {
		t.Fatalf("name:plain = %v", got)
	}
}

func TestTransducerCaseInsensitiveExt(t *testing.T) {
	ix := New()
	ix.RegisterTransducer(".EML", EmailTransducer)
	ix.Add("/m.eml", []byte("from alice\n\nx\n"))
	if !ix.Snapshot().Lookup("from:alice").Any() {
		t.Fatal("uppercase extension registration not matched")
	}
}

func TestPathExt(t *testing.T) {
	cases := map[string]string{
		"/a/b.txt":   ".txt",
		"/a/b":       "",
		"/a.d/b":     "",
		"/a/b.c.eml": ".eml",
		"b.go":       ".go",
	}
	for in, want := range cases {
		if got := pathExt(in); got != want {
			t.Errorf("pathExt(%q) = %q, want %q", in, got, want)
		}
	}
}
