// The paper's running example (§2.1): a researcher working on a
// fingerprint project whose material is scattered across email, notes,
// source code and papers. HAC gathers it all into one semantic
// directory, which the researcher then tunes by hand — and HAC keeps
// the hand-tuned result consistent as files and queries change.
package main

import (
	"fmt"
	"os"

	"hacfs"
)

func main() {
	fs := hacfs.NewVolume()

	// The scattered project material.
	seed(fs, map[string]string{
		"/mail/from-bob-1.eml":    "from bob subject fingerprint sensor calibration",
		"/mail/from-carol.eml":    "from carol subject lunch on tuesday",
		"/notes/meeting.txt":      "fingerprint project kickoff notes",
		"/notes/shopping.txt":     "milk eggs bread",
		"/src/match.c":            "int fingerprint match(image a, image b)",
		"/src/util.c":             "generic utility helpers",
		"/papers/survey.txt":      "survey of fingerprint matching algorithms",
		"/papers/crime-story.txt": "fingerprint evidence in the museum murder case",
		"/images/scan1.raw":       "binaryish sensor dump without keywords",
	})
	_, err := fs.Reindex("/")
	must("reindex", err)

	// One command gathers everything.
	must("semdir /fingerprint", fs.SemDir("/fingerprint", "fingerprint"))
	show(fs, "initial query result", "/fingerprint")

	// §2.3: no query system is perfect. The crime story matches but is
	// irrelevant — delete it. The deletion is remembered (prohibited).
	must("remove crime-story link", fs.Remove("/fingerprint/crime-story.txt"))

	// The raw sensor image is relevant but matches nothing — link it by
	// hand. The link is permanent: consistency passes never remove it.
	must("link scan1.raw", fs.Symlink("/images/scan1.raw", "/fingerprint/scan1.raw"))

	show(fs, "after manual tuning (crime story out, sensor image in)", "/fingerprint")

	// Refinement by hierarchy: a child semantic directory scopes over
	// the parent's links only.
	must("semdir /fingerprint/code", fs.SemDir("/fingerprint/code", "int OR match"))
	show(fs, "refinement /fingerprint/code (scope = parent's links)", "/fingerprint/code")

	// §2.5: queries can reference directories. Collect everything in
	// the tuned fingerprint collection that is NOT source code.
	must("semdir /fp-reading", fs.SemDir("/fp-reading", "dir:/fingerprint AND NOT int"))
	show(fs, "dir-reference query /fp-reading", "/fp-reading")

	// Consistency under change: new mail arrives, an old note is
	// archived out of existence. One reindex settles everything,
	// without touching the manual edits.
	must("write from-dave.eml", fs.WriteFile("/mail/from-dave.eml", []byte("from dave subject fingerprint dataset ready")))
	must("remove meeting.txt", fs.Remove("/notes/meeting.txt"))
	_, err = fs.Reindex("/")
	must("reindex", err)
	show(fs, "after new mail + archived note + reindex", "/fingerprint")

	fmt.Println("\nlink classification in /fingerprint:")
	links, err := fs.Links("/fingerprint")
	must("links /fingerprint", err)
	for _, l := range links {
		fmt.Printf("  %-10s %s\n", l.Class, l.Target)
	}

	// Renaming the referenced directory does not break /fp-reading.
	must("rename /fingerprint", fs.Rename("/fingerprint", "/fp-project"))
	must("sync", fs.Sync("/"))
	q, err := fs.QueryDisplay("/fp-reading")
	must("query display /fp-reading", err)
	fmt.Printf("\nafter rename, /fp-reading's query reads: %s\n", q)
	show(fs, "and still resolves", "/fp-reading")
}

func seed(fs *hacfs.FS, files map[string]string) {
	for p, content := range files {
		dir := p[:lastSlash(p)]
		must("mkdir "+dir, fs.MkdirAll(dir))
		must("write "+p, fs.WriteFile(p, []byte(content)))
	}
}

func lastSlash(p string) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return i
		}
	}
	return 0
}

func show(fs *hacfs.FS, caption, dir string) {
	fmt.Printf("\n%s:\n", caption)
	entries, err := fs.ReadDir(dir)
	must("readdir "+dir, err)
	if len(entries) == 0 {
		fmt.Println("  (empty)")
	}
	for _, e := range entries {
		if e.Type == hacfs.SymlinkType {
			fmt.Printf("  %s -> %s\n", e.Name, e.Target)
		} else {
			fmt.Printf("  %s\n", e.Name)
		}
	}
}

// must aborts the example with a non-zero status, naming the step that
// failed.
func must(op string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fingerprint: %s: %v\n", op, err)
		os.Exit(1)
	}
}
