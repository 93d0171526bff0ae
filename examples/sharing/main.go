// Sharing classifications (§3.2 of the paper): Alice curates semantic
// directories in her volume and serves it over the network; Bob mounts
// it syntactically and browses her classification instead of searching
// himself; and a central catalog of published semantic directories
// lets users find others with similar tastes.
package main

import (
	"fmt"
	"net"
	"os"
	"strings"

	"hacfs"
	"hacfs/internal/catalog"
	"hacfs/internal/remotefs"
)

func main() {
	// --- Alice curates her volume. ------------------------------------
	alice := hacfs.NewVolume()
	seed(alice, map[string]string{
		"/docs/fp-alg.txt":    "fingerprint matching algorithms",
		"/docs/fp-sensor.txt": "fingerprint sensor design notes",
		"/docs/iris.txt":      "iris recognition survey",
		"/docs/pie.txt":       "apple pie recipe",
	})
	must("alice semdir", alice.SemDir("/fingerprint", "fingerprint"))
	// Her personal touch: the iris survey belongs in the collection.
	must("alice link iris.txt", alice.Symlink("/docs/iris.txt", "/fingerprint/iris.txt"))

	// --- Alice's volume goes on the network (cmd/hacvold). -------------
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must("listen", err)
	go remotefs.NewServer(alice, nil).Serve(l)

	// --- Bob mounts Alice's volume syntactically. ----------------------
	bobUnder := hacfs.NewMemFS()
	bob := hacfs.New(bobUnder)
	must("bob mkdir /net/alice", bob.MkdirAll("/net/alice"))
	must("bob mount", bobUnder.Mount("/net/alice", remotefs.DialMux(l.Addr().String())))

	fmt.Println("Bob browses Alice's curated classification over the network:")
	entries, err := bob.ReadDir("/net/alice/fingerprint")
	must("bob readdir", err)
	for _, e := range entries {
		target, _ := bob.Readlink("/net/alice/fingerprint/" + e.Name)
		fmt.Printf("  %-16s -> %s\n", e.Name, target)
	}
	data, err := bob.ReadFile("/net/alice/docs/fp-alg.txt")
	must("bob read fp-alg.txt", err)
	fmt.Printf("  (reads one: %q)\n", data)

	// --- Bob has his own volume with his own classification. -----------
	seed(bob, map[string]string{
		"/papers/fp-survey.txt": "fingerprint biometrics overview",
		"/papers/gait.txt":      "gait recognition methods",
	})
	must("bob semdir", bob.SemDir("/biometrics", "fingerprint OR gait"))

	// --- The central catalog (§3.2). ------------------------------------
	cat := catalog.New()
	nA, err := cat.Publish("alice", alice)
	must("publish alice", err)
	nB, err := cat.Publish("bob", bob)
	must("publish bob", err)
	fmt.Printf("\ncatalog holds %d entries (%d from alice, %d from bob)\n",
		cat.Len(), nA, nB)

	hits, err := cat.Search("fingerprint")
	must("catalog search", err)
	fmt.Println("catalog search 'fingerprint':")
	for _, h := range hits {
		fmt.Printf("  %s %s  query=%s  (%d results)\n",
			h.User, h.Path, h.Query, len(h.Targets))
	}

	// Who classifies like Alice? (Different volumes hold different
	// files, so this demo's overlap is in naming; with shared storage
	// the overlap is in the files themselves.)
	matches, err := cat.SimilarTo("alice", "/fingerprint")
	must("catalog similar", err)
	if len(matches) == 0 {
		fmt.Println("\nno users with overlapping classifications (volumes are disjoint)")
	}
	for _, m := range matches {
		fmt.Printf("\nsimilar taste: %s %s (%.0f%% overlap)\n",
			m.Entry.User, m.Entry.Path, 100*m.Similarity)
	}

	// Finally: Bob can layer his own semantic view over the mounted
	// volume by querying the mounted subtree — Alice's files joined his
	// index when he reindexed the mount.
	_, err = bob.Reindex("/net/alice/docs")
	must("bob reindex mount", err)
	must("bob semdir /all-fp", bob.SemDir("/all-fp", "dir:/papers OR dir:\"/net/alice/docs\" AND fingerprint"))
	targets, err := bob.LinkTargets("/all-fp")
	must("bob links /all-fp", err)
	fmt.Println("\nBob's combined view (his papers + Alice's docs):")
	for _, target := range targets {
		if strings.Contains(target, "fp") {
			fmt.Printf("  %s\n", target)
		}
	}
}

func seed(fs *hacfs.FS, files map[string]string) {
	for p, content := range files {
		must("mkdir "+p, fs.MkdirAll(p[:strings.LastIndexByte(p, '/')]))
		must("write "+p, fs.WriteFile(p, []byte(content)))
	}
	_, err := fs.Reindex("/")
	must("reindex", err)
}

// must aborts the example with a non-zero status, naming the step that
// failed.
func must(op string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharing: %s: %v\n", op, err)
		os.Exit(1)
	}
}
