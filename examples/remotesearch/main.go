// Semantic mount points (§3 of the paper): mount a remote query system
// — here a digital library served over TCP by the same protocol
// cmd/hacindexd speaks — into a personal HAC volume, and build a
// personal, hand-tuned classification of remote information.
package main

import (
	"fmt"
	"net"
	"os"
	"strings"

	"hacfs"
	"hacfs/internal/remote"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

func main() {
	// --- The remote side: a digital library with its own index. ------
	libAddr := startLibrary(map[string]string{
		"/papers/fp-matching.ps":  "fingerprint matching algorithms survey",
		"/papers/fp-sensors.ps":   "fingerprint sensor hardware design",
		"/papers/iris.ps":         "iris recognition methods overview",
		"/papers/crime-report.ps": "fingerprint evidence in a murder case",
		"/papers/db-index.ps":     "database indexing structures",
	})

	// --- The local side: a personal HAC volume. ----------------------
	fs := hacfs.NewVolume()
	must("mkdir /library", fs.MkdirAll("/library"))
	must("mkdir /notes", fs.MkdirAll("/notes"))
	must("write my-fp-ideas.txt", fs.WriteFile("/notes/my-fp-ideas.txt", []byte("my own fingerprint ideas")))
	_, err := fs.Reindex("/")
	must("reindex", err)

	// Semantically mount the library. From now on, queries whose scope
	// includes /library import its results.
	client := hacfs.DialRemote("diglib", libAddr)
	must("semantic mount /library", fs.SemanticMount("/library", client))

	// "We can add a semantic mount point associated with a query for
	// fingerprint, thus ensuring that our knowledge of the subject is
	// up to date (at least with the library)."
	must("semdir /fp", fs.SemDir("/fp", "fingerprint"))
	fmt.Println("/fp gathers local and remote results:")
	show(fs, "/fp")

	// Personal classification of remote information: remove the crime
	// report (prohibited — it will not come back), keep the rest.
	entries, err := fs.ReadDir("/fp")
	must("readdir /fp", err)
	for _, e := range entries {
		if strings.Contains(e.Name, "crime") {
			must("remove "+e.Name, fs.Remove("/fp/"+e.Name))
		}
	}
	must("sync", fs.Sync("/"))
	fmt.Println("\nafter pruning the crime report (a prohibited link now):")
	show(fs, "/fp")

	// Refine within the personal collection: hardware papers only.
	must("semdir /fp/hardware", fs.SemDir("/fp/hardware", "sensor OR hardware"))
	fmt.Println("\nrefinement /fp/hardware (scope = the tuned /fp):")
	show(fs, "/fp/hardware")

	// sact: pull the content of a remote result through the link.
	entries, err = fs.ReadDir("/fp/hardware")
	must("readdir /fp/hardware", err)
	data, err := fs.Extract("/fp/hardware/" + entries[0].Name)
	must("extract "+entries[0].Name, err)
	fmt.Printf("\nsact %s:\n  %s\n", entries[0].Name, data)

	// The library is one namespace; local files are another — both
	// answered the same query, which is the §3.2 "multiple name spaces,
	// disjoint results" model.
	links, err := fs.Links("/fp")
	must("links /fp", err)
	local, remoteN := 0, 0
	for _, l := range links {
		if l.Class == hacfs.Prohibited {
			continue
		}
		if strings.HasPrefix(l.Target, "remote://") {
			remoteN++
		} else {
			local++
		}
	}
	fmt.Printf("\n/fp holds %d local and %d remote results\n", local, remoteN)
}

// startLibrary brings up an in-process remote CBA server and returns
// its address. In real deployments this is cmd/hacindexd on another
// machine.
func startLibrary(docs map[string]string) string {
	fsys := cas.New(nil)
	for p, content := range docs {
		must("library mkdir "+vfs.Dir(p), fsys.MkdirAll(vfs.Dir(p)))
		must("library write "+p, fsys.WriteFile(p, []byte(content)))
	}
	backend, err := remote.NewIndexBackend(fsys, "/")
	must("library index", err)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must("library listen", err)
	go remote.NewServer(backend, nil).Serve(l)
	return l.Addr().String()
}

func show(fs *hacfs.FS, dir string) {
	entries, err := fs.ReadDir(dir)
	must("readdir "+dir, err)
	for _, e := range entries {
		if e.Type == hacfs.SymlinkType {
			fmt.Printf("  %-26s -> %s\n", e.Name, e.Target)
		} else {
			fmt.Printf("  %s/\n", e.Name)
		}
	}
}

// must aborts the example with a non-zero status, naming the step that
// failed.
func must(op string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "remotesearch: %s: %v\n", op, err)
		os.Exit(1)
	}
}
