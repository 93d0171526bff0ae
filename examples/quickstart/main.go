// Quickstart: the smallest end-to-end use of the hacfs library —
// create a volume, add files, index, attach a query to a directory, and
// watch HAC keep it consistent.
package main

import (
	"fmt"
	"os"

	"hacfs"
)

func main() {
	fs := hacfs.NewVolume()

	// A HAC volume is an ordinary hierarchical file system.
	must("mkdir /notes", fs.MkdirAll("/notes"))
	must("write pie.txt", fs.WriteFile("/notes/pie.txt", []byte("apple pie recipe")))
	must("write bread.txt", fs.WriteFile("/notes/bread.txt", []byte("banana bread recipe")))
	must("write car.txt", fs.WriteFile("/notes/car.txt", []byte("car maintenance log")))

	// Index the volume (the paper's CBA mechanism), then create a
	// semantic directory: a directory with a query.
	_, err := fs.Reindex("/")
	must("reindex", err)
	must("semdir /recipes", fs.SemDir("/recipes", "recipe"))

	fmt.Println("links in /recipes:")
	printDir(fs, "/recipes")

	// It is still a regular directory: delete a link you don't want
	// (it becomes prohibited and will never silently return) ...
	must("remove bread.txt link", fs.Remove("/recipes/bread.txt"))

	// ... and new matching files appear at the next reindex.
	must("write cake.txt", fs.WriteFile("/notes/cake.txt", []byte("carrot cake recipe")))
	_, err = fs.Reindex("/")
	must("reindex", err)

	fmt.Println("\nafter deleting bread.txt and adding cake.txt:")
	printDir(fs, "/recipes")

	links, err := fs.Links("/recipes")
	must("links /recipes", err)
	fmt.Println("\nclassified links:")
	for _, l := range links {
		fmt.Printf("  %-10s %s\n", l.Class, l.Target)
	}
}

func printDir(fs *hacfs.FS, dir string) {
	entries, err := fs.ReadDir(dir)
	must("readdir "+dir, err)
	for _, e := range entries {
		fmt.Printf("  %s -> %s\n", e.Name, e.Target)
	}
}

// must aborts the example with a non-zero status, naming the step that
// failed.
func must(op string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %s: %v\n", op, err)
		os.Exit(1)
	}
}
