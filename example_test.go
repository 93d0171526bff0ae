package hacfs_test

import (
	"fmt"
	"log"

	"hacfs"
)

// The canonical loop: index a volume, attach a query to a directory,
// tune the result by hand, and let a reindex settle new files.
func Example() {
	fs := hacfs.NewVolume()
	fs.MkdirAll("/notes")
	fs.WriteFile("/notes/pie.txt", []byte("apple pie recipe"))
	fs.WriteFile("/notes/bread.txt", []byte("banana bread recipe"))
	if _, err := fs.Reindex("/"); err != nil {
		log.Fatal(err)
	}

	if err := fs.SemDir("/recipes", "recipe"); err != nil {
		log.Fatal(err)
	}
	entries, _ := fs.ReadDir("/recipes")
	for _, e := range entries {
		fmt.Println(e.Name)
	}
	// Output:
	// bread.txt
	// pie.txt
}

// Deleting a query-produced link prohibits it: it never silently
// returns, even across reindexing.
func ExampleFS_Remove() {
	fs := hacfs.NewVolume()
	fs.MkdirAll("/docs")
	fs.WriteFile("/docs/a.txt", []byte("apple"))
	fs.WriteFile("/docs/b.txt", []byte("apple too"))
	fs.Reindex("/")
	fs.SemDir("/sel", "apple")

	fs.Remove("/sel/a.txt") // the user's deletion is remembered
	fs.Reindex("/")         // ...and survives the next consistency pass

	links, _ := fs.Links("/sel")
	for _, l := range links {
		fmt.Printf("%s %s\n", l.Class, l.Target)
	}
	// Output:
	// prohibited /docs/a.txt
	// transient /docs/b.txt
}

// Queries can reference other directories (§2.5): the referenced
// directory's current link set — including manual edits — feeds the
// query, and renames never break the reference.
func ExampleFS_SemDir_dirReference() {
	fs := hacfs.NewVolume()
	fs.MkdirAll("/docs")
	fs.WriteFile("/docs/one.txt", []byte("apple banana"))
	fs.WriteFile("/docs/two.txt", []byte("apple"))
	fs.Reindex("/")

	fs.SemDir("/curated", "apple")
	fs.SemDir("/refined", "dir:/curated AND NOT banana")

	fs.Rename("/curated", "/picks") // the reference survives
	fs.Sync("/")

	q, _ := fs.QueryDisplay("/refined")
	fmt.Println(q)
	targets, _ := fs.LinkTargets("/refined")
	fmt.Println(targets[0])
	// Output:
	// (dir:/picks AND (NOT banana))
	// /docs/two.txt
}

// Transducers add typed attribute terms, queryable like words.
func ExampleFS_RegisterTransducer() {
	fs := hacfs.NewVolume()
	fs.RegisterTransducer(".eml", hacfs.EmailTransducer)
	fs.MkdirAll("/mail")
	fs.WriteFile("/mail/m1.eml", []byte("from alice\n\nhello\n"))
	fs.WriteFile("/mail/m2.eml", []byte("from bob\n\nhello\n"))
	fs.Reindex("/")

	fs.SemDir("/from-alice", "from:alice")
	targets, _ := fs.LinkTargets("/from-alice")
	fmt.Println(targets)
	// Output:
	// [/mail/m1.eml]
}
