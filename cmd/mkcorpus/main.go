// Command mkcorpus writes a synthetic document corpus to the host file
// system — the stand-in for the paper's 17,000-file personal database,
// useful for inspecting what the experiments index and for driving
// hacindexd -dir.
//
// Usage:
//
//	mkcorpus -out DIR [-files N] [-words N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hacfs/internal/corpus"
	"hacfs/internal/vfs/cas"
)

var (
	out   = flag.String("out", "", "destination directory on the host file system (required)")
	files = flag.Int("files", 500, "number of files")
	words = flag.Int("words", 200, "mean words per file")
	seed  = flag.Int64("seed", 1, "generator seed")
)

func main() {
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "mkcorpus: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	// Generate into memory first, then copy out, so the generator stays
	// a pure function of its Spec.
	mem := cas.New(nil)
	if err := mem.MkdirAll("/c"); err != nil {
		fatal(err)
	}
	man, err := corpus.Generate(mem, "/c", corpus.Spec{Files: *files, MeanWords: *words, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	for _, fm := range man.Files {
		rel := fm.Path[len("/c/"):]
		dst := filepath.Join(*out, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			fatal(err)
		}
		data, err := mem.ReadFile(fm.Path)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %d files (%.1f MB) to %s\n",
		len(man.Files), float64(man.TotalBytes)/(1<<20), *out)
	fmt.Printf("planted markers:")
	for term, paths := range man.MarkerFiles {
		fmt.Printf(" %s=%d", term, len(paths))
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mkcorpus: %v\n", err)
	os.Exit(1)
}
