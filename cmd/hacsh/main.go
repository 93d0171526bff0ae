// Command hacsh is an interactive shell over a HAC volume — the
// closest equivalent of mounting the paper's file system and using
// cd/ls/smkdir/ssync from a terminal.
//
// Usage:
//
//	hacsh [-demo] [-files N] [-script file]
//
// With -demo the volume is seeded with a synthetic document corpus and
// indexed, so semantic directories have something to match. With
// -script, commands are read from the file instead of stdin (one per
// line; # starts a comment).
package main

import (
	"flag"
	"fmt"
	"os"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/shell"
	"hacfs/internal/vfs/cas"
)

var (
	demo       = flag.Bool("demo", false, "seed the volume with a demo corpus under /docs and index it")
	demoFiles  = flag.Int("files", 200, "demo corpus size (with -demo)")
	scriptPath = flag.String("script", "", "read commands from this file instead of stdin")
	slowThresh = flag.Duration("slow-threshold", obs.DefSlowThreshold, "record ops slower than this for the slow command (0 disables)")
)

func main() {
	flag.Parse()
	obs.Default().Slow().SetThreshold(*slowThresh)

	fs := hac.New(cas.New(nil), hac.Options{})
	if *demo {
		if err := seed(fs, *demoFiles); err != nil {
			fmt.Fprintf(os.Stderr, "hacsh: seeding demo corpus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("seeded %d demo documents under /docs (markers: markerfew, markermid, markermany; topics: topic0key...)\n", *demoFiles)
	}

	sh := shell.New(fs, os.Stdout)
	in := os.Stdin
	interactive := true
	if *scriptPath != "" {
		f, err := os.Open(*scriptPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hacsh: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		interactive = false
	}
	if interactive {
		fmt.Println("hacsh — HAC file system shell (type help for commands)")
	}
	if err := sh.Run(in, interactive); err != nil {
		fmt.Fprintf(os.Stderr, "hacsh: %v\n", err)
		os.Exit(1)
	}
}

func seed(fs *hac.FS, files int) error {
	if err := fs.MkdirAll("/docs"); err != nil {
		return err
	}
	if _, err := corpus.Generate(fs, "/docs", corpus.Spec{Files: files, Seed: 42}); err != nil {
		return err
	}
	_, err := fs.Reindex("/")
	return err
}
