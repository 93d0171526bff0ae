// Command hacindexd serves a document tree over the remote
// content-based-access protocol, so other HAC volumes can semantically
// mount it (§3 of the paper: "connect different file systems ...
// evaluate queries against different name spaces").
//
// Usage:
//
//	hacindexd [-addr host:port] [-files N] [-dir path]
//
// By default it serves a synthetic corpus; with -dir it indexes a real
// directory from the host file system (read-only snapshot taken at
// startup).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"hacfs/internal/corpus"
	"hacfs/internal/obs"
	"hacfs/internal/remote"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

var (
	addr       = flag.String("addr", "127.0.0.1:7677", "listen address")
	debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/spans, /debug/slow and /debug/trace on this address")
	slowThresh = flag.Duration("slow-threshold", obs.DefSlowThreshold, "record ops slower than this in /debug/slow (0 disables)")
	nfiles     = flag.Int("files", 500, "synthetic corpus size (when -dir is not given)")
	seed       = flag.Int64("seed", 7, "synthetic corpus seed")
	hostDir    = flag.String("dir", "", "serve a snapshot of this host directory instead of a synthetic corpus")
	maxBytes   = flag.Int64("max-file-bytes", 1<<20, "skip host files larger than this (with -dir)")
	corpusRoot = flag.String("corpus-root", "/corpus", "root directory of the synthetic corpus; cluster shards serving distinct subtrees each pick their own")
)

func main() {
	flag.Parse()
	logger := log.New(os.Stderr, "hacindexd: ", log.LstdFlags)

	fsys := cas.New(nil)
	var err error
	switch {
	case *hostDir != "":
		var n int
		n, err = snapshotHostDir(fsys, *hostDir)
		if err == nil {
			logger.Printf("snapshotted %d files from %s", n, *hostDir)
		}
	default:
		err = fsys.MkdirAll(*corpusRoot)
		if err == nil {
			_, err = corpus.Generate(fsys, *corpusRoot, corpus.Spec{Files: *nfiles, Seed: *seed})
		}
	}
	if err != nil {
		logger.Fatalf("building document tree: %v", err)
	}

	backend, err := remote.NewIndexBackend(fsys, "/")
	if err != nil {
		logger.Fatalf("indexing: %v", err)
	}
	backend.Index().SetObserver(obs.Default())
	obs.Default().Slow().SetThreshold(*slowThresh)
	if *debugAddr != "" {
		dl, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			logger.Fatalf("debug listener: %v", err)
		}
		logger.Printf("debug endpoints on http://%s/metrics", dl.Addr())
	}
	st := backend.Index().Stats()
	logger.Printf("serving %d documents (%d terms, %d KB index) on %s",
		st.Docs, st.Terms, st.IndexBytes/1024, *addr)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	srv := remote.NewServer(backend, logger)
	if err := srv.Serve(l); err != nil {
		logger.Fatalf("serve: %v", err)
	}
}

// snapshotHostDir copies regular files under dir from the host OS into
// the in-memory volume, preserving relative paths.
func snapshotHostDir(fsys vfs.FileSystem, dir string) (int, error) {
	n := 0
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return nil // skip unreadable entries
		}
		if !info.Mode().IsRegular() || info.Size() > *maxBytes {
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		target := "/" + filepath.ToSlash(rel)
		if err := fsys.MkdirAll(vfs.Dir(target)); err != nil {
			return err
		}
		if err := fsys.WriteFile(target, data); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("no regular files found under %s", dir)
	}
	return n, nil
}
