// Command haccatd runs the central catalog of §3.2: users publish the
// names, queries and query-results of their semantic directories here,
// search the collection, and find users with similar classifications.
// The catalog is a HAC volume with auto-sync on "/" (catalog.New),
// served over the remote file-system protocol like any hacvold volume:
// a published entry is searchable once its write returns. Clients dial
// it with remotefs.DialMux (hacsh spublish, scatalog, ssimilar).
//
// Usage:
//
//	haccatd [-addr host:port] [-debug-addr host:port]
package main

import (
	"flag"
	"log"
	"net"
	"os"

	"hacfs/internal/catalog"
	"hacfs/internal/obs"
	"hacfs/internal/remotefs"
)

var (
	addr       = flag.String("addr", "127.0.0.1:7679", "listen address")
	debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/spans, /debug/slow and /debug/trace on this address")
	slowThresh = flag.Duration("slow-threshold", obs.DefSlowThreshold, "record ops slower than this in /debug/slow (0 disables)")
)

func main() {
	flag.Parse()
	logger := log.New(os.Stderr, "haccatd: ", log.LstdFlags)
	obs.Default().Slow().SetThreshold(*slowThresh)
	if *debugAddr != "" {
		dl, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			logger.Fatalf("debug listener: %v", err)
		}
		logger.Printf("debug endpoints on http://%s/metrics", dl.Addr())
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	logger.Printf("catalog serving on %s", *addr)
	if err := remotefs.NewServer(catalog.New(), logger).Serve(l); err != nil {
		logger.Fatalf("serve: %v", err)
	}
}
