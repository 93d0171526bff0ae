// Command haccluster is the sharded-cluster coordinator daemon
// (DESIGN.md §14): it fans searches out to a fleet of hacindexd shard
// replicas and serves the merged result over the ordinary remote CBA
// protocol, so any existing client — hacsh, hacbench, another HAC
// volume's semantic mount — can point at it unchanged.
//
// Usage:
//
//	haccluster -map cluster.map [-addr host:port] [-allow-partial]
//
// The shard map file declares shards, replicas and routes (see
// internal/cluster.ParseMap). SIGHUP reloads it in place: in-flight
// searches finish against the old map, live cursors keep draining as
// long as their shard IDs survive.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hacfs/internal/cluster"
	"hacfs/internal/obs"
	"hacfs/internal/remote"
)

var (
	addr         = flag.String("addr", "127.0.0.1:7678", "listen address")
	debugAddr    = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/spans, /debug/slow and /debug/trace on this address")
	slowThresh   = flag.Duration("slow-threshold", obs.DefSlowThreshold, "record ops slower than this in /debug/slow (0 disables)")
	mapFile      = flag.String("map", "", "shard map file (required)")
	allowPartial = flag.Bool("allow-partial", false, "serve partial results when a shard is unreachable instead of failing the search")
	timeout      = flag.Duration("timeout", 5*time.Second, "per-replica attempt timeout")
	cooldown     = flag.Duration("cooldown", 2*time.Second, "how long a failed replica is skipped before being probed again")
	pageSize     = flag.Int("page", 512, "per-shard fetch page size")
	waitShards   = flag.Duration("wait-shards", 0, "at startup, wait up to this long for every shard to answer a ping")
	resyncPause  = flag.Duration("resync-stagger", time.Second, "jittered pause between replicas of a shard during a rolling resync (0 = back to back; one replica per shard rebuilds at a time either way)")
)

func main() {
	flag.Parse()
	logger := log.New(os.Stderr, "haccluster: ", log.LstdFlags)
	if *mapFile == "" {
		fmt.Fprintln(os.Stderr, "haccluster: -map is required")
		flag.Usage()
		os.Exit(2)
	}

	m, err := loadMap(*mapFile)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	coord := cluster.New(m, cluster.Options{
		AllowPartial:  *allowPartial,
		Timeout:       *timeout,
		Cooldown:      *cooldown,
		PageSize:      *pageSize,
		ResyncStagger: *resyncPause,
		Observer:      obs.Default(),
	})
	defer coord.Close()
	logger.Printf("coordinating %d shards from %s", len(m.Shards()), *mapFile)

	if *waitShards > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *waitShards)
		for coord.Ping(ctx) != nil && ctx.Err() == nil {
			time.Sleep(50 * time.Millisecond)
		}
		cancel()
		if err := coord.Ping(context.Background()); err != nil {
			logger.Printf("warning: not all shards answered after %s: %v", *waitShards, err)
		}
	}

	obs.Default().Slow().SetThreshold(*slowThresh)
	if *debugAddr != "" {
		dl, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			logger.Fatalf("debug listener: %v", err)
		}
		logger.Printf("debug endpoints on http://%s/metrics", dl.Addr())
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			m, err := loadMap(*mapFile)
			if err != nil {
				logger.Printf("reload: %v (keeping current map)", err)
				continue
			}
			coord.Reload(m)
			logger.Printf("reloaded shard map (generation %d, %d shards)",
				coord.Map().Generation(), len(m.Shards()))
		}
	}()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	logger.Printf("serving cluster search on %s", *addr)
	srv := remote.NewServer(coord, logger)
	if err := srv.Serve(l); err != nil {
		logger.Fatalf("serve: %v", err)
	}
}

func loadMap(path string) (*cluster.Map, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading shard map: %w", err)
	}
	m, err := cluster.ParseMap(string(text))
	if err != nil {
		return nil, err
	}
	return m, nil
}
