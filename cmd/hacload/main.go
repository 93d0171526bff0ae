// Command hacload drives a running server with closed-loop paged
// searches, or traces one search through it:
//
//	hacload -addr host:port [flags]          search load
//	hacload -addr host:port [flags] trace    one traced search, rendered as a tree
//
// Each of -clients clients owns one connection to a hacvold host
// (remotefs mux; tenants from -tenants, round-robin) or, with -cluster,
// to a haccluster coordinator (remote protocol), and until -duration is
// up drains every page of a search under a scope picked from -scopes.
// It prints ops, errors, backpressure (vfs.ErrBackpressure, not an
// error), p50 and p99, and exits 1 when a search failed or none did.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/remote"
	"hacfs/internal/remotefs"
	"hacfs/internal/vfs"
)

var (
	addr      = flag.String("addr", "", "server address: a hacvold host, or with -cluster a haccluster coordinator")
	isCluster = flag.Bool("cluster", false, "dial a haccluster coordinator (remote protocol) instead of a hacvold host (remotefs mux)")
	tenants   = flag.String("tenants", "", "comma-separated hacvold tenants, assigned to clients round-robin (default: the host's default tenant; trace uses the first)")
	scopes    = flag.String("scopes", "/", "comma-separated search scopes, one picked at random per search")
	clients   = flag.Int("clients", 16, "closed-loop clients, one connection each")
	duration  = flag.Duration("duration", 2*time.Second, "how long the clients search")
	debugURL  = flag.String("debug", "", "trace: the server's debug endpoint, e.g. 127.0.0.1:7801, to fetch the server half of the trace")
)

const (
	// query is the term internal/corpus plants in about a tenth of its
	// documents: hacvold -demo and hacindexd serve such corpora.
	query = "markermid"
	// pageSize is the page each search request asks for.
	pageSize = 256
)

// searchPage fetches one page of a search on one connection and returns
// the next page's cursor (0 = done).
type searchPage func(ctx context.Context, scope string, after uint64) (uint64, error)

func main() {
	flag.Parse()
	tenantList, scopeList, args := split(*tenants), split(*scopes), flag.Args()
	switch {
	case *addr == "":
		usageErr("-addr is required")
	case len(args) > 1 || len(args) == 1 && args[0] != "trace":
		usageErr("unknown arguments %q", args)
	case *isCluster && (len(tenantList) > 0 || len(args) > 0):
		usageErr("a coordinator has no tenants and is not traced; -cluster takes neither -tenants nor trace")
	case *clients < 1 || *duration <= 0 || len(scopeList) == 0:
		usageErr("-clients and -duration must be positive and -scopes non-empty, got %d, %s, %q", *clients, *duration, *scopes)
	}
	if len(args) == 1 {
		if err := traceRemote(*addr, tenantList, *debugURL); err != nil {
			fmt.Fprintf(os.Stderr, "hacload: trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	st := run(tenantList, scopeList)
	slices.Sort(st.lat)
	pct := func(q float64) string {
		if len(st.lat) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fms", float64(st.lat[int(q*float64(len(st.lat)-1))].Microseconds())/1000)
	}
	fmt.Printf("ops=%d errors=%d backpressure=%d p50=%s p99=%s\n", len(st.lat), st.errs, st.backpressure, pct(0.50), pct(0.99))
	if st.firstErr != nil {
		fmt.Fprintf(os.Stderr, "hacload: first error: %v\n", st.firstErr)
	}
	if st.errs > 0 || len(st.lat) == 0 {
		os.Exit(1)
	}
}

// dial opens client i's connection.
func dial(i int, tenantList []string) (searchPage, io.Closer) {
	if *isCluster {
		c := remote.DialBin("hacload", *addr)
		c.SetObserver(obs.Discard())
		c.SetTimeout(10 * time.Second)
		return func(ctx context.Context, scope string, after uint64) (uint64, error) {
			_, next, _, err := c.SearchPageUnder(ctx, query, scope, after, pageSize)
			return next, err
		}, c
	}
	c := remotefs.DialMux(*addr)
	c.SetObserver(obs.Discard())
	c.SetTimeout(10 * time.Second)
	view := c
	if len(tenantList) > 0 {
		view = c.Tenant(tenantList[i%len(tenantList)])
	}
	return func(ctx context.Context, scope string, after uint64) (uint64, error) {
		_, next, err := view.SearchPageContext(ctx, query, scope, after, pageSize)
		return next, err
	}, c
}

// loadStats is what one client, or the whole run, saw.
type loadStats struct {
	lat          []time.Duration // one per completed search, all pages
	errs         int
	backpressure int
	firstErr     error
}

// run drives the closed loop: every client searches until the duration
// is up, then merges what it saw.
func run(tenantList, scopeList []string) (all loadStats) {
	stop := make(chan struct{})
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		search, conn := dial(i, tenantList)
		defer conn.Close()
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var st loadStats
			ctx := context.Background()
			for {
				select {
				case <-stop:
					mu.Lock()
					all.lat = append(all.lat, st.lat...)
					all.errs += st.errs
					all.backpressure += st.backpressure
					all.firstErr = cmp.Or(all.firstErr, st.firstErr)
					mu.Unlock()
					return
				default:
				}
				scope := scopeList[rng.Intn(len(scopeList))]
				start := time.Now()
				var after uint64
				var err error
				for {
					if after, err = search(ctx, scope, after); err != nil || after == 0 {
						break
					}
				}
				switch {
				case err == nil:
					st.lat = append(st.lat, time.Since(start))
				case errors.Is(err, vfs.ErrBackpressure):
					st.backpressure++ // a real client retries later
				default:
					st.errs++
					st.firstErr = cmp.Or(st.firstErr, err)
				}
			}
		}(rand.New(rand.NewSource(int64(i))))
	}
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	return all
}

// split parses a comma-separated list, dropping empty items.
func split(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}

// usageErr reports a nonsensical flag or argument and exits with the
// conventional usage status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hacload: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'hacload -h' for flag usage")
	os.Exit(2)
}
