// Command benchmark is the one benchmark of this repository: four
// workloads that drive the real servers in-process over real loopback
// sockets (no emulated delays), check every answer against an oracle
// built from corpus.Manifest, and print the end-to-end metrics — or,
// with -trace 1, the per-layer ladder. README.md explains the design;
// BENCHMARK.json at the repository root is the contract with the
// driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// config is one invocation's settings. scale shrinks every corpus; only
// smoke_test.go sets it below 1.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	tmp     string
	scale   float64
	clients int
}

func (c config) scaled(n int) int {
	if n = int(float64(n) * c.scale); n < 50 {
		n = 50
	}
	return n
}

// windowLen is the length of one measured window, so that an end-to-end
// run measures for exactly -seconds.
func (c config) windowLen() time.Duration {
	return time.Duration(c.seconds / float64(numWindows) * float64(time.Second))
}

// warm is the length of the discarded warm-up.
func (c config) warm() time.Duration {
	return time.Duration(c.seconds * 0.1 * float64(time.Second))
}

// setupReps is how many times an end-to-end run builds its stack;
// setup_s and heap_after_setup_mb are medians over them.
const setupReps = 3

// An end-to-end run measures numWindows windows and reports the median
// window, so a stall of the sandbox that hits a few windows does not move
// the result. A -trace run gives untracedWindows to the untraced stack
// and tracedWindows to the traced one.
const (
	numWindows      = 10
	untracedWindows = 6
	tracedWindows   = 3
)

type workload struct {
	name string
	why  string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"vold-search-many", "many-match paged searches on one served volume: plan, index, bitset, path materialization and payload bytes do the work", runSearchMany},
	{"vold-mixed-rw", "70/20/10 read / few-match search / write+sync on four served tenants: fixed per-request cost and the write path do the work", runMixedRW},
	{"cluster-scatter", "scatter-gather searches through a coordinator over four shard servers: cluster merge and the remote protocol do the work", runClusterScatter},
	{"local-andrew-smkdir", "no sockets: Andrew phases, semantic-directory creation, re-index and checkpoint through hac.FS over cas.FS", runLocal},
}

func main() {
	var cfg config
	name := flag.String("workload", "", "workload to run, or \"all\"")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	aa := flag.Bool("aa", false, "run the chosen workloads twice, order-alternated, and compare against the bounds")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.StringVar(&cfg.tmp, "tmp", "", "directory for checkpoint images (default: a fresh temp dir)")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.scale = 1
	cfg.clients = clientCount()

	if cfg.seconds < 1 || cfg.seconds > 60 {
		fatal(2, "seconds must be within 1..60")
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fatal(2, "unknown workload %q; choose one of %v or all", *name, workloadNames())
	}
	if cfg.tmp == "" {
		dir, err := os.MkdirTemp("", "hacbenchmark")
		if err != nil {
			fatal(1, "%v", err)
		}
		defer os.RemoveAll(dir)
		cfg.tmp = dir
	}

	// A hard wall-clock ceiling marks the run failed instead of hanging.
	limit := time.Duration(len(chosen)) * 170 * time.Second
	if *aa {
		limit *= 2
	}
	time.AfterFunc(limit, func() { fatal(3, "wall-clock ceiling of %v exceeded", limit) })

	printEnv(cfg)
	if *aa {
		os.Exit(runAA(cfg, chosen))
	}
	ok := true
	for _, w := range chosen {
		res, err := w.run(cfg)
		if err != nil {
			fatal(1, "%s: %v", w.name, err)
		}
		ok = report(cfg, res) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// clientCount is the sizing rule: one closed-loop client goroutine and
// one connection per CPU, so the load generator never has more runnable
// clients than the machine has cores to share with the servers. Four is
// the most the tenant layout of vold-mixed-rw can use.
func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func printEnv(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# env go=%s gomaxprocs=%d nproc=%d clients=%d commit=%s seed=%d seconds=%g trace=%v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.clients, commit, cfg.seed, cfg.seconds, cfg.trace)
}

// defsFor returns the metrics a run with the given -trace prints.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// report prints every metric by name with its unit, then the result
// line the driver reads, and says whether every answer was correct.
func report(cfg config, res *result) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, map[string]value{}}

	fmt.Printf("# workload %s: attempted=%d failed=%d failed_share=%g\n",
		res.Workload, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", res.Workload, e)
	}
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	for _, d := range defsFor(cfg.trace) {
		v := res.Values[d.Name]
		fmt.Printf("%-36s %14.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	return out.Correct
}

// runAA measures the chosen workloads twice in one invocation — A in
// the given order, B in reverse — and applies the comparison the
// pipeline makes between a parent commit and a change: side B may not
// be worse than side A by more than the metric's bound.
func runAA(cfg config, chosen []workload) int {
	cfg.trace = false
	sides := [2]map[string]*result{{}, {}}
	for side := range sides {
		order := append([]workload(nil), chosen...)
		if side == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			res, err := w.run(cfg)
			if err != nil {
				fatal(1, "%s: %v", w.name, err)
			}
			if !report(cfg, res) {
				return 1
			}
			sides[side][w.name] = res
		}
	}
	code := 0
	fmt.Println("# A/A: relative difference of run B against run A (positive = worse), and the bound")
	for _, w := range chosen {
		for _, d := range endToEnd {
			a, b := sides[0][w.name].Values[d.Name], sides[1][w.name].Values[d.Name]
			worse := (b - a) / a
			if d.Name == "ops_per_s" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, code = "DISAGREE", 1
			}
			fmt.Printf("%-22s %-28s A=%-12.6g B=%-12.6g %+7.2f%% bound %4.0f%% %s\n",
				w.name, d.Name, a, b, worse*100, d.Bound*100, verdict)
		}
	}
	return code
}
