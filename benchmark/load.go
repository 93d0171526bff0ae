package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// opKind classes an operation for the latency metrics.
type opKind int

const (
	kindSearch opKind = iota
	kindRead
	kindWrite
	numKinds
)

// op is the outcome of one closed-loop step. dur covers the request
// only; checking the answer against the oracle happens after the clock
// stops. results is the number of paths a search returned.
type op struct {
	kind    opKind
	dur     time.Duration
	results int
	err     error
}

// stepFn performs a client's next operation. Each client owns one
// connection and one seeded generator, so the sequence a client issues
// is a function of the seed alone.
type stepFn func() op

// deck deals a fixed multiset of choices over and over, in an order the
// seed shuffled once. Drawing each choice independently would leave the
// share of the expensive operations in a window to chance; a deck gives
// every stretch of len(cards) operations exactly the stated mix, which
// keeps a window's throughput and percentiles from moving with the luck
// of the draw.
type deck struct {
	cards []int
	next  int
}

// newDeck builds a deck with counts[i] cards of choice i.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{}
	for choice, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, choice)
		}
	}
	rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	return d
}

func (d *deck) deal() int {
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

type sample struct {
	at time.Duration // completion time since the measured period began
	op op
}

// window is one measured window: the operations that completed in it.
type window struct {
	ops     int
	lat     [numKinds][]float64 // ms
	results int
}

func (w *window) opsPerSec(length time.Duration) float64 {
	return float64(w.ops) / length.Seconds()
}

// load is the result of one drive: the measured windows plus the
// totals over everything issued, warm-up included.
type load struct {
	length  time.Duration
	windows []window
	total   int   // operations in the windows
	meter   meter // started when the warm-up ended
}

// drive runs every client closed-loop — the next request goes out when
// the previous answer is in — through a discarded warm-up (which fills
// the attribute cache, the result cache and the lazy dictionaries) and
// then n windows of equal length. An operation belongs to the window it
// completed in. Failures are counted into res over the whole drive.
func drive(res *result, clients []stepFn, warm, length time.Duration, n int) load {
	perClient := make([][]sample, len(clients))
	start := time.Now()
	begin := start.Add(warm)
	end := begin.Add(time.Duration(n) * length)

	var mu sync.Mutex
	var wg sync.WaitGroup
	var m meter
	warmed := make(chan struct{})
	go func() {
		time.Sleep(time.Until(begin))
		m = startMeter()
		close(warmed)
	}()
	for c, step := range clients {
		wg.Add(1)
		go func(c int, step stepFn) {
			defer wg.Done()
			var attempted, failed int64
			var errs []error
			for {
				o := step()
				now := time.Now()
				attempted++
				if o.err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, o.err)
					}
				} else if now.After(begin) && !now.After(end) {
					perClient[c] = append(perClient[c], sample{at: now.Sub(begin), op: o})
				}
				if now.After(end) {
					break
				}
			}
			mu.Lock()
			res.Attempted += attempted
			res.Failed += failed
			for _, err := range errs {
				res.note(err)
			}
			mu.Unlock()
		}(c, step)
	}
	wg.Wait()
	<-warmed

	out := load{length: length, windows: make([]window, n), meter: m}
	total := 0
	for _, ss := range perClient {
		for _, s := range ss {
			i := int(s.at / length)
			if i >= n {
				i = n - 1
			}
			w := &out.windows[i]
			w.ops++
			w.lat[s.op.kind] = append(w.lat[s.op.kind], ms(s.op.dur))
			w.results += s.op.results
			total++
		}
	}
	out.total = total
	return out
}

// meter reads the runtime's allocation and GC counters over a period.
type meter struct {
	mem runtime.MemStats
	gc  [2]float64
}

func startMeter() meter {
	var m meter
	runtime.ReadMemStats(&m.mem)
	m.gc = gcCPU()
	return m
}

// stop fills the go.* metrics: allocations per operation and the share
// of the process's CPU time the collector took since startMeter.
func (m meter) stop(res *result, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	gc := gcCPU()
	res.set("go.allocs_per_op", ratio(float64(after.Mallocs-m.mem.Mallocs), float64(ops)))
	res.set("go.alloc_bytes_per_op", ratio(float64(after.TotalAlloc-m.mem.TotalAlloc), float64(ops)))
	res.set("go.gc_cpu_share", ratio(gc[0]-m.gc[0], gc[1]-m.gc[1]))
}

// gcCPU reads the process's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// medianOf reports the median over the windows of f — the "median
// window" value every timing metric is reported as.
func (l load) medianOf(f func(w *window) float64) float64 {
	v := make([]float64, len(l.windows))
	for i := range l.windows {
		v[i] = f(&l.windows[i])
	}
	return median(v)
}

// endToEnd fills the load-derived end-to-end metrics.
func (l load) endToEnd(res *result) {
	for i := range l.windows {
		w := &l.windows[i]
		res.Notes = append(res.Notes, fmt.Sprintf("window %d: %.1f ops/s, search p50 %.4f p90 %.4f ms (%d), read p50 %.4f ms (%d), write p50 %.4f ms (%d)",
			i, w.opsPerSec(l.length), percentile(w.lat[kindSearch], 0.5), percentile(w.lat[kindSearch], 0.9), len(w.lat[kindSearch]),
			percentile(w.lat[kindRead], 0.5), len(w.lat[kindRead]), percentile(w.lat[kindWrite], 0.5), len(w.lat[kindWrite])))
	}
	res.set("ops_per_s", l.medianOf(func(w *window) float64 { return w.opsPerSec(l.length) }))
	res.set("search_p50_ms", l.medianOf(func(w *window) float64 { return percentile(w.lat[kindSearch], 0.50) }))
	res.set("search_p90_ms", l.medianOf(func(w *window) float64 { return percentile(w.lat[kindSearch], 0.90) }))
	res.set("read_p50_ms", l.medianOf(func(w *window) float64 { return percentile(w.lat[kindRead], 0.50) }))
}

// clientLayer fills the load generator's own per-layer metrics: the
// tails (pooled over the windows, so that p99 has samples beyond it)
// and the runtime's allocation and GC counters over the same period.
func (l load) clientLayer(res *result) {
	var pooled [numKinds][]float64
	searches, results := 0, 0
	for i := range l.windows {
		w := &l.windows[i]
		for k := range pooled {
			pooled[k] = append(pooled[k], w.lat[k]...)
		}
		searches += len(w.lat[kindSearch])
		results += w.results
	}
	res.set("client.search_p99_ms", percentile(pooled[kindSearch], 0.99))
	res.set("client.read_p99_ms", percentile(pooled[kindRead], 0.99))
	res.set("client.write_sync_p50_ms", percentile(pooled[kindWrite], 0.50))
	res.set("client.write_sync_p99_ms", percentile(pooled[kindWrite], 0.99))
	if searches > 0 {
		res.set("client.results_per_search", float64(results)/float64(searches))
	}
}
