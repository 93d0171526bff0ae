package main

import (
	"runtime"
	"time"
)

// stack is a booted set of servers that closed-loop clients drive.
type stack interface {
	close()
	storedPerUserByte() float64
	// clients returns n closed-loop clients, one connection each, and a
	// function that closes the connections.
	clients(seed int64, n int) ([]stepFn, func())
	// observed reads the cumulative counters of a traced stack.
	observed() driveTrace
	// ladder fills the workload's per-layer metrics after a traced drive.
	ladder(res *result, seed int64, tr driveTrace)
}

// driveTrace is what a traced drive observed from outside the layers:
// the registry's series, the substrate decorator's totals and the bytes
// through the loopback relay — cumulative from observed(), differences
// over the drive once since() has been applied.
type driveTrace struct {
	c        counters
	subCalls float64
	subBusy  float64 // nanoseconds
	bytes    float64
	ops      float64 // operations the clients issued during the drive
	elapsed  time.Duration
}

func (t driveTrace) since(base driveTrace) driveTrace {
	t.c = t.c.delta(base.c)
	t.subCalls -= base.subCalls
	t.subBusy -= base.subBusy
	t.bytes -= base.bytes
	return t
}

// timeSetup builds the stack setupReps times and reports the median
// build time as setup_s and the median live heap after a collection as
// heap_after_setup_mb. boot releases the stack it built before.
func timeSetup(res *result, boot func() error) error {
	var setup, heap []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if err := boot(); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heap = append(heap, float64(m.HeapAlloc)/(1<<20))
	}
	res.set("setup_s", median(setup))
	res.set("heap_after_setup_mb", median(heap))
	return nil
}

// runServed measures a workload whose load comes over sockets.
//
// -trace 0: the stack is set up setupReps times (setup_s and
// heap_after_setup_mb are the medians), then the last one is driven
// through a warm-up and numWindows windows with tracing off.
//
// -trace 1: an untraced stack is driven for untracedWindows windows
// (client tails, allocation counters, the ops_per_s that tracing
// overhead is measured against); then a traced stack — recording
// observer, decorators, byte relay — is driven for tracedWindows windows
// and the ladder replayed on it.
func runServed(name string, cfg config, boot func(traced bool) (stack, error)) (*result, error) {
	res := &result{Workload: name, Values: map[string]float64{}}
	if !cfg.trace {
		var st stack
		err := timeSetup(res, func() (err error) {
			if st != nil {
				st.close()
				st = nil
			}
			st, err = boot(false)
			return err
		})
		if err != nil {
			return nil, err
		}
		defer st.close()
		steps, hangUp := st.clients(cfg.seed, cfg.clients)
		defer hangUp()
		drive(res, steps, cfg.warm(), cfg.windowLen(), numWindows).endToEnd(res)
		res.set("stored_bytes_per_user_byte", st.storedPerUserByte())
		return res, nil
	}

	plain, err := boot(false)
	if err != nil {
		return nil, err
	}
	steps, hangUp := plain.clients(cfg.seed, cfg.clients)
	untraced := drive(res, steps, cfg.warm(), cfg.windowLen(), untracedWindows)
	hangUp()
	plain.close()
	untraced.clientLayer(res)
	untraced.meter.stop(res, untraced.total)

	st, err := boot(true)
	if err != nil {
		return nil, err
	}
	defer st.close()
	steps, hangUp = st.clients(cfg.seed, cfg.clients)
	base, before, start := st.observed(), res.Attempted, time.Now()
	traced := drive(res, steps, cfg.warm(), cfg.windowLen(), tracedWindows)
	hangUp()
	tr := st.observed().since(base)
	tr.ops = float64(res.Attempted - before)
	tr.elapsed = time.Since(start)

	plainRate := untraced.medianOf(func(w *window) float64 { return w.opsPerSec(untraced.length) })
	tracedRate := traced.medianOf(func(w *window) float64 { return w.opsPerSec(traced.length) })
	res.set("obs.trace_overhead_pct", ratio(plainRate-tracedRate, plainRate)*100)
	st.ladder(res, cfg.seed, tr)
	return res, nil
}
