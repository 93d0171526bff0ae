package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/vfs"
)

// ---------------------------------------------------------------------
// Segmented store — Search latency with and without a concurrent merge
// ---------------------------------------------------------------------

// CompactionResult reports Search latency percentiles over the same
// query mix, measured first on an idle volume and then while a
// background loop continuously tombstones documents, seals segments and
// forces merges. The epoch-pinned snapshots are supposed to make the
// merge invisible to readers; P99Ratio is the measured cost of being
// wrong about that.
type CompactionResult struct {
	Files    int
	Samples  int
	Segments int // sealed segments when the idle phase was measured

	IdleP50  time.Duration
	IdleP99  time.Duration
	MergeP50 time.Duration
	MergeP99 time.Duration

	Merges   int     // merges committed during the concurrent phase
	P99Ratio float64 // MergeP99 / IdleP99
}

func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Compaction measures the online-compaction experiment: samples
// searches per phase over the generated corpus, with the merge churn of
// the second phase re-adding a rotating slice of documents (tombstoning
// their old slots) and forcing a full merge each round.
func Compaction(spec corpus.Spec, samples int) (CompactionResult, error) {
	if samples <= 0 {
		// p99 of n samples is the ⌈n/100⌉-th worst; below ~1000 samples it
		// degenerates into a max-of-a-handful and the ratio turns noisy.
		samples = 1500
	}
	mem := vfs.New()
	if err := mem.MkdirAll("/db"); err != nil {
		return CompactionResult{}, err
	}
	man, err := corpus.Generate(mem, "/db", spec)
	if err != nil {
		return CompactionResult{}, err
	}
	hfs := hac.New(mem, hac.Options{})
	// A low seal threshold keeps the segment set non-trivial, so merges
	// have real input to compact.
	hfs.Index().SetSealThreshold(256)
	if _, err := hfs.Reindex("/db"); err != nil {
		return CompactionResult{}, err
	}

	queries := make([]string, 0, len(man.TopicTerm)+1)
	queries = append(queries, man.TopicTerm...)
	queries = append(queries, "markermid")

	// measure times Search calls round-robin over the query mix. It
	// stops once it has `samples` timings AND more() says the phase has
	// seen enough concurrent work (nil more() means stop at samples).
	measure := func(more func() bool) []time.Duration {
		ds := make([]time.Duration, 0, samples)
		for i := 0; len(ds) < samples || (more != nil && more() && i < samples*1000); i++ {
			q := queries[i%len(queries)]
			start := time.Now()
			res, err := hfs.Search(context.Background(), q)
			if err != nil {
				return nil
			}
			res.All()
			ds = append(ds, time.Since(start))
		}
		return ds
	}

	res := CompactionResult{
		Files:    len(man.Files),
		Samples:  samples,
		Segments: hfs.Index().Stats().Segments,
	}

	idle := measure(nil)
	if idle == nil {
		return res, fmt.Errorf("bench: idle search failed")
	}

	// Concurrent phase: churn re-adds a rotating slice of the corpus
	// (tombstoning the previous slots) and forces a merge every round,
	// so Search continuously races commit points.
	startEpoch := hfs.Index().Epoch()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		ix := hfs.Index()
		round := 0
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for i := 0; i < 64; i++ {
				f := man.Files[(round*64+i)%len(man.Files)]
				data, err := mem.ReadFile(f.Path)
				if err != nil {
					done <- err
					return
				}
				ix.Add(f.Path, data)
				// Pace the updater: on a single core an unbroken
				// tokenize/commit burst would otherwise charge whole
				// scheduler quanta to the searcher we are measuring.
				runtime.Gosched()
			}
			ix.ForceMerge()
			round++
		}
	}()
	// Keep sampling until at least a handful of merges have actually
	// committed under us; a fast query mix can otherwise drain its
	// sample budget before the first merge lands.
	const minMerges = 5
	merged := measure(func() bool {
		return hfs.Index().Epoch()-startEpoch < minMerges
	})
	close(stop)
	if err := <-done; err != nil {
		return res, err
	}
	if merged == nil {
		return res, fmt.Errorf("bench: search under merge failed")
	}

	res.IdleP50 = percentile(idle, 0.50)
	res.IdleP99 = percentile(idle, 0.99)
	res.MergeP50 = percentile(merged, 0.50)
	res.MergeP99 = percentile(merged, 0.99)
	res.Merges = int(hfs.Index().Epoch() - startEpoch)
	if res.IdleP99 > 0 {
		res.P99Ratio = float64(res.MergeP99) / float64(res.IdleP99)
	}
	return res, nil
}
