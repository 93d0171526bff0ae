package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hacfs/internal/andrew"
	"hacfs/internal/bitset"
	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/index"
	"hacfs/internal/obs"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// local-andrew-smkdir: no sockets. One in-process hac.FS over cas.FS
// runs a cycle of the paper's own measurements — the five Andrew phases
// (Tables 1–2), semantic-directory creation at three selectivities
// (Table 4), a re-index after a 1%-dirty edit batch, a checkpoint, and a
// batch of deep-path reads — until the measured time is up. One cycle is
// localOps operations.

const (
	andrewRoot = "/src/l1/l2/l3/l4/l5" // source files sit at depth 8
	dbRoot     = "/db"
	localOps   = 13 // 5 Andrew phases, 5 smkdir, re-index, checkpoint, read batch
	readBatch  = 384
	readSet    = 32 // distinct files the read batch cycles through
)

// The standing semantic directories give the post-edit SyncAll link
// work to do; the edits flip markermid, so /standing-mid changes.
var standing = [][2]string{
	{"/standing-few", "markerfew"},
	{"/standing-mid", "markermid"},
	{"/standing-many", "markermany"},
}

// smkdirOrder is one cycle's semantic-directory creations: one few-match,
// three mid-match, one many-match. Sorted by cost that puts the median
// creation in the middle of the mid-match class and the 90th percentile
// in the middle of the many-match class, so neither percentile sits on
// the edge between two selectivities.
var smkdirOrder = []string{"markermid", "markerfew", "markermid", "markermany", "markermid"}

type localSpec struct {
	andrew andrew.Spec
	files  int // corpus size under /db
}

type localStack struct {
	spec  localSpec
	obsv  *obs.Observer
	store *cas.BlobStore
	cfs   *cas.FS
	sub   *timedFS // nil unless traced
	hfs   *hac.FS
	man   *corpus.Manifest
	raw   *cas.FS // the bare substrate with the same Andrew source, traced runs only

	reindexDur time.Duration
}

// andrewSource writes the Andrew source tree: spec.Dirs module
// directories under andrewRoot, each with spec.FilesPerDir files.
func andrewSource(fsys vfs.FileSystem, spec andrew.Spec) error {
	for d := 0; d < spec.Dirs; d++ {
		dir := vfs.Join(andrewRoot, fmt.Sprintf("mod%03d", d))
		if err := fsys.MkdirAll(dir); err != nil {
			return err
		}
		for f := 0; f < spec.FilesPerDir; f++ {
			if err := fsys.WriteFile(vfs.Join(dir, fmt.Sprintf("file%03d.c", f)), andrewFile(spec, d, f)); err != nil {
				return err
			}
		}
	}
	return nil
}

// andrewFile is the content of source file f of module d.
func andrewFile(spec andrew.Spec, d, f int) []byte {
	buf := make([]byte, spec.FileSize)
	head := fmt.Sprintf("/* andrew mod %d file %d */\nint main_%d_%d(void) {\n", d, f, d, f)
	line := []byte("x = compute(x, y); y = mix(y, z); /* work */\n")
	n := copy(buf, head)
	for i := n; i < len(buf); i++ {
		buf[i] = line[(i+d+f)%len(line)]
	}
	return buf
}

func bootLocal(spec localSpec, seed int64, traced bool) (*localStack, error) {
	s := &localStack{spec: spec, obsv: obs.Discard(), store: cas.NewStore()}
	s.cfs = cas.New(s.store)
	var under vfs.FileSystem = s.cfs
	if traced {
		s.obsv = obs.NewObserver()
		s.sub = &timedFS{under: s.cfs}
		under = s.sub
		s.raw = cas.New(cas.NewStore())
		if err := andrewSource(s.raw, spec.andrew); err != nil {
			return nil, err
		}
	}
	s.hfs = hac.New(under, hac.Options{Observer: s.obsv, BlobStore: s.store})
	if err := andrewSource(s.hfs, spec.andrew); err != nil {
		return nil, err
	}
	if err := s.hfs.MkdirAll(dbRoot); err != nil {
		return nil, err
	}
	var err error
	if s.man, err = corpus.Generate(s.hfs, dbRoot, corpus.Spec{Files: spec.files, MeanWords: 40, Seed: seed*1000 + 1}); err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := s.hfs.Reindex(dbRoot); err != nil {
		return nil, err
	}
	s.reindexDur = time.Since(start)
	for _, sd := range standing {
		if err := s.hfs.SemDir(sd[0], sd[1]); err != nil {
			return nil, fmt.Errorf("smkdir %s: %w", sd[0], err)
		}
	}
	return s, nil
}

func (s *localStack) storedPerUserByte() float64 {
	stored := float64(s.store.UniqueBytes()) + float64(s.hfs.Index().Stats().IndexBytes+s.hfs.MetadataBytes())
	return stored / float64(s.cfs.Manifest().LogicalBytes())
}

// localRun is the measured state of one drive of the cycle.
type localRun struct {
	s      *localStack
	res    *result
	rng    *rand.Rand
	o      *oracle
	mid    *bitset.Segmented // files that currently carry markermid
	aout   []byte            // the Make phase's link output, from an independent MemFS run
	cycles int
	image  string
	localSamples
}

// localSamples are the timings of the cycles since the last reset.
type localSamples struct {
	cycleS                                            []float64 // whole cycles, seconds
	andrewMS, rawMS, reindexMS, checkpointMS, readP50 []float64
	smkdir                                            map[string][]float64 // class → ms
}

func newLocalRun(s *localStack, cfg config, res *result) (*localRun, error) {
	r := &localRun{
		s: s, res: res,
		rng:   rand.New(rand.NewSource(cfg.seed * 7919)),
		o:     newOracle(s.man),
		image: filepath.Join(cfg.tmp, "local-volume.hac"),
	}
	r.mid = r.o.terms["markermid"].Clone()
	// The reference for the Make phase's output is the same benchmark on
	// vfs.MemFS, a substrate that shares no code with cas.FS or hac.FS.
	mem := vfs.New()
	if err := andrewSource(mem, s.spec.andrew); err != nil {
		return nil, err
	}
	if _, err := andrew.Run(mem, "/src", "/dst", s.spec.andrew); err != nil {
		return nil, err
	}
	var err error
	r.aout, err = mem.ReadFile("/dst/a.out")
	return r, err
}

// runAndrew runs the five phases on fsys into a fresh destination and
// byte-checks what Copy, Read and Make produced.
func (r *localRun) runAndrew(fsys vfs.FileSystem, dst string) (float64, error) {
	spec := r.s.spec.andrew
	out, err := andrew.Run(fsys, "/src", dst, spec)
	if err != nil {
		return 0, err
	}
	defer fsys.RemoveAll(dst)
	if want := spec.Dirs * spec.FilesPerDir; out.FilesRead != want {
		return 0, fmt.Errorf("andrew: read %d files, want %d", out.FilesRead, want)
	}
	aout, err := fsys.ReadFile(vfs.Join(dst, "a.out"))
	if err != nil || !bytes.Equal(aout, r.aout) {
		return 0, fmt.Errorf("andrew: a.out differs from the reference run (%v)", err)
	}
	d, f := r.rng.Intn(spec.Dirs), r.rng.Intn(spec.FilesPerDir)
	copied := vfs.Join(dst, andrewRoot[len("/src"):], fmt.Sprintf("mod%03d/file%03d.c", d, f))
	if data, err := fsys.ReadFile(copied); err != nil || !bytes.Equal(data, andrewFile(spec, d, f)) {
		return 0, fmt.Errorf("andrew: %s differs from its source (%v)", copied, err)
	}
	return ms(out.Total()), nil
}

// cycle runs one round of every operation.
func (r *localRun) cycle() {
	hfs, res := r.s.hfs, r.res
	n := r.cycles
	r.cycles++
	cycleStart := time.Now()

	total, err := r.runAndrew(hfs, fmt.Sprintf("/dst%d", n))
	res.check(err)
	r.andrewMS = append(r.andrewMS, total)
	if r.s.raw != nil {
		// The bare-substrate run is the ladder's comparison, not part of
		// the cycle: its time is taken back out of the cycle's.
		rawStart := time.Now()
		total, err := r.runAndrew(r.s.raw, fmt.Sprintf("/dst%d", n))
		res.check(err)
		r.rawMS = append(r.rawMS, total)
		cycleStart = cycleStart.Add(time.Since(rawStart))
	}

	for k, term := range smkdirOrder {
		dir := fmt.Sprintf("/q%d-%d-%s", n, k, term)
		start := time.Now()
		err := hfs.SemDir(dir, term)
		d := time.Since(start)
		want := r.o.terms[term]
		if term == "markermid" {
			want = r.mid
		}
		if err == nil {
			err = r.checkLinks(dir, want)
		}
		res.check(err)
		r.smkdir[term] = append(r.smkdir[term], ms(d))
		if err := hfs.RemoveAll(dir); err != nil {
			res.check(err)
		}
	}

	// The 1%-dirty batch flips markermid in the chosen files, then a
	// re-index folds the edits in and restores scope consistency.
	for i := 0; i < len(r.o.files)/100; i++ {
		id := uint64(r.rng.Intn(len(r.o.files)))
		res.check(r.flipMid(id))
	}
	start := time.Now()
	_, err = hfs.Reindex(dbRoot)
	r.reindexMS = append(r.reindexMS, ms(time.Since(start)))
	if err == nil {
		err = r.checkLinks("/standing-mid", r.mid)
	}
	res.check(err)

	start = time.Now()
	err = r.checkpoint()
	r.checkpointMS = append(r.checkpointMS, ms(time.Since(start)))
	res.check(err)

	// The read batch cycles through a small set of deep paths, so it
	// times resolving and reading them warm: the path length of the
	// software, not the sandbox's memory latency of the moment.
	spec := r.s.spec.andrew
	lat := make([]float64, readBatch)
	err = nil
	for i := range lat {
		k := (n*7 + i) % readSet
		d, f := k%spec.Dirs, k%spec.FilesPerDir
		p := vfs.Join(andrewRoot, fmt.Sprintf("mod%03d/file%03d.c", d, f))
		start := time.Now()
		data, rerr := hfs.ReadFile(p)
		lat[i] = ms(time.Since(start))
		if rerr != nil || !bytes.Equal(data, andrewFile(spec, d, f)) {
			err = fmt.Errorf("read %s: wrong content (%v)", p, rerr)
		}
	}
	res.check(err)
	r.readP50 = append(r.readP50, percentile(lat, 0.5))
	r.cycleS = append(r.cycleS, time.Since(cycleStart).Seconds())
}

// checkLinks asserts the semantic directory's links are exactly the
// files in want.
func (r *localRun) checkLinks(dir string, want *bitset.Segmented) error {
	targets, err := r.s.hfs.LinkTargets(dir)
	if err != nil {
		return err
	}
	return r.o.checkPaths("smkdir "+dir, targets, want, nil, true)
}

// flipMid rewrites one corpus file with markermid added or removed.
func (r *localRun) flipMid(id uint64) error {
	path := r.o.files[id].Path
	data, err := r.s.hfs.ReadFile(path)
	if err != nil {
		return err
	}
	if r.mid.Contains(id) {
		data = bytes.ReplaceAll(data, []byte("markermid "), nil)
		r.mid.Remove(id)
	} else {
		data = append(bytes.TrimRight(data, "\n"), []byte("markermid \n")...)
		r.mid.Add(id)
	}
	return r.s.hfs.WriteFile(path, data)
}

// checkpoint saves the volume image (format v4) to the scratch
// directory, without fsync: the sandbox's disk is not the subject.
func (r *localRun) checkpoint() error {
	f, err := os.Create(r.image)
	if err != nil {
		return err
	}
	if err := r.s.hfs.SaveVolume(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// verifyImage loads the last checkpoint back and compares it with the
// live volume: same semantic directories, same links, same file bytes.
func (r *localRun) verifyImage() error {
	loaded, err := hac.LoadVolumeFile(r.image, hac.Options{Observer: obs.Discard()})
	if err != nil {
		return err
	}
	if got, want := loaded.SemanticDirs(), r.s.hfs.SemanticDirs(); len(got) != len(want) {
		return fmt.Errorf("checkpoint: %d semantic directories, volume has %d", len(got), len(want))
	}
	got, err := loaded.LinkTargets("/standing-mid")
	if err != nil {
		return err
	}
	if err := r.o.checkPaths("checkpoint /standing-mid", got, r.mid, nil, true); err != nil {
		return err
	}
	p := r.o.files[r.rng.Intn(len(r.o.files))].Path
	a, errA := loaded.ReadFile(p)
	b, errB := r.s.hfs.ReadFile(p)
	if err := errors.Join(errA, errB); err != nil || !bytes.Equal(a, b) {
		return fmt.Errorf("checkpoint: %s differs from the live volume (%v)", p, err)
	}
	return nil
}

// drive forgets earlier samples and runs cycles for d (at least one).
func (r *localRun) drive(d time.Duration) {
	r.localSamples = localSamples{smkdir: make(map[string][]float64)}
	for start := time.Now(); len(r.cycleS) == 0 || time.Since(start) < d; {
		r.cycle()
	}
}

// opsPerSec is the rate of the median cycle, which a stall of the
// sandbox during a few cycles does not move.
func (r *localRun) opsPerSec() float64 { return localOps / median(r.cycleS) }

func (r *localRun) searchLatencies() []float64 {
	var all []float64
	for _, v := range r.smkdir {
		all = append(all, v...)
	}
	return all
}

func localSpecFor(cfg config) localSpec {
	spec := localSpec{andrew: andrew.Spec{Dirs: 40, FilesPerDir: 25, FileSize: 4096, MakeRounds: 4}, files: cfg.scaled(10000)}
	if cfg.scale < 1 {
		spec.andrew.Dirs = 4
	}
	return spec
}

func runLocal(cfg config) (*result, error) {
	res := &result{Workload: "local-andrew-smkdir", Values: map[string]float64{}}
	spec := localSpecFor(cfg)
	measured := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		var s *localStack
		err := timeSetup(res, func() (err error) {
			s = nil
			s, err = bootLocal(spec, cfg.seed, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		r, err := newLocalRun(s, cfg, res)
		if err != nil {
			return nil, err
		}
		r.drive(cfg.warm())
		r.drive(measured)
		res.check(r.verifyImage())
		res.set("ops_per_s", r.opsPerSec())
		all := r.searchLatencies()
		res.set("search_p50_ms", percentile(all, 0.50))
		res.set("search_p90_ms", percentile(all, 0.90))
		res.set("read_p50_ms", median(r.readP50))
		res.set("stored_bytes_per_user_byte", s.storedPerUserByte())
		return res, nil
	}

	// Untraced cycles first — the client-level timings and the rate the
	// traced cycles are compared with — then traced ones and the ladder.
	plain, err := bootLocal(spec, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	r, err := newLocalRun(plain, cfg, res)
	if err != nil {
		return nil, err
	}
	r.drive(cfg.warm())
	m := startMeter()
	r.drive(measured * untracedWindows / numWindows)
	m.stop(res, len(r.cycleS)*localOps)
	res.check(r.verifyImage())
	res.set("client.andrew_total_ms", median(r.andrewMS))
	res.set("client.smkdir_few_p50_ms", median(r.smkdir["markerfew"]))
	res.set("client.smkdir_many_p50_ms", median(r.smkdir["markermany"]))
	res.set("client.reindex_dirty_ms", median(r.reindexMS))
	res.set("client.checkpoint_ms", median(r.checkpointMS))
	res.set("client.search_p99_ms", percentile(r.searchLatencies(), 0.99))
	res.set("hac.links_per_s", ratio(float64(r.o.terms["markermany"].Len()), median(r.smkdir["markermany"])/1000))

	s, err := bootLocal(spec, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	t, err := newLocalRun(s, cfg, res)
	if err != nil {
		return nil, err
	}
	t.drive(cfg.warm())
	before, calls, busy := readCounters(s.obsv), s.sub.calls.Load(), s.sub.busy.Load()
	t.drive(measured * tracedWindows / numWindows)
	c := readCounters(s.obsv).delta(before)
	var inCycles float64
	for _, d := range t.cycleS {
		inCycles += d
	}
	res.set("obs.trace_overhead_pct", ratio(r.opsPerSec()-t.opsPerSec(), r.opsPerSec())*100)
	res.set("hac.andrew_slowdown_pct", (ratio(median(t.andrewMS), median(t.rawMS))-1)*100)
	res.set("substrate.calls_per_hac_op", ratio(float64(s.sub.calls.Load()-calls), float64(len(t.cycleS)*localOps)))
	res.set("substrate.busy_share", ratio(float64(s.sub.busy.Load()-busy), inCycles*float64(time.Second)))

	reqs := make([]searchReq, ladderSample)
	for i := range reqs {
		reqs[i] = searchReq{smkdirOrder[i%len(smkdirOrder)], "/"}
	}
	indexRungs(res, s.hfs.Index(), reqs)
	indexCounts(res, []*index.Index{s.hfs.Index()}, c)
	res.set("index.reindex_docs_per_s", ratio(float64(spec.files), s.reindexDur.Seconds()))
	res.set("hac.sync_path_us", p50us(30, func(int) { s.hfs.Sync("/standing-mid") }))
	casRungs(res, s.store, s.cfs, t.rng)
	return res, nil
}
