package hac

// Model-based consistency checking (DESIGN.md §8). A randomized
// operation sequence — creates, writes, removes, renames, semantic
// directory edits, link edits, Sync, Reindex, save/crash/load cycles —
// is driven simultaneously against a HAC volume over a fault-injecting
// substrate (vfs.FaultFS) and a pure in-memory oracle that implements
// the paper's scope-consistency rules directly. After every step the
// harness asserts the three §2.3 invariants:
//
//	I1  transient links ⊆ the scope provided by the parent;
//	I2  every file matching the query, minus prohibited and permanent
//	    targets, is linked (transient completeness);
//	I3  prohibited targets never silently reappear.
//
// The oracle keeps the model deliberately simple: semantic directories
// live at the root with single-term queries and no dir: references, so
// the expected transient set is exactly {indexed files containing the
// term} − prohibited − permanent, where "indexed" means the state of
// the corpus at the last reindex (the paper's lazy data consistency).
// Within that restriction the check is total: the harness compares the
// complete classified link sets, which subsumes all three invariants,
// and additionally runs FS.CheckConsistency (I2/I4, no symlink in a
// semantic directory and the view's names) every step.
//
// When an injected fault makes an operation fail, the harness settles
// the volume (faults off, full Reindex — the paper's recovery story),
// re-learns the user-level state through the public API, and asserts
// that the settled volume again satisfies scope consistency exactly —
// so every fault is followed by a hard assertion, and prohibitions
// recorded before the fault must still be present afterwards.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// mcVocab is the closed vocabulary the oracle shares with the
// tokenizer: lowercase alphanumeric words, all within term bounds.
var mcVocab = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}

// mcDir is the oracle's view of one semantic directory.
type mcDir struct {
	query      string          // single term; "" = no query
	trans      map[string]bool // expected transient targets
	permanent  map[string]bool
	prohibited map[string]bool
}

func newMCDir() *mcDir {
	return &mcDir{
		trans:      map[string]bool{},
		permanent:  map[string]bool{},
		prohibited: map[string]bool{},
	}
}

// mcModel is the in-memory oracle.
type mcModel struct {
	files   map[string]string          // path → contents (current)
	indexed map[string]map[string]bool // path → term set at last reindex
	dirs    []string                   // syntactic directories under /docs (sorted, includes /docs)
	sem     map[string]*mcDir          // semantic directories (at root)
	nameSeq int                        // unique-name counter (survives crashes)
}

func newMCModel() *mcModel {
	return &mcModel{
		files:   map[string]string{},
		indexed: map[string]map[string]bool{},
		dirs:    []string{"/docs"},
		sem:     map[string]*mcDir{},
	}
}

func (m *mcModel) clone() *mcModel {
	c := newMCModel()
	for p, s := range m.files {
		c.files[p] = s
	}
	for p, ts := range m.indexed {
		nt := map[string]bool{}
		for t := range ts {
			nt[t] = true
		}
		c.indexed[p] = nt
	}
	c.dirs = append([]string(nil), m.dirs...)
	for d, md := range m.sem {
		nd := newMCDir()
		nd.query = md.query
		for t := range md.trans {
			nd.trans[t] = true
		}
		for t := range md.permanent {
			nd.permanent[t] = true
		}
		for t := range md.prohibited {
			nd.prohibited[t] = true
		}
		c.sem[d] = nd
	}
	c.nameSeq = m.nameSeq
	return c
}

func termsOf(content string) map[string]bool {
	ts := map[string]bool{}
	for _, w := range strings.Fields(content) {
		ts[w] = true
	}
	return ts
}

// reindex moves the oracle's indexed view to the current corpus and
// re-evaluates every semantic directory, mirroring FS.Reindex.
func (m *mcModel) reindex() {
	m.indexed = map[string]map[string]bool{}
	for p, content := range m.files {
		m.indexed[p] = termsOf(content)
	}
	m.reevalAll()
}

// reeval recomputes one directory's expected transient set from the
// indexed view — the paper's scope-consistency rule for a root-level
// directory whose scope is the whole volume.
func (m *mcModel) reeval(d *mcDir) {
	d.trans = map[string]bool{}
	if d.query == "" {
		return
	}
	for p, terms := range m.indexed {
		if terms[d.query] && !d.prohibited[p] && !d.permanent[p] {
			d.trans[p] = true
		}
	}
}

func (m *mcModel) reevalAll() {
	for _, d := range m.sem {
		m.reeval(d)
	}
}

// renamePath rewrites every occurrence of old → new (file rename).
func (m *mcModel) renamePath(oldPath, newPath string) {
	if c, ok := m.files[oldPath]; ok {
		delete(m.files, oldPath)
		m.files[newPath] = c
	}
	if ts, ok := m.indexed[oldPath]; ok {
		delete(m.indexed, oldPath)
		m.indexed[newPath] = ts
	}
	for _, d := range m.sem {
		renameKey(d.trans, oldPath, newPath)
		renameKey(d.permanent, oldPath, newPath)
		renameKey(d.prohibited, oldPath, newPath)
	}
}

// renamePrefix rewrites every path at or under oldPrefix (dir rename).
func (m *mcModel) renamePrefix(oldPrefix, newPrefix string) {
	rewrite := func(p string) (string, bool) {
		if p == oldPrefix {
			return newPrefix, true
		}
		if strings.HasPrefix(p, oldPrefix+"/") {
			return newPrefix + p[len(oldPrefix):], true
		}
		return p, false
	}
	remapStr := func(mp map[string]string) {
		for p, v := range mp {
			if np, ok := rewrite(p); ok {
				delete(mp, p)
				mp[np] = v
			}
		}
	}
	remapTerms := func(mp map[string]map[string]bool) {
		for p, v := range mp {
			if np, ok := rewrite(p); ok {
				delete(mp, p)
				mp[np] = v
			}
		}
	}
	remapStr(m.files)
	remapTerms(m.indexed)
	for i, d := range m.dirs {
		if nd, ok := rewrite(d); ok {
			m.dirs[i] = nd
		}
	}
	sort.Strings(m.dirs)
	for _, d := range m.sem {
		remapBool(d.trans, rewrite)
		remapBool(d.permanent, rewrite)
		remapBool(d.prohibited, rewrite)
	}
}

func remapBool(mp map[string]bool, rewrite func(string) (string, bool)) {
	for p := range mp {
		if np, ok := rewrite(p); ok {
			delete(mp, p)
			mp[np] = true
		}
	}
}

func renameKey(mp map[string]bool, oldKey, newKey string) {
	if mp[oldKey] {
		delete(mp, oldKey)
		mp[newKey] = true
	}
}

// mcHarness couples the system under test, the oracle, and the fault
// substrate.
type mcHarness struct {
	t     *testing.T
	rng   *rand.Rand
	fs    *FS
	fault *vfs.FaultFS // nil after a crash-recovery re-home
	m     *mcModel
	rate  float64 // error rate while faults are armed
	steps int
}

// newMCHarnessOn runs the walk over an arbitrary substrate — the same
// checks drive MemFS and the content-addressed cas.FS, which is exactly
// the substrate-equivalence claim of DESIGN.md §15.
func newMCHarnessOn(t *testing.T, seed int64, rate float64, inner vfs.FileSystem) *mcHarness {
	fault := vfs.NewFaultFS(inner, vfs.FaultConfig{Seed: seed, TornWrites: true})
	h := &mcHarness{
		t:     t,
		rng:   rand.New(rand.NewSource(seed)),
		fs:    New(fault, Options{}),
		fault: fault,
		m:     newMCModel(),
		rate:  rate,
	}
	// Seed corpus: a handful of files, then index.
	if err := h.fs.MkdirAll("/docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/docs/seed%d.txt", i)
		content := h.randContent()
		if err := h.fs.WriteFile(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
		h.m.files[p] = content
	}
	if _, err := h.fs.Reindex("/"); err != nil {
		t.Fatal(err)
	}
	h.m.reindex()
	// Two semantic directories from the start.
	h.opSemDir()
	h.opSemDir()
	h.assertConsistent("setup")
	fault.SetErrorRate(rate)
	return h
}

func (h *mcHarness) randContent() string {
	n := 1 + h.rng.Intn(4)
	words := make([]string, n)
	for i := range words {
		words[i] = mcVocab[h.rng.Intn(len(mcVocab))]
	}
	return strings.Join(words, " ")
}

func (h *mcHarness) randTerm() string { return mcVocab[h.rng.Intn(len(mcVocab))] }

func (h *mcHarness) randDir() string { return h.m.dirs[h.rng.Intn(len(h.m.dirs))] }

func (h *mcHarness) randFile() (string, bool) {
	if len(h.m.files) == 0 {
		return "", false
	}
	paths := make([]string, 0, len(h.m.files))
	for p := range h.m.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths[h.rng.Intn(len(paths))], true
}

func (h *mcHarness) randSem() (string, *mcDir, bool) {
	if len(h.m.sem) == 0 {
		return "", nil, false
	}
	names := make([]string, 0, len(h.m.sem))
	for d := range h.m.sem {
		names = append(names, d)
	}
	sort.Strings(names)
	d := names[h.rng.Intn(len(names))]
	return d, h.m.sem[d], true
}

func (h *mcHarness) freshName(prefix string) string {
	h.m.nameSeq++
	return fmt.Sprintf("%s%d", prefix, h.m.nameSeq)
}

// step runs one random operation and asserts consistency. Injected
// failures route through settle().
func (h *mcHarness) step() {
	h.steps++
	var err error
	var op string
	switch k := h.rng.Intn(100); {
	case k < 15:
		op = "writeNew"
		p := vfs.Join(h.randDir(), h.freshName("f")+".txt")
		content := h.randContent()
		if err = h.fs.WriteFile(p, []byte(content)); err == nil {
			h.m.files[p] = content
		}
	case k < 25:
		op = "overwrite"
		if p, ok := h.randFile(); ok {
			content := h.randContent()
			if err = h.fs.WriteFile(p, []byte(content)); err == nil {
				h.m.files[p] = content
			}
		}
	case k < 33:
		op = "removeFile"
		if p, ok := h.randFile(); ok {
			if err = h.fs.Remove(p); err == nil {
				delete(h.m.files, p)
			}
		}
	case k < 40:
		op = "renameFile"
		if p, ok := h.randFile(); ok {
			np := vfs.Join(h.randDir(), h.freshName("r")+".txt")
			if err = h.fs.Rename(p, np); err == nil {
				h.m.renamePath(p, np)
			}
		}
	case k < 44:
		op = "renameDir"
		err = h.opRenameDir()
	case k < 49:
		op = "mkdir"
		p := vfs.Join(h.randDir(), h.freshName("d"))
		if err = h.fs.Mkdir(p); err == nil {
			h.m.dirs = append(h.m.dirs, p)
			sort.Strings(h.m.dirs)
		}
	case k < 57:
		op = "semDir"
		err = h.opSemDir()
	case k < 65:
		op = "removeLink"
		err = h.opRemoveLink()
	case k < 72:
		op = "permanentLink"
		err = h.opPermanentLink()
	case k < 77:
		op = "markProhibited"
		if d, md, ok := h.randSem(); ok {
			target, tok := h.randFile()
			if !tok {
				break
			}
			if err = h.fs.MarkProhibited(d, target); err == nil {
				delete(md.trans, target)
				delete(md.permanent, target)
				md.prohibited[target] = true
			}
		}
	case k < 82:
		op = "unprohibit"
		err = h.opUnprohibit()
	case k < 90:
		op = "sync"
		if err = h.fs.Sync("/"); err == nil {
			h.m.reevalAll()
		}
	default:
		op = "reindex"
		if _, err = h.fs.Reindex("/"); err == nil {
			h.m.reindex()
		}
	}
	// Observation (settle + assertion) runs with faults quiesced, so
	// injected errors can only corrupt the volume, never the check.
	if h.fault != nil {
		h.fault.SetErrorRate(0)
	}
	if err != nil {
		h.settle(op, err)
	}
	h.assertConsistent(op)
	if h.fault != nil {
		h.fault.SetErrorRate(h.rate)
	}
}

// opSemDir creates a fresh semantic directory or re-queries an
// existing one (both through SemDir, the paper's smkdir).
func (h *mcHarness) opSemDir() error {
	var d string
	if h.rng.Intn(2) == 0 && len(h.m.sem) > 0 && len(h.m.sem) < 6 {
		d, _, _ = h.randSem()
	} else if len(h.m.sem) < 6 {
		d = "/" + h.freshName("s")
	} else {
		d, _, _ = h.randSem()
	}
	term := h.randTerm()
	if err := h.fs.SemDir(d, term); err != nil {
		return err
	}
	md, ok := h.m.sem[d]
	if !ok {
		md = newMCDir()
		h.m.sem[d] = md
	}
	md.query = term
	h.m.reeval(md)
	return nil
}

func (h *mcHarness) opRenameDir() error {
	// Pick a directory strictly under /docs so semantic dirs and the
	// corpus root stay put.
	var cands []string
	for _, d := range h.m.dirs {
		if d != "/docs" {
			cands = append(cands, d)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	src := cands[h.rng.Intn(len(cands))]
	// Destination parent must not be inside src.
	var parents []string
	for _, d := range h.m.dirs {
		if d != src && !strings.HasPrefix(d, src+"/") {
			parents = append(parents, d)
		}
	}
	dst := vfs.Join(parents[h.rng.Intn(len(parents))], h.freshName("d"))
	if err := h.fs.Rename(src, dst); err != nil {
		return err
	}
	h.m.renamePrefix(src, dst)
	return nil
}

// opRemoveLink removes one link (transient or permanent) from a
// semantic directory through the hierarchical interface; HAC must
// record a prohibition (§2.3).
func (h *mcHarness) opRemoveLink() error {
	d, md, ok := h.randSem()
	if !ok || len(md.trans)+len(md.permanent) == 0 {
		return nil
	}
	var targets []string
	for t := range md.trans {
		targets = append(targets, t)
	}
	for t := range md.permanent {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	target := targets[h.rng.Intn(len(targets))]
	// Find the physical link name through the public API.
	links, err := h.fs.Links(d)
	if err != nil {
		return err
	}
	name := ""
	for _, l := range links {
		if l.Target == target && l.Class != Prohibited {
			name = l.Name
		}
	}
	if name == "" {
		h.t.Fatalf("model target %s has no SUT link in %s", target, d)
	}
	if err := h.fs.Remove(vfs.Join(d, name)); err != nil {
		return err
	}
	delete(md.trans, target)
	delete(md.permanent, target)
	md.prohibited[target] = true
	return nil
}

// opPermanentLink adds a user symlink inside a semantic directory; HAC
// must classify it permanent and clear any prohibition.
func (h *mcHarness) opPermanentLink() error {
	d, md, ok := h.randSem()
	if !ok {
		return nil
	}
	target, tok := h.randFile()
	if !tok {
		return nil
	}
	if err := h.fs.Symlink(target, vfs.Join(d, h.freshName("u"))); err != nil {
		return err
	}
	delete(md.trans, target)
	delete(md.prohibited, target)
	md.permanent[target] = true
	return nil
}

func (h *mcHarness) opUnprohibit() error {
	d, md, ok := h.randSem()
	if !ok || len(md.prohibited) == 0 {
		return nil
	}
	var targets []string
	for t := range md.prohibited {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	target := targets[h.rng.Intn(len(targets))]
	if err := h.fs.Unprohibit(d, target); err != nil {
		return err
	}
	delete(md.prohibited, target)
	// Unprohibit re-evaluates the directory immediately.
	h.m.reeval(md)
	return nil
}

// settle recovers from a failed operation: faults off, a full Reindex
// (the paper: "at reindexing time, all scope and data inconsistencies
// are settled"), then the oracle re-learns user-level state through
// the public API. Prohibitions recorded before the fault must survive
// — a fault may abort an edit, but must never silently resurrect a
// prohibited link (I3 across failures).
func (h *mcHarness) settle(op string, opErr error) {
	h.t.Helper()
	if !errors.Is(opErr, vfs.ErrInjected) && !errors.Is(opErr, vfs.ErrCrashed) {
		h.t.Fatalf("step %d (%s): non-injected failure: %v", h.steps, op, opErr)
	}
	before := map[string]map[string]bool{}
	for d, md := range h.m.sem {
		before[d] = map[string]bool{}
		for t := range md.prohibited {
			before[d][t] = true
		}
	}
	if _, err := h.fs.Reindex("/"); err != nil {
		h.t.Fatalf("step %d (%s): settle reindex failed: %v", h.steps, op, err)
	}
	h.relearn()
	// I3 across the fault: the failed op may legitimately have removed
	// a prohibition only if it was an op that does so explicitly.
	explicit := op == "unprohibit" || op == "permanentLink" || op == "renameFile" || op == "renameDir"
	if !explicit {
		for d, md := range h.m.sem {
			for t := range before[d] {
				if !md.prohibited[t] {
					h.t.Fatalf("step %d (%s): prohibition %s in %s lost across fault", h.steps, op, t, d)
				}
			}
		}
	}
}

// relearn rebuilds the oracle's user-level state from the SUT's public
// API after a fault, then derives the expected transient sets. The
// volume has just been reindexed, so current files are the indexed
// view.
func (h *mcHarness) relearn() {
	h.t.Helper()
	m := newMCModel()
	m.nameSeq = h.m.nameSeq
	m.dirs = nil
	err := vfs.Walk(h.fs, "/docs", func(p string, info vfs.Info) error {
		switch info.Type {
		case vfs.TypeDir:
			m.dirs = append(m.dirs, p)
		case vfs.TypeFile:
			data, err := h.fs.ReadFile(p)
			if err != nil {
				return err
			}
			m.files[p] = string(data)
		}
		return nil
	})
	if err != nil {
		h.t.Fatalf("relearn walk: %v", err)
	}
	sort.Strings(m.dirs)
	for _, d := range h.fs.SemanticDirs() {
		md := newMCDir()
		q, err := h.fs.Query(d)
		if err != nil {
			h.t.Fatalf("relearn query of %s: %v", d, err)
		}
		md.query = q
		links, err := h.fs.Links(d)
		if err != nil {
			h.t.Fatalf("relearn links of %s: %v", d, err)
		}
		for _, l := range links {
			switch l.Class {
			case Permanent:
				md.permanent[l.Target] = true
			case Prohibited:
				md.prohibited[l.Target] = true
			}
		}
		m.sem[d] = md
	}
	m.reindex() // indexed := files, expected transients derived
	h.m = m
}

// assertConsistent is the heart of the harness: the complete
// classified link state of every semantic directory must equal the
// oracle's, and the volume's own audit must be clean.
func (h *mcHarness) assertConsistent(op string) {
	h.t.Helper()
	if problems := h.fs.CheckConsistency(); len(problems) > 0 {
		h.t.Fatalf("step %d (%s): CheckConsistency: %v", h.steps, op, problems)
	}
	sutSem := h.fs.SemanticDirs()
	wantSem := make([]string, 0, len(h.m.sem))
	for d := range h.m.sem {
		wantSem = append(wantSem, d)
	}
	sort.Strings(wantSem)
	if !reflect.DeepEqual(sutSem, wantSem) {
		h.t.Fatalf("step %d (%s): semantic dirs = %v, want %v", h.steps, op, sutSem, wantSem)
	}
	for d, md := range h.m.sem {
		links, err := h.fs.Links(d)
		if err != nil {
			h.t.Fatalf("step %d (%s): Links(%s): %v", h.steps, op, d, err)
		}
		gotTrans, gotPerm, gotProh := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, l := range links {
			switch l.Class {
			case Transient:
				gotTrans[l.Target] = true
			case Permanent:
				gotPerm[l.Target] = true
			case Prohibited:
				gotProh[l.Target] = true
			}
		}
		// I2: transient completeness (and no extras).
		if !reflect.DeepEqual(gotTrans, md.trans) {
			h.t.Fatalf("step %d (%s): %s transient = %v, want %v", h.steps, op, d, keys(gotTrans), keys(md.trans))
		}
		if !reflect.DeepEqual(gotPerm, md.permanent) {
			h.t.Fatalf("step %d (%s): %s permanent = %v, want %v", h.steps, op, d, keys(gotPerm), keys(md.permanent))
		}
		// I3: prohibited exactly as recorded, and never linked.
		if !reflect.DeepEqual(gotProh, md.prohibited) {
			h.t.Fatalf("step %d (%s): %s prohibited = %v, want %v", h.steps, op, d, keys(gotProh), keys(md.prohibited))
		}
		for t := range gotProh {
			if gotTrans[t] || gotPerm[t] {
				h.t.Fatalf("step %d (%s): %s: prohibited %s is linked", h.steps, op, d, t)
			}
		}
		// I1: every transient target lies in the parent-provided scope
		// (the indexed corpus, for a root-level directory).
		for t := range gotTrans {
			if _, ok := h.m.indexed[t]; !ok {
				h.t.Fatalf("step %d (%s): %s: transient %s outside indexed scope", h.steps, op, d, t)
			}
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mcSeeds are the per-run seeds, 1..32.
var mcSeeds = func() []int64 {
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}()

const mcStepsPerSeed = 250

// mcSubstrates names the substrate families the fault-free and
// injected-error walks run over: the MemFS reference and the
// content-addressed cas.FS.
var mcSubstrates = []struct {
	name string
	mk   func() vfs.FileSystem
}{
	{"memfs", func() vfs.FileSystem { return vfs.New() }},
	{"cas", func() vfs.FileSystem { return cas.New(nil) }},
}

// TestModelCheckFaultFree pins the oracle itself: with no faults the
// SUT and the model must stay in lock-step for the whole walk.
func TestModelCheckFaultFree(t *testing.T) {
	for _, sub := range mcSubstrates {
		for _, seed := range mcSeeds {
			sub, seed := sub, seed
			t.Run(fmt.Sprintf("%s/seed%d", sub.name, seed), func(t *testing.T) {
				t.Parallel()
				h := newMCHarnessOn(t, seed, 0, sub.mk())
				for i := 0; i < mcStepsPerSeed; i++ {
					h.step()
				}
			})
		}
	}
}

// TestModelCheckWithInjectedErrors runs the same walk with a 5% error
// rate on every substrate operation: each failed op is followed by a
// settle (Reindex) and a full re-assertion, so scope consistency is
// proven restorable after every injected fault.
func TestModelCheckWithInjectedErrors(t *testing.T) {
	for _, sub := range mcSubstrates {
		for _, seed := range mcSeeds {
			sub, seed := sub, seed
			t.Run(fmt.Sprintf("%s/seed%d", sub.name, seed), func(t *testing.T) {
				t.Parallel()
				h := newMCHarnessOn(t, seed, 0.05, sub.mk())
				for i := 0; i < mcStepsPerSeed; i++ {
					h.step()
				}
				st := h.fault.Stats()
				if st.Ops == 0 {
					t.Fatal("fault substrate counted no operations")
				}
				if st.Injected == 0 {
					t.Fatalf("no faults injected over %d substrate ops at 5%%", st.Ops)
				}
				var perOp uint64
				for _, n := range st.Errors {
					perOp += n
				}
				if perOp != st.Injected {
					t.Fatalf("per-op injected counters (%d) disagree with total (%d)", perOp, st.Injected)
				}
			})
		}
	}
}

// TestModelCheckCrashRecovery injects a crash at every save point: the
// volume is saved, a torn copy of that save is proven unloadable, the
// live store is frozen mid-sequence (ErrCrashed), and recovery goes
// through LoadVolume + Reindex on the last good image. The walk then
// continues on the recovered volume, with the oracle rolled back to
// its state at the save — so all three invariants are re-proven after
// every crash, including the lost-window semantics. Only the cas arm
// runs: a volume is saved on the content-addressed substrate, MemFS is
// not saveable.
func TestModelCheckCrashRecovery(t *testing.T) {
	const savePointEvery = 25
	for _, seed := range mcSeeds {
		seed := seed
		t.Run(fmt.Sprintf("cas/seed%d", seed), func(t *testing.T) {
			t.Parallel()
			h := newMCHarnessOn(t, seed, 0, cas.New(nil))
			for i := 0; i < mcStepsPerSeed; i++ {
				h.step()
				if i%savePointEvery != savePointEvery-1 {
					continue
				}
				// Save point: capture a good image and the oracle.
				var good bytes.Buffer
				if err := h.fs.SaveVolume(&good); err != nil {
					t.Fatalf("step %d: save: %v", i, err)
				}
				saved := h.m.clone()

				// A crash tears the concurrent save at a random point;
				// the torn image must never load.
				var torn bytes.Buffer
				limit := h.rng.Intn(good.Len())
				if err := h.fs.SaveVolume(&vfs.CrashWriter{W: &torn, Limit: limit}); err == nil {
					t.Fatalf("step %d: torn save (limit %d) reported success", i, limit)
				}
				if _, err := LoadVolume(bytes.NewReader(torn.Bytes()), Options{}); err == nil {
					t.Fatalf("step %d: torn image (limit %d of %d) loaded", i, limit, good.Len())
				}

				// The machine dies a few operations later: every
				// subsequent substrate op must fail, losing the window
				// since the save.
				if h.fault != nil {
					h.fault.CrashAfter(uint64(1 + h.rng.Intn(20)))
					for h.fault != nil && !h.fault.Crashed() {
						p := vfs.Join("/docs", h.freshName("w")+".txt")
						if err := h.fs.WriteFile(p, []byte(h.randContent())); err != nil {
							if !errors.Is(err, vfs.ErrCrashed) && !errors.Is(err, vfs.ErrInjected) {
								t.Fatalf("step %d: pre-crash write: %v", i, err)
							}
							break
						}
					}
					if err := h.fs.Sync("/"); err == nil {
						t.Fatalf("step %d: Sync succeeded on crashed store", i)
					}
				}

				// Recovery: LoadVolume + Reindex from the good image.
				recovered, err := LoadVolume(bytes.NewReader(good.Bytes()), Options{})
				if err != nil {
					t.Fatalf("step %d: recovery load: %v", i, err)
				}
				if _, err := recovered.Reindex("/"); err != nil {
					t.Fatalf("step %d: recovery reindex: %v", i, err)
				}
				h.fs = recovered
				h.fault = nil // recovered volume runs on a fresh substrate of the image's choosing
				h.m = saved
				// The restored volume was fully reindexed on load, so
				// the oracle's indexed view catches up to its files.
				h.m.reindex()
				h.assertConsistent("recovery")
			}
		})
	}
}
