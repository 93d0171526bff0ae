package main

import (
	"bytes"
	"fmt"

	"hacfs/internal/bitset"
	"hacfs/internal/corpus"
	"hacfs/internal/query"
	"hacfs/internal/vfs"
)

// oracle knows the answer to every query the benchmark issues. It is
// built from corpus.Manifest alone — which files carry which planted
// marker and topic term — and evaluates composite queries with the
// reference evaluator query.Eval over its own numbering of the files,
// so it shares no index, planner or path code with the system under
// test. It is read-only once built, so clients share it without locks.
type oracle struct {
	files  []oracleFile
	number map[string]uint64 // path → position in files
	terms  map[string]*bitset.Segmented
	all    *bitset.Segmented
	scopes map[string]*bitset.Segmented // path prefix → files under it
}

// oracleFile is one generated file and its number within its manifest,
// which corpus.Generate writes into the file's first lines.
type oracleFile struct {
	corpus.FileMeta
	n int
}

// newOracle numbers the files of the given manifests consecutively; a
// cluster's oracle is the single volume holding the union corpus.
func newOracle(mans ...*corpus.Manifest) *oracle {
	o := &oracle{
		number: make(map[string]uint64),
		terms:  make(map[string]*bitset.Segmented),
		all:    bitset.NewSegmented(),
		scopes: make(map[string]*bitset.Segmented),
	}
	add := func(term string, paths []string) {
		set := o.terms[term]
		if set == nil {
			set = bitset.NewSegmented()
			o.terms[term] = set
		}
		for _, p := range paths {
			set.Add(o.number[p])
		}
	}
	for _, m := range mans {
		for n, f := range m.Files {
			id := uint64(len(o.files))
			o.number[f.Path] = id
			o.files = append(o.files, oracleFile{f, n})
			o.all.Add(id)
		}
		for term, paths := range m.MarkerFiles {
			add(term, paths)
		}
		for topic, paths := range m.TopicFiles {
			add(m.TopicTerm[topic], paths)
		}
	}
	return o
}

// addScope precomputes the set of files under prefix, so expect can be
// called concurrently afterwards.
func (o *oracle) addScope(prefix string) {
	set := bitset.NewSegmented()
	for id, f := range o.files {
		if vfs.HasPrefix(f.Path, prefix) {
			set.Add(uint64(id))
		}
	}
	o.scopes[prefix] = set
}

// query.Env over the manifest. Terms the corpus never planted (the
// nonce of a unique query) match nothing; the benchmark issues no
// prefix, fuzzy or dir: leaves against the oracle.
func (o *oracle) Term(w string) (*bitset.Segmented, error) {
	if set := o.terms[w]; set != nil {
		return set.Clone(), nil
	}
	return bitset.NewSegmented(), nil
}
func (o *oracle) Prefix(string) (*bitset.Segmented, error)        { return bitset.NewSegmented(), nil }
func (o *oracle) Fuzzy(string) (*bitset.Segmented, error)         { return bitset.NewSegmented(), nil }
func (o *oracle) DirRef(*query.DirRef) (*bitset.Segmented, error) { return bitset.NewSegmented(), nil }
func (o *oracle) Universe() (*bitset.Segmented, error)            { return o.all.Clone(), nil }

// expect returns the files that match q under scope ("/" or a prefix
// registered with addScope).
func (o *oracle) expect(q, scope string) (*bitset.Segmented, error) {
	ast, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	set, err := query.Eval(ast, o)
	if err != nil {
		return nil, err
	}
	if scope != "/" && scope != "" {
		under, ok := o.scopes[scope]
		if !ok {
			return nil, fmt.Errorf("oracle: scope %s not registered", scope)
		}
		set.And(under)
	}
	return set, nil
}

// checkPaths verifies a search answer against want. The count is
// always checked; with full set, so is every path: each is a file the
// oracle expects and none appears twice (so none is missing either).
// extra holds expected paths outside the manifest — files the workload
// wrote itself.
func (o *oracle) checkPaths(q string, got []string, want *bitset.Segmented, extra map[string]bool, full bool) error {
	if n := want.Len() + len(extra); len(got) != n {
		return fmt.Errorf("search %q: %d results, oracle expects %d", q, len(got), n)
	}
	if !full {
		return nil
	}
	seen := bitset.NewSegmented()
	seenExtra := make(map[string]bool, len(extra))
	for _, p := range got {
		if extra[p] {
			seenExtra[p] = true
			continue
		}
		id, ok := o.number[p]
		if !ok || !want.Contains(id) {
			return fmt.Errorf("search %q: unexpected result %s", q, p)
		}
		seen.Add(id)
	}
	if seen.Len()+len(seenExtra) != len(got) {
		return fmt.Errorf("search %q: duplicate results", q)
	}
	return nil
}

// checkFile verifies a whole-file read of a corpus file: its length and
// the header line corpus.Generate stamps with the file's own number.
func (o *oracle) checkFile(path string, data []byte) error {
	id, ok := o.number[path]
	if !ok {
		return fmt.Errorf("read %s: not a corpus file", path)
	}
	f := o.files[id]
	if len(data) != f.Bytes {
		return fmt.Errorf("read %s: %d bytes, manifest says %d", path, len(data), f.Bytes)
	}
	head := data
	if len(head) > 64 {
		head = head[:64]
	}
	if stamp := fmt.Sprintf(" %d\n", f.n); !bytes.Contains(head, []byte(stamp)) {
		return fmt.Errorf("read %s: header does not carry file number %d", path, f.n)
	}
	return nil
}
