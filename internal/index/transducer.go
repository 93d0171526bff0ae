package index

import (
	"bytes"
	"strings"

	"hacfs/internal/vfs"
)

// A Transducer extracts attribute terms from a document, in the spirit
// of the Semantic File System's transducers (discussed in §5 of the
// paper): beyond the plain words produced by the tokenizer, a
// transducer can emit typed attribute terms such as "from:alice" or
// "ext:eml" that queries can then use directly.
//
// Attribute terms deliberately contain a colon, which the tokenizer
// never emits, so they cannot collide with content words.
type Transducer func(path string, content []byte) []string

// RegisterTransducer attaches a transducer to a file extension (with
// the dot, e.g. ".eml"). The empty extension registers a transducer
// that runs on every document. It must be called before any documents
// are indexed: registering late would leave the
// existing documents silently missing the new attribute terms, so once
// the store is non-empty it fails with a *vfs.PathError wrapping
// ErrNotEmpty.
func (ix *Index) RegisterTransducer(ext string, t Transducer) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.totalSlots > 0 {
		return &vfs.PathError{Op: "registertransducer", Path: "index", Err: ErrNotEmpty}
	}
	ix.registerTransducerLocked(ext, t)
	return nil
}

// registerTransducerLocked installs the transducer without the
// empty-store check; LoadIndex uses it to attach transducers to a
// freshly decoded image before handing the index out.
func (ix *Index) registerTransducerLocked(ext string, t Transducer) {
	if ix.transducers == nil {
		ix.transducers = make(map[string][]Transducer)
	}
	ix.transducers[strings.ToLower(ext)] = append(ix.transducers[strings.ToLower(ext)], t)
}

// applyTransducers collects attribute terms for one document. Caller
// must not hold ix.mu (transducers are read under the lock, run
// outside it).
func (ix *Index) applyTransducers(path string, content []byte) []string {
	ix.mu.RLock()
	if ix.transducers == nil {
		ix.mu.RUnlock()
		return nil
	}
	ext := strings.ToLower(pathExt(path))
	ts := make([]Transducer, 0, 4)
	ts = append(ts, ix.transducers[""]...)
	if ext != "" {
		ts = append(ts, ix.transducers[ext]...)
	}
	ix.mu.RUnlock()

	var out []string
	for _, t := range ts {
		out = append(out, t(path, content)...)
	}
	return out
}

func pathExt(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		switch p[i] {
		case '.':
			return p[i:]
		case '/':
			return ""
		}
	}
	return ""
}

// EmailTransducer extracts from:, to: and subject: attributes from
// RFC-822-style headers ("from alice" or "From: alice" on a line of its
// own before the first blank line).
func EmailTransducer(path string, content []byte) []string {
	var out []string
	for _, line := range bytes.Split(content, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			break // end of headers
		}
		for _, h := range []string{"from", "to", "subject"} {
			rest, ok := headerValue(line, h)
			if !ok {
				continue
			}
			for _, w := range Tokenize(rest) {
				out = append(out, h+":"+w)
			}
		}
	}
	return out
}

// headerValue matches "name value" or "Name: value" at the start of a
// line, case-insensitively.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name)+1 {
		return nil, false
	}
	if !strings.EqualFold(string(line[:len(name)]), name) {
		return nil, false
	}
	rest := line[len(name):]
	switch rest[0] {
	case ' ', '\t':
		return rest[1:], true
	case ':':
		return bytes.TrimLeft(rest[1:], " \t"), true
	}
	return nil, false
}

// PathTransducer emits attributes derived from the document's path:
// ext:<extension> and name:<basename words>. Register it under the
// empty extension to annotate every document.
func PathTransducer(path string, _ []byte) []string {
	out := []string{}
	if ext := pathExt(path); ext != "" {
		out = append(out, "ext:"+strings.ToLower(ext[1:]))
	}
	base := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		base = path[i+1:]
	}
	for _, w := range Tokenize([]byte(base)) {
		out = append(out, "name:"+w)
	}
	return out
}

// SourceTransducer extracts crude structural attributes from C-like
// source files: include:<header> for #include lines and lang:c.
func SourceTransducer(path string, content []byte) []string {
	out := []string{"lang:c"}
	for _, line := range bytes.Split(content, []byte{'\n'}) {
		trimmed := bytes.TrimSpace(line)
		if !bytes.HasPrefix(trimmed, []byte("#include")) {
			continue
		}
		for _, w := range Tokenize(trimmed[len("#include"):]) {
			out = append(out, "include:"+w)
		}
	}
	return out
}
