// Package indextest holds the naive reference the index and the query
// planner are checked against: a map from path to the terms the document
// at that path contains, every lookup a scan. It shares no
// code with internal/index or internal/bitset — no segments, no IDs, no
// tokenizer (content is split on white space, so callers write
// lower-case words the real tokenizer keeps whole) — which is the point.
package indextest

import "strings"

// Model is the reference corpus: path → the document's words.
type Model map[string][]string

// Add indexes content under path, replacing any document already there.
func (m Model) Add(path, content string) { m[path] = strings.Fields(content) }

// Rename moves the document at oldPath to newPath, replacing whatever
// was indexed there.
func (m Model) Rename(oldPath, newPath string) {
	if terms, ok := m[oldPath]; ok && oldPath != newPath {
		delete(m, oldPath)
		m[newPath] = terms
	}
}

// RenamePrefix moves every document at or beneath oldRoot to the same
// place beneath newRoot.
func (m Model) RenamePrefix(oldRoot, newRoot string) {
	for _, p := range m.Under(oldRoot) {
		m.Rename(p, newRoot+p[len(oldRoot):])
	}
}

// Clone returns an independent copy (word lists are shared: they are
// replaced, never edited).
func (m Model) Clone() Model {
	out := make(Model, len(m))
	for p, terms := range m {
		out[p] = terms
	}
	return out
}

// Match returns the paths of the documents holding at least one term
// accepted by pred. Like every result of the model it is in no
// particular order.
func (m Model) Match(pred func(term string) bool) []string {
	var out []string
	for p, terms := range m {
		for _, t := range terms {
			if pred(t) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// Term returns the documents containing word.
func (m Model) Term(word string) []string {
	return m.Match(func(t string) bool { return t == word })
}

// Prefix returns the documents containing a term that starts with prefix.
func (m Model) Prefix(prefix string) []string {
	return m.Match(func(t string) bool { return strings.HasPrefix(t, prefix) })
}

// Fuzzy returns the documents containing a term within one edit of word.
func (m Model) Fuzzy(word string) []string {
	return m.Match(func(t string) bool { return WithinOneEdit(word, t) })
}

// All returns every path.
func (m Model) All() []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	return out
}

// Under returns the paths at or beneath root.
func (m Model) Under(root string) []string { return Under(m.All(), root) }

// Under filters paths to those at or beneath root ("/" admits all).
func Under(paths []string, root string) []string {
	out := []string{}
	for _, p := range paths {
		if root == "/" || p == root || strings.HasPrefix(p, root+"/") {
			out = append(out, p)
		}
	}
	return out
}

// WithinOneEdit reports whether the optimal-string-alignment distance
// between a and b (insertions, deletions, substitutions, adjacent
// transpositions) is at most 1, by the textbook O(len²) table.
func WithinOneEdit(a, b string) bool {
	if gap := len(a) - len(b); gap > 1 || gap < -1 {
		return false // every edit changes the length by at most one
	}
	w := len(b) + 1 // d[i][j] lives at cell(i, j)
	d := make([]int, (len(a)+1)*w)
	cell := func(i, j int) *int { return &d[i*w+j] }
	for i := 0; i <= len(a); i++ {
		*cell(i, 0) = i
	}
	for j := 0; j <= len(b); j++ {
		*cell(0, j) = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := min(*cell(i-1, j)+1, *cell(i, j-1)+1, *cell(i-1, j-1)+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				v = min(v, *cell(i-2, j-2)+1)
			}
			*cell(i, j) = v
		}
	}
	return *cell(len(a), len(b)) <= 1
}
