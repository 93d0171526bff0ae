package index

import (
	"testing"
	"testing/quick"

	"hacfs/internal/index/indextest"
)

func TestWithinOneEdit(t *testing.T) {
	yes := [][2]string{
		{"apple", "apple"},  // equal
		{"apple", "applee"}, // insertion at end
		{"apple", "aapple"}, // insertion at start
		{"apple", "aple"},   // deletion
		{"apple", "ample"},  // substitution
		{"apple", "papple"}, // insertion
		{"ab", "ba"},        // transposition
		{"apple", "aplpe"},  // transposition middle
		{"a", ""},           // deletion to empty
		{"x", "y"},          // substitution single char
	}
	no := [][2]string{
		{"apple", "applesx"}, // distance 2 (two insertions)
		{"apple", "apl"},     // two deletions
		{"apple", "orange"},
		{"ab", "cd"},     // two substitutions
		{"abcd", "badc"}, // two transpositions
		{"", "xy"},
		{"abc", "cba"}, // not adjacent swap
	}
	for _, c := range yes {
		if !withinOneEdit(c[0], c[1]) || !withinOneEdit(c[1], c[0]) {
			t.Errorf("withinOneEdit(%q, %q) = false, want true", c[0], c[1])
		}
	}
	for _, c := range no {
		if withinOneEdit(c[0], c[1]) || withinOneEdit(c[1], c[0]) {
			t.Errorf("withinOneEdit(%q, %q) = true, want false", c[0], c[1])
		}
	}
}

// Property: withinOneEdit agrees with a reference Damerau–Levenshtein
// implementation (restricted distance) for short strings.
func TestPropertyWithinOneEditMatchesReference(t *testing.T) {
	alphabet := []byte("abc")
	mk := func(seed []byte, maxLen int) string {
		out := make([]byte, 0, maxLen)
		for i, b := range seed {
			if i >= maxLen {
				break
			}
			out = append(out, alphabet[int(b)%len(alphabet)])
		}
		return string(out)
	}
	f := func(sa, sb []byte) bool {
		a, b := mk(sa, 5), mk(sb, 5)
		want := indextest.WithinOneEdit(a, b)
		return withinOneEdit(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupFuzzy(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("fingerprint"))
	ix.Add("/b", []byte("fingerprints")) // one insertion away
	ix.Add("/c", []byte("fingerpaint"))  // one substitution away
	ix.Add("/d", []byte("footprint"))    // far away

	got := ix.Snapshot().Paths(ix.Snapshot().LookupFuzzy("fingerprint"))
	want := map[string]bool{"/a": true, "/b": true, "/c": true}
	if len(got) != 3 {
		t.Fatalf("fuzzy matches = %v", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("unexpected fuzzy match %s", p)
		}
	}
	// Exact lookups stay exact.
	if got := ix.Snapshot().Lookup("fingerprint").Len(); got != 1 {
		t.Fatalf("exact matches = %d", got)
	}
	// Empty and unknown terms.
	if ix.Snapshot().LookupFuzzy("").Any() {
		t.Fatal("empty fuzzy term matched")
	}
	if ix.Snapshot().LookupFuzzy("zzzzzzz").Any() {
		t.Fatal("distant fuzzy term matched")
	}
}

func TestLookupFuzzyRespectsTombstones(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("typo"))
	ix.Add("/b", []byte("typos"))
	ix.Remove("/b")
	if got := ix.Snapshot().LookupFuzzy("typo").Len(); got != 1 {
		t.Fatalf("fuzzy after remove = %d, want 1", got)
	}
}
