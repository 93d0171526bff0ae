package index

// Approximate matching: Snapshot.LookupFuzzy returns the documents
// containing any term within edit distance 1 of the query term
// (insertion, deletion, substitution, or adjacent transposition), plus
// exact matches. This is what made Glimpse — the paper's CBA engine —
// distinctive; the query language spells it "~term".

// withinOneEdit reports whether a and b are equal or one
// Damerau–Levenshtein edit apart. It runs in O(len) with no
// allocation.
func withinOneEdit(a, b string) bool {
	la, lb := len(a), len(b)
	if la > lb {
		a, b, la, lb = b, a, lb, la
	}
	switch lb - la {
	case 0:
		// Same length: zero or one substitution, or one transposition.
		diff := -1
		for i := 0; i < la; i++ {
			if a[i] != b[i] {
				if diff >= 0 {
					// Second mismatch: only OK as the tail of an
					// adjacent transposition.
					if diff == i-1 && a[diff] == b[i] && a[i] == b[diff] {
						// Check the remainder is identical.
						return a[i+1:] == b[i+1:]
					}
					return false
				}
				diff = i
			}
		}
		return true
	case 1:
		// One insertion into a (the shorter) yields b.
		i, j := 0, 0
		skipped := false
		for i < la {
			if a[i] == b[j] {
				i++
				j++
				continue
			}
			if skipped {
				return false
			}
			skipped = true
			j++ // skip one byte of b
		}
		return true
	default:
		return false
	}
}
