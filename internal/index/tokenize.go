package index

import (
	"sort"
	"strings"
	"unicode"
)

// Term length bounds: shorter terms are noise, longer ones are almost
// certainly binary garbage.
const (
	minTermLen = 2
	maxTermLen = 40
)

// ScanTerms is the default tokenizer: it splits content into maximal
// runs of letters and digits and passes each one, lowercased, to emit,
// in content order. Runs outside the length bounds are dropped. Every
// term is lowercased into the same buffer, so emit must copy what it
// keeps: the index copies a term only when it is new to the segment or
// document being built.
func ScanTerms(content []byte, emit func(term []byte)) {
	var buf [maxTermLen]byte
	start := -1
	for i := 0; i <= len(content); i++ {
		if i < len(content) && isTermByte(content[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if n := i - start; start >= 0 && n >= minTermLen && n <= maxTermLen {
			for j, b := range content[start:i] {
				if b >= 'A' && b <= 'Z' {
					b += 'a' - 'A'
				}
				buf[j] = b
			}
			emit(buf[:n])
		}
		start = -1
	}
}

// Tokenize returns the terms ScanTerms emits for content, one string
// each — for transducers and tests; the index scans.
func Tokenize(content []byte) []string {
	var out []string
	ScanTerms(content, func(term []byte) { out = append(out, string(term)) })
	return out
}

func isTermByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// normalizeTerm canonicalizes a query term the same way ScanTerms
// canonicalizes document terms.
func normalizeTerm(term string) string {
	return strings.ToLower(strings.TrimFunc(term, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}))
}

func sortStrings(s []string) { sort.Strings(s) }
