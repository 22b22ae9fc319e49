package blockpage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"regexp"
)

// Render produces the blockpage body a censor with the given template ID
// serves. The authority marker is what fingerprints key on.
func Render(id int, country string) []byte {
	// Vary page size by template so the length heuristic sees a spread.
	pad := (id*577 + 211) % 1800
	return fmt.Appendf(nil,
		"<html><head><title>Access Denied</title></head><body>"+
			"<h1>This content is not available in your region.</h1>"+
			"<p>Blocked by order of authority %s-FILTER-%04d.</p>"+
			"<!-- %s --></body></html>",
		country, id, filler(pad))
}

func filler(n int) string {
	const chunk = "filter-notice "
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, chunk...)
	}
	return string(out[:n])
}

// markerPrefix starts every template's authority marker: template id's
// signature is the literal FILTER-%04d.
var markerPrefix = []byte("FILTER-")

// genericPattern is a generic signature shared by many real-world
// products. It is compiled once; a Regexp is safe for concurrent use.
var genericPattern = regexp.MustCompile(`(?i)<title>Access Denied</title>.*not available in your region`)

// FingerprintDB is the corpus of known blockpage signatures: one literal
// FILTER-%04d marker per known template plus, unless the DB is Empty, the
// generic pattern.
type FingerprintDB struct {
	known   []bool // known[id]: template id's marker is catalogued
	generic bool
}

// pcgStreamBlock is the fingerprint-corpus RNG stream word ("block" in
// ASCII); stream words are module-unique, enforced by churnvet.
const pcgStreamBlock = 0x626c6f636b // "block"

// NewFingerprintDB builds a corpus covering a fraction of the template IDs
// in [0, numTemplates). Coverage below 1 models censors whose pages the
// public corpora have not catalogued. Deterministic per seed.
func NewFingerprintDB(numTemplates int, coverage float64, seed uint64) *FingerprintDB {
	rng := rand.New(rand.NewPCG(seed, pcgStreamBlock))
	db := &FingerprintDB{known: make([]bool, max(numTemplates, 0)), generic: true}
	for id := range db.known {
		if rng.Float64() < coverage {
			db.known[id] = true
		}
	}
	return db
}

// Empty returns a DB with no signatures at all (length heuristic only).
func Empty() *FingerprintDB {
	return &FingerprintDB{}
}

// Knows reports whether template id is in the corpus.
func (db *FingerprintDB) Knows(id int) bool { return id >= 0 && id < len(db.known) && db.known[id] }

// Len returns the number of catalogued signatures.
func (db *FingerprintDB) Len() int {
	n := 0
	if db.generic {
		n++
	}
	for _, k := range db.known {
		if k {
			n++
		}
	}
	return n
}

// Match reports whether the body matches any known signature.
func (db *FingerprintDB) Match(body []byte) bool {
	return db.matchMarker(body) || db.generic && mayMatchGeneric(body) && genericPattern.Match(body)
}

// matchMarker reports whether body contains the marker of a known
// template. Template id's marker is FILTER- followed by %04d of id: four
// digits for ids below 10000, the plain decimal (five or more digits, no
// leading zero) above. So at each FILTER- the candidates are the first
// four digits and, when they do not start with 0, every longer digit
// prefix; a candidate past the corpus's largest id ends the search.
func (db *FingerprintDB) matchMarker(body []byte) bool {
	for {
		i := bytes.Index(body, markerPrefix)
		if i < 0 {
			return false
		}
		body = body[i+len(markerPrefix):]
		id := 0
		for k, c := range body {
			if c < '0' || c > '9' || k >= 4 && body[0] == '0' {
				break
			}
			id = id*10 + int(c-'0')
			if id >= len(db.known) {
				break
			}
			if k >= 3 && db.known[id] {
				return true
			}
		}
	}
}

// mayMatchGeneric is a necessary condition for genericPattern, checked
// before running it: the body holds "<title>A" up to case. Under (?i) the
// regexp folds by Unicode simple folding, and none of t, i, l, e, a folds
// to a non-ASCII rune (only s does, to ſ), so an ASCII case-insensitive
// comparison misses no match.
func mayMatchGeneric(body []byte) bool {
	const tag = "title>a"
	for {
		i := bytes.IndexByte(body, '<')
		if i < 0 || len(body)-i-1 < len(tag) {
			return false
		}
		body = body[i+1:]
		if bytes.EqualFold(body[:len(tag)], []byte(tag)) {
			return true
		}
	}
}

// LengthDelta implements the Jones et al. heuristic: a response whose
// length differs from the censorship-free baseline by more than the
// threshold fraction (0.30 in the paper's lineage) is a blockpage
// candidate.
func LengthDelta(bodyLen, baselineLen int, threshold float64) bool {
	if bodyLen == baselineLen {
		return false
	}
	max := bodyLen
	if baselineLen > max {
		max = baselineLen
	}
	if max == 0 {
		return false
	}
	diff := bodyLen - baselineLen
	if diff < 0 {
		diff = -diff
	}
	return float64(diff)/float64(max) > threshold
}
