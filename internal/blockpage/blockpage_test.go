package blockpage

import (
	"bytes"
	"fmt"
	"regexp"
	"testing"
	"unicode"
)

func TestRenderVariesByID(t *testing.T) {
	a := Render(1, "CN")
	b := Render(2, "CN")
	if bytes.Equal(a, b) {
		t.Error("different templates render identically")
	}
	if !bytes.Contains(a, []byte("Access Denied")) {
		t.Error("blockpage missing title")
	}
	if !bytes.Contains(a, []byte("CN-FILTER-0001")) {
		t.Errorf("marker missing: %s", a)
	}
	// Deterministic.
	if !bytes.Equal(a, Render(1, "CN")) {
		t.Error("Render not deterministic")
	}
}

func TestFingerprintDBCoverage(t *testing.T) {
	db := NewFingerprintDB(100, 0.8, 1)
	known := 0
	for id := 0; id < 100; id++ {
		if db.Knows(id) {
			known++
		}
	}
	if known < 60 || known > 95 {
		t.Errorf("coverage %d/100 far from configured 0.8", known)
	}
	full := NewFingerprintDB(50, 1.0, 2)
	for id := 0; id < 50; id++ {
		if !full.Knows(id) {
			t.Errorf("full-coverage DB missing id %d", id)
		}
		if !full.Match(Render(id, "XX")) {
			t.Errorf("full DB failed to match template %d", id)
		}
	}
}

func TestGenericPatternCatchesUnknownTemplates(t *testing.T) {
	db := NewFingerprintDB(10, 0.0, 3) // no specific signatures
	if db.Len() != 1 {
		t.Fatalf("expected only the generic pattern, got %d", db.Len())
	}
	if !db.Match(Render(999, "ZZ")) {
		t.Error("generic pattern should match our standard template shape")
	}
	if db.Match([]byte("<html><body>hello world</body></html>")) {
		t.Error("generic pattern matched an innocent page")
	}
}

func TestEmptyDB(t *testing.T) {
	db := Empty()
	if db.Match(Render(1, "CN")) {
		t.Error("empty DB matched")
	}
	if db.Knows(1) || db.Len() != 0 {
		t.Error("empty DB knows things")
	}
}

func TestLengthDelta(t *testing.T) {
	cases := []struct {
		body, baseline int
		want           bool
	}{
		{1000, 1000, false},
		{1000, 1100, false}, // 9% — dynamic content territory
		{1000, 1400, false}, // 28.6%
		{500, 10000, true},  // classic tiny blockpage
		{10000, 500, true},  // or a huge interstitial
		{1000, 1500, true},  // 33%
		{0, 0, false},       // degenerate
		{0, 100, true},      // empty body vs real baseline
	}
	for _, c := range cases {
		if got := LengthDelta(c.body, c.baseline, 0.30); got != c.want {
			t.Errorf("LengthDelta(%d,%d) = %v, want %v", c.body, c.baseline, got, c.want)
		}
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	a := NewFingerprintDB(40, 0.5, 7)
	b := NewFingerprintDB(40, 0.5, 7)
	for id := 0; id < 40; id++ {
		if a.Knows(id) != b.Knows(id) {
			t.Fatalf("nondeterministic coverage at id %d", id)
		}
	}
}

// refMatcher is the reference matcher Match replaced: one regexp per known
// template's marker plus the generic pattern, ORed.
type refMatcher []*regexp.Regexp

func newRefMatcher(db *FingerprintDB) refMatcher {
	var ref refMatcher
	for id := range db.known {
		if db.Knows(id) {
			ref = append(ref, regexp.MustCompile(fmt.Sprintf(`FILTER-%04d`, id)))
		}
	}
	if db.generic {
		ref = append(ref, regexp.MustCompile(`(?i)<title>Access Denied</title>.*not available in your region`))
	}
	return ref
}

func (ref refMatcher) Match(body []byte) bool {
	for _, p := range ref {
		if p.Match(body) {
			return true
		}
	}
	return false
}

// differentialDB is a corpus with 4- and 5-digit ids: a sparse random
// cover of [0, 10040) plus a few hand-picked ids around the 5-digit edge.
func differentialDB() *FingerprintDB {
	db := NewFingerprintDB(10040, 0.01, 11)
	for _, id := range []int{0, 7, 42, 999, 1000, 9999, 10000, 10023} {
		db.known[id] = true
	}
	return db
}

// FuzzFingerprintMatch checks the literal matcher against the per-template
// regexps it replaced, for the generic-pattern DB and an Empty one.
func FuzzFingerprintMatch(f *testing.F) {
	for _, id := range []int{0, 7, 42, 999, 1000, 9999, 10000, 10023, 10024, 5555} {
		f.Add(Render(id, "CN"))
	}
	for _, s := range []string{
		"<html><head><title>example.org</title></head><body><h1>example.org</h1><p>content block 0</p></body>",
		"<html><head><title>apple.example</title></head><body>not available in your region</body>",
		"FILTER-0042",
		"FILTER-004",
		"xxFILTER-",
		"FILTER-FILTER-0007",
		"FILTER-100230",
		"FILTER-01000",
		"FILTER-99990",
		"<TITLE>aCCESS dENIED</TiTlE> is not available in your region",
		"<title>Acceſs Denied</title>.not available in your region",
		"<title>Access Denied</title>\nnot available in your region",
		"<title>Access Denied</title>not available in your regio",
		"<<title>Access Denied</title>NOT AVAILABLE IN YOUR REGION",
		"<title>",
	} {
		f.Add([]byte(s))
	}
	db, empty := differentialDB(), Empty()
	ref, emptyRef := newRefMatcher(db), newRefMatcher(empty)
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, want := db.Match(body), ref.Match(body); got != want {
			t.Fatalf("Match(%q) = %v, reference %v", body, got, want)
		}
		if got, want := empty.Match(body), emptyRef.Match(body); got != want {
			t.Fatalf("Empty().Match(%q) = %v, reference %v", body, got, want)
		}
	})
}

// TestMatchFoldsOnlyASCII pins the premise of the generic prefilter: the
// letters of "<title>A" fold only among ASCII runes under Unicode simple
// folding, which is what the (?i) regexp uses.
func TestMatchFoldsOnlyASCII(t *testing.T) {
	for _, r := range "titleaTITLEA" {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f > unicode.MaxASCII {
				t.Errorf("%q folds to non-ASCII %q", r, f)
			}
		}
	}
}

func BenchmarkFingerprintMatch(b *testing.B) {
	db := NewFingerprintDB(48, 0.7, 1)
	content := []byte("<html><head><title>news.example</title></head><body><h1>news.example</h1>")
	for i := 0; len(content) < 6000; i++ {
		content = fmt.Appendf(content, "<p>content block %d for news.example</p>", i)
	}
	known, unknown := 0, 0
	for !db.Knows(known) {
		known++
	}
	for db.Knows(unknown) {
		unknown++
	}
	for _, c := range []struct {
		name string
		body []byte
		want bool
	}{
		{"content_6KB", content, false},
		{"blockpage_known", Render(known, "CN"), true},
		{"blockpage_unknown", Render(unknown, "CN"), true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if db.Match(c.body) != c.want {
					b.Fatal("wrong verdict")
				}
			}
		})
	}
}
