package pii

// Soundness and performance-contract tests for the literal prefilter:
// the gated Extract must equal the regex-only path on every input, the
// hand-folded non-ASCII characters must be the only ones Go's (?i)
// simple case folding maps onto ASCII, and PII-free documents must not
// allocate.

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"harassrepro/internal/pii/engine"
	"harassrepro/internal/testutil"
)

// prefilterCorpus concentrates inputs on and around the gate
// boundaries: every family present, every family almost-present.
var prefilterCorpus = []string{
	"",
	"anyone up for ranked tonight, patch notes are out",
	"we need to mass-report his twitter and youtube, spread the word", // site names, no ':'
	"meet at 12 Oak Street tomorrow",
	"meet at Oak Street tomorrow",     // suffix but no digit
	"call 212-555-0142 or 2125550142", // phone digits
	"only nine 123-45-678",            // 8 digits + '-'
	"ssn 219-09-9999 leaked",
	"219 09 9999",         // ssn digits, no '-'
	"4111 1111 1111 1111", // valid visa shape
	"4111 1111 1111",      // 12 digits: below card gate
	"378282246310005",     // amex, 15 digits exactly
	"mail me: j.doe@example.org",
	"j.doe at example org", // no '@'
	"j@doe",                // '@' but no '.'
	"fb: some.person and ig: other_person",
	"facebook.com/someone.real instagram.com/other",
	"FACEBOOK.COM/LOUD.PERSON", // case-insensitive host
	"twitter.com/someuser yt: clipchannel",
	"twtr: short_handle youtube.com/c/somechannel",
	"his handle is facebooK.com/kelvin.case", // Kelvin sign folds to 'k'
	"12 oak ſtreet",                          // long s folds to 's'
	"Ünïcode 日本語 text with no pii at all",
	"a\xffb\xfe invalid \xc3( bytes 99 Cedar Lane",
	strings.Repeat("lorem ipsum 123 ", 50),
	"Address: 99 Cedar Lane, Springfield, IL, 62704 phone 555-867-5309",
}

func TestExtractMatchesDirectOnCorpus(t *testing.T) {
	e := NewExtractor()
	for _, text := range prefilterCorpus {
		got := e.Extract(text)
		want := extractDirect(text)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Extract(%q) = %v, direct = %v", text, got, want)
		}
	}
}

func TestExtractMatchesDirectQuick(t *testing.T) {
	e := NewExtractor()
	err := quick.Check(func(s string) bool {
		return reflect.DeepEqual(e.Extract(s), extractDirect(s))
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScannerFoldExceptionsComplete proves the scanner's hand-folded
// set is exhaustive: U+017F and U+212A are the only runes outside ASCII
// whose simple case-fold orbit reaches an ASCII letter, so no other
// character can make a (?i) regex match a literal the scanner missed.
func TestScannerFoldExceptionsComplete(t *testing.T) {
	handled := map[rune]bool{0x017F: true, 0x212A: true}
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f < 0x80 && !handled[r] {
				t.Errorf("rune %U folds to ASCII %q but the scanner does not map it", r, f)
			}
		}
	}
}

// scan runs the engine's literal prefilter over text.
func scan(text string) *engine.Facts {
	f := &engine.Facts{}
	eng.ScanFacts(text, f)
	return f
}

// TestScanFacts pins the scanner's literal and digit accounting.
func TestScanFacts(t *testing.T) {
	cases := []struct {
		text      string
		wantLit   string // a literal that must be seen ("" = none)
		absentLit string
		digits    int
	}{
		{"12 Oak Street", "street", "", 2},
		{"12 Oak STREET", "street", "", 2},
		{"constant", "st", "street", 0}, // substring semantics
		{"check facebook.com now", "facebook.com", "twitter", 0},
		{"no digits here", "", "", 0},
		{"ſtreet", "street", "", 0},
		{"facebooK", "facebook", "", 0},
		{"日本語str日本eet", "st", "street", 0}, // non-ASCII resets the automaton
		{"1234567890", "", "", 10},
	}
	for _, c := range cases {
		f := scan(c.text)
		if c.wantLit != "" && !f.LitMask.Intersects(engine.Mask{acMaskOf[c.wantLit]}) {
			t.Errorf("scan(%q): literal %q not seen", c.text, c.wantLit)
		}
		if c.absentLit != "" && f.LitMask.Intersects(engine.Mask{acMaskOf[c.absentLit]}) {
			t.Errorf("scan(%q): literal %q wrongly seen", c.text, c.absentLit)
		}
		if f.Digits != c.digits {
			t.Errorf("scan(%q): digits = %d, want %d", c.text, f.Digits, c.digits)
		}
	}
}

// TestExtractCleanPathZeroAllocs is the allocation-regression gate for
// the prefilter: a document whose gate literals are absent must be
// rejected by the scan alone, with no allocations at all.
func TestExtractCleanPathZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := NewExtractor()
	clean := "anyone up for ranked tonight, patch notes are out, new map is wild"
	if got := e.Extract(clean); got != nil {
		t.Fatalf("clean text produced matches: %v", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		e.Extract(clean)
	}); n != 0 {
		t.Errorf("Extract on clean text allocates %v per op, want 0", n)
	}
}

// TestExtractDenseAllocBudget documents the allocation budget for
// PII-bearing inputs: the regex engine and the match/dedupe machinery
// allocate (FindAll result slices, normalised values, the dedupe map),
// so extraction from a dense dox is not free — but it must stay within
// a small fixed budget rather than regressing silently.
func TestExtractDenseAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := NewExtractor()
	if got := e.Extract(denseDox); len(got) < 6 {
		t.Fatalf("dense dox produced only %d matches: %v", len(got), got)
	}
	// Measured at 40 allocs/op; 64 leaves headroom for regexp-internal
	// variation without masking a real regression.
	if n := testing.AllocsPerRun(50, func() {
		e.Extract(denseDox)
	}); n > 64 {
		t.Errorf("Extract on dense dox allocates %v per op, budget 64", n)
	}
}

// TestPlanGates spot-checks that gating actually skips families: texts
// built to fail exactly one gate condition admit no plan of that name.
func TestPlanGates(t *testing.T) {
	planByName := map[string]plan{}
	for _, p := range plans {
		planByName[p.name] = p
	}
	cases := []struct {
		text  string
		name  string
		admit bool
	}{
		{"99 Cedar Lane", "address", true},
		{"Cedar Lane no number", "address", false},
		{"12345678901234", "cards", false}, // 14 digits
		{"123456789012345", "cards", true},
		{"a@b", "email", false},
		{"a@b.co", "email", true},
		{"facebook is down", "facebook", false}, // no ':' and no host
		{"facebook: someone", "facebook", true},
		{"123456789", "ssn", false}, // 9 digits, no '-'
		{"123-45-6789", "ssn", true},
		{"yt is fun", "youtube", false},
		{"youtube.com/c/x", "youtube", true},
	}
	for _, c := range cases {
		f := scan(c.text)
		if got := planByName[c.name].gate.Admits(f); got != c.admit {
			t.Errorf("admits(%q, %s) = %v, want %v", c.text, c.name, got, c.admit)
		}
	}
}
