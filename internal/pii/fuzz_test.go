package pii

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"harassrepro/internal/testutil"
)

// TestExtractNeverPanicsOnRandomInput drives the extractors with
// arbitrary strings: no panic, deterministic output, values drawn from
// the input's alphabet.
func TestExtractNeverPanicsOnRandomInput(t *testing.T) {
	e := NewExtractor()
	err := quick.Check(func(s string) bool {
		m1 := e.Extract(s)
		m2 := e.Extract(s)
		if len(m1) != len(m2) {
			return false
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExtractValidUTF8 checks that normalised values remain valid UTF-8
// even when the input contains multi-byte runes.
func TestExtractValidUTF8(t *testing.T) {
	e := NewExtractor()
	inputs := []string{
		"Ünïcode text with phone 212-555-0142 and more",
		"日本語 email: user@example.org 中文",
		strings.Repeat("é", 100) + " fb: some.person ",
	}
	for _, in := range inputs {
		for _, m := range e.Extract(in) {
			if !utf8.ValidString(m.Value) {
				t.Errorf("invalid UTF-8 value %q from %q", m.Value, in)
			}
		}
	}
}

// TestExtractAdversarialShapes probes inputs engineered to sit on
// pattern boundaries.
func TestExtractAdversarialShapes(t *testing.T) {
	e := NewExtractor()
	cases := []struct {
		text     string
		wantType Type
		want     bool
	}{
		// 17-digit run: the 16-digit card pattern must not fire inside it.
		{"41111111111111117", CreditCard, false},
		// Card split across lines is not matched (precision choice).
		{"4111 1111\n1111 1111", CreditCard, false},
		// SSN-like but part of a longer digit run.
		{"1219-09-99993", SSN, false},
		// Email inside angle brackets.
		{"contact <j.doe@example.org> today", Email, true},
		// Phone glued to a word boundary via punctuation.
		{"call:212-555-0142.", Phone, true},
		// Handle at end of string.
		{"fb: final.handle", Facebook, true},
		// URL with query string after the handle.
		{"https://twitter.com/someuser?ref=abc", Twitter, true},
	}
	for _, c := range cases {
		found := false
		for _, m := range e.Extract(c.text) {
			if m.Type == c.wantType {
				found = true
			}
		}
		if found != c.want {
			t.Errorf("Extract(%q) %s: got %v, want %v", c.text, c.wantType, found, c.want)
		}
	}
}

// FuzzExtractPrefilterEquivalence is the differential fuzz target for
// the literal prefilter: on every input, the gated Extract must return
// exactly what running the regexes unconditionally returns. Any
// divergence means a gate is not a necessary condition for its regex
// family — a soundness bug, not a tuning issue.
func FuzzExtractPrefilterEquivalence(f *testing.F) {
	for _, s := range []string{
		"",
		"we need to mass-report his twitter and youtube",
		"fb: some.person and ig: other_person",
		"Address: 99 Cedar Lane, phone 555-867-5309, j.doe@example.org",
		"4111 1111 1111 1111 ssn 219-09-9999",
		"facebooK.com/kelvin 12 oak ſtreet",
		"twtr: a yt: abc twitter.com/someuser",
		"\xff\xfe\xc5\xbf\xe2\x84\xaa 123-45-6789",
		// Dense multi-family dox: every digit family plus handles in one
		// document, so the engine's per-region DFA admits several
		// patterns over shared digit runs.
		"DOX 123 Maple Street, Fairview, OH, 44120 (212) 555-0142 219-09-9999 " +
			"4111111111111111 5500 0000 0000 0004 j@example.org fb: j.doe.99 " +
			"instagram.com/j_doe twtr: jdoe youtube.com/c/jdoe",
		// Overlapping digit runs: a 16-digit card whose interior also
		// shapes like phone and SSN — non-overlap resume positions must
		// agree with the per-pattern FindAll semantics.
		"4111 1111 1111 1111 111-11-1111 1234567890 212-555-0142-19",
		"30569309025904 3782 822463 10005 6011111111111117",
		// URLs split across mention prefixes: the site literal appears
		// both as a host and as a bare mention name in close quarters.
		"twitter: twitter.com/realuser yt: youtube.com/@clip fb:facebook.com/p.q.r.s.t",
		"https://www.instagram.com/insta: ig:instagram.com/x._.y",
		// Digit walls: long runs where no pattern can match but the DFA
		// and run enumeration must stay linear.
		strings.Repeat("1234567890", 64),
		strings.Repeat("9", 512) + " 219-09-9999 " + strings.Repeat("0", 512),
	} {
		f.Add(s)
	}
	// A 64KB digit wall with embedded needles: too big to minimise well
	// as a seed literal, so build it here and fuzz it once directly.
	wall := strings.Repeat("5", 16*1024) + " (415) 555-2671 " +
		strings.Repeat("1 ", 16*1024) + "ssn 219-09-9999 " + strings.Repeat("42", 8*1024)
	f.Add(wall)
	e := NewExtractor()
	s2 := NewSession()
	f.Fuzz(func(t *testing.T, s string) {
		got := e.Extract(s)
		want := extractDirect(s)
		if len(got) != len(want) {
			t.Fatalf("prefiltered Extract(%q) = %v, direct = %v", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("prefiltered Extract(%q) = %v, direct = %v", s, got, want)
			}
		}
		// The zero-alloc span API must agree with the allocating one:
		// same (type, value) sequence, spans inside the document.
		spans := s2.Extract(s)
		if len(spans) != len(want) {
			t.Fatalf("Session.Extract(%q) = %d spans, direct = %d matches", s, len(spans), len(want))
		}
		for i := range spans {
			if spans[i].Type != want[i].Type || string(spans[i].Value) != want[i].Value {
				t.Fatalf("Session.Extract(%q)[%d] = (%s,%q), direct = (%s,%q)",
					s, i, spans[i].Type, spans[i].Value, want[i].Type, want[i].Value)
			}
			if spans[i].Start < 0 || spans[i].End > len(s) || spans[i].Start >= spans[i].End {
				t.Fatalf("Session.Extract(%q)[%d] span [%d,%d) out of bounds", s, i, spans[i].Start, spans[i].End)
			}
		}
	})
}

// denseDox is a document in which every PII family matches: the
// worst case for the one-pass engine, which must confirm each family.
const denseDox = "John lives at 123 Maple Street, Fairview, OH, 44120, call (212) 555-0142, fb: john.t.99, email j@example.org, card 4111 1111 1111 1111, ssn 219-09-9999"

// TestSessionExtractZeroAllocsDenseDox is the allocation gate for the
// one-pass engine on the dense-dox workload: after warmup, the pooled
// session path (the scorer hot path) must not allocate even when every
// family matches. The clean-path gate is TestExtractCleanPathZeroAllocs.
func TestSessionExtractZeroAllocsDenseDox(t *testing.T) {
	s := NewSession()
	spans := s.Extract(denseDox) // warm arena, DFA cache, scratch
	if len(spans) == 0 {
		t.Fatal("dense dox produced no spans")
	}
	if avg := testing.AllocsPerRun(100, func() {
		if len(s.Extract(denseDox)) == 0 {
			t.Fatal("dense dox produced no spans")
		}
	}); avg != 0 {
		t.Errorf("Session.Extract allocs/run = %v, want 0", avg)
	}
	var dst [16]Type
	if avg := testing.AllocsPerRun(100, func() {
		if len(s.AppendTypes(dst[:0], denseDox)) == 0 {
			t.Fatal("dense dox produced no types")
		}
	}); avg != 0 {
		t.Errorf("Session.AppendTypes allocs/run = %v, want 0", avg)
	}
}

// TestSessionExtractBeatsRegexOracle is the engine's performance gate,
// measured against its own oracle in the same run so it holds on any
// machine: on the dense dox the pooled session path must be at least
// 3x faster than extractDirect (the regex cascade it replaced) and
// allocation-free.
func TestSessionExtractBeatsRegexOracle(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timings and allocation counts differ under the race detector")
	}
	const minSpeedup = 3.0
	s := NewSession()
	s.Extract(denseDox) // warm arena, DFA cache, scratch
	engine := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(s.Extract(denseDox)) == 0 {
				b.Fatal("dense dox produced no spans")
			}
		}
	})
	oracle := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(extractDirect(denseDox)) == 0 {
				b.Fatal("dense dox produced no matches")
			}
		}
	})
	if engine.N == 0 || oracle.N == 0 {
		t.Fatal("benchmark did not run")
	}
	speedup := float64(oracle.NsPerOp()) / float64(engine.NsPerOp())
	t.Logf("dense dox: engine %d ns/op, %d allocs/op; regex oracle %d ns/op; %.1fx",
		engine.NsPerOp(), engine.AllocsPerOp(), oracle.NsPerOp(), speedup)
	if speedup < minSpeedup {
		t.Errorf("Session.Extract is %.1fx the regex oracle on the dense dox, want >= %.1fx", speedup, minSpeedup)
	}
	if a := engine.AllocsPerOp(); a != 0 {
		t.Errorf("Session.Extract allocs/op = %d, want 0", a)
	}
}

// TestExtractLargeInput exercises a pathological large document.
func TestExtractLargeInput(t *testing.T) {
	e := NewExtractor()
	big := strings.Repeat("lorem ipsum 123 ", 20000) // ~320KB
	if got := e.Extract(big); len(got) != 0 {
		t.Errorf("noise input produced %d matches", len(got))
	}
	// Large input with one needle.
	needle := big + " ssn 219-09-9999 " + big
	got := e.Extract(needle)
	if len(got) != 1 || got[0].Type != SSN {
		t.Errorf("needle not found in large input: %v", got)
	}
}
