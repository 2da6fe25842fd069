package taxonomy

// Soundness, allocation, metrics and concurrency tests for the gated
// categorizer, each held against the all-regex oracle (oracle_test.go).

import (
	"strings"
	"sync"
	"testing"

	"harassrepro/internal/obs"
	"harassrepro/internal/testutil"
)

// gateCorpus seeds FuzzCategorizeGateEquivalence, so plain go test
// checks every entry. It concentrates on the gates: every paper
// example, cue words next to non-ASCII letters, the two non-ASCII fold
// runes inside cue words, invalid UTF-8, and near misses that hold a
// gate literal but not the cue.
var gateCorpus = []string{
	"",
	"Jane Roe must be harassed, get her phone number and address.",
	"make deep fakes of porn with them. send them to all their friends and parents and family.",
	"Physh his emails and find any info to blackmail with.",
	"Post FB & Twitter accounts so we can spam him with hate.",
	"We need to keep pushing that the LGBT flag is now a hate symbol. Use #ColorCulture on twitter and share on #DiversityWins.",
	"Let's mass-report his twitter and youtube...",
	"Report him to the neighbours, he should be more careful with his atrocious beliefs if he doesn't want ostracism.",
	"We should find all their yachts and stick trackers to them. And track them on gps.",
	"send her bleach and tell her she's trash",
	"everyone mass report his channel",
	"call the cops on him, tell them he has weapons",
	"raid the stream tonight, flood the chat",
	"leave one star reviews on her shop, 1-star ratings everywhere",
	"spread the dox to every board, pass the dox around",
	"hijack the hashtag with our memes",
	"email her boss about what she posted",
	"hack his account and post from it",
	"bully him until he leaves",
	"mass report them all, report them until the account is gone",
	"bully him by raiding the stream, raid his chat",
	"get her phone number and address, then raid the stream and mass report her channel",
	// Near misses: gate literals without the cue.
	"the report is due friday, the raid boss drops loot",
	"contact your local elected representative about the bill",
	"I reported my own bug on the tracker",
	"doxology hymn at the morning service",
	// Fold runes inside cue words: U+212A (Kelvin) and U+017F (long s).
	// At a word's edge they defeat the cue's ASCII \b; inside it the
	// cue matches.
	"\u212aeep tabs on him",
	"brea\u212a into his car",
	"stal\u212a her daily, ta\u212ae over her account",
	"mass repor\u212a",
	"\u017fpam him",
	"ma\u017f\u017f report his channel",
	"TRA\u212a HIM",
	// Non-ASCII letters beside cue words and invalid UTF-8.
	"ÿdox him",
	"doxé",
	"raid éhis stream",
	"raid his\xff stream",
	"\xff\xfedox\xc5",
	"r\xc5\xbfeport them",
	"日本語 mass report 日本語",
	"spam hïm",
}

// longPaste is a 4 KB dox-style paste with cue words spread through it.
func longPaste() string {
	var b strings.Builder
	for b.Len() < 4096 {
		b.WriteString("NAME: John Roe\nADDRESS: 99 Cedar Lane, Springfield\nPHONE: (212) 555-0142\n")
		b.WriteString("everyone spam him, his twitter is twitter.com/jroe, raid his stream tonight\n")
		b.WriteString("---------------------------------------------------------------\n")
	}
	b.WriteString("dox him\n")
	return b.String()
}

// longBlog is a 4 KB stretch of benign prose.
func longBlog() string {
	return strings.Repeat("The quarterly report covers the community garden, the new library hours, and the flood defences along the river. ", 36)
}

// FuzzCategorizeGateEquivalence is the differential fuzz target for the
// cue gates: on every input, the gated Categorize must return exactly
// the oracle's label. A divergence means some gate is not a necessary
// condition for its regex.
func FuzzCategorizeGateEquivalence(f *testing.F) {
	for _, s := range gateCorpus {
		f.Add(s)
	}
	f.Add(longPaste())
	f.Add(longBlog())
	c := NewCategorizer()
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := c.Categorize(s), categorizeDirect(s); !sameLabel(got, want) {
			t.Fatalf("Categorize(%q) = %v, oracle = %v", s, got.Subs(), want.Subs())
		}
	})
}

// TestEveryRuleGated guards selectivity: a rule whose gate derives no
// group runs its regex on every document.
func TestEveryRuleGated(t *testing.T) {
	for _, r := range NewCategorizer().rules {
		if len(r.gate.Groups) == 0 {
			t.Errorf("rule %s has no literal gate", r.re)
		}
	}
}

// TestCategorizeAllocs is the allocation gate: Categorize allocates
// only its result — nothing for a clean document, and no more than
// building the returned label for a matching one.
func TestCategorizeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := NewCategorizer()
	for _, text := range []string{
		"anyone want to play ranked tonight? patch notes look good",
		"get her phone number and address, then raid the stream and mass report her channel",
		longPaste(),
	} {
		label := c.Categorize(text) // warm the pool
		var set subSet
		for _, s := range label.Subs() {
			set |= setOf(s)
		}
		budget := testing.AllocsPerRun(50, func() { labelSink = set.label() })
		if got := testing.AllocsPerRun(50, func() { labelSink = c.Categorize(text) }); got > budget {
			t.Errorf("Categorize(%.40q...) allocates %v per call, want <= %v (its result)", text, got, budget)
		}
		if label.Empty() && budget != 0 {
			t.Errorf("empty label costs %v allocations, want 0", budget)
		}
	}
}

// labelSink keeps measured results live, so the compiler cannot drop
// the allocation being counted.
var labelSink Label

// TestCategorizerMetrics holds the counters to counts computed without
// the scanner: matches from the oracle, admissions from the derived
// gate literals searched with strings.Contains.
func TestCategorizerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCategorizer()
	c.SetMetrics(reg)
	docs := append(gateCorpus, longPaste(), longBlog())
	wantAdmitted := map[Sub]int{}
	wantMatches := map[Sub]int{}
	wantClean := 0
	for _, text := range docs {
		c.Categorize(text)
		for s := range matchDirect(text) {
			wantMatches[s]++
		}
		lower := foldedView(text)
		admitted := map[Sub]bool{}
		for _, s := range subList {
			for _, pat := range cuePatterns[s] {
				if containsGate(lower, ruleGate(pat)) {
					admitted[s] = true
				}
			}
		}
		for s := range admitted {
			wantAdmitted[s]++
		}
		if len(admitted) == 0 {
			wantClean++
		}
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("taxonomy_docs_scanned_total"); got != float64(len(docs)) {
		t.Errorf("scanned = %v, want %d", got, len(docs))
	}
	if got := snap.CounterValue("taxonomy_docs_clean_total"); got != float64(wantClean) {
		t.Errorf("clean = %v, want %d", got, wantClean)
	}
	for _, s := range subList {
		l := obs.L("sub", string(s))
		if got := snap.CounterValue("taxonomy_rule_admitted_total", l); got != float64(wantAdmitted[s]) {
			t.Errorf("admitted{%s} = %v, want %d", s, got, wantAdmitted[s])
		}
		if got := snap.CounterValue("taxonomy_rule_matches_total", l); got != float64(wantMatches[s]) {
			t.Errorf("matches{%s} = %v, want %d", s, got, wantMatches[s])
		}
	}
}

// foldedView maps text the way the literal scanner reads it: A-Z to
// a-z, U+017F to 's', U+212A to 'k', and any other non-ASCII byte to
// 0xFF, which no gate literal contains.
func foldedView(text string) string {
	var b strings.Builder
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case strings.HasPrefix(text[i:], "\u017f"):
			b.WriteByte('s')
			i++
		case strings.HasPrefix(text[i:], "\u212a"):
			b.WriteByte('k')
			i += 2
		case c >= 0x80:
			b.WriteByte(0xFF)
		case 'A' <= c && c <= 'Z':
			b.WriteByte(c + 'a' - 'A')
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// containsGate reports whether every group has a literal in text.
func containsGate(text string, groups [][]string) bool {
	for _, g := range groups {
		found := false
		for _, l := range g {
			found = found || strings.Contains(text, l)
		}
		if !found {
			return false
		}
	}
	return true
}

// TestCategorizeConcurrent shares one Categorizer (and its pooled scan
// state) across goroutines; every label must equal the oracle's. Run
// under -race in check.sh.
func TestCategorizeConcurrent(t *testing.T) {
	c := NewCategorizer()
	c.SetMetrics(obs.NewRegistry())
	docs := append(gateCorpus, longPaste(), longBlog())
	want := make([]Label, len(docs))
	for i, d := range docs {
		want[i] = categorizeDirect(d)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i := range docs {
					j := (i + g) % len(docs)
					if got := c.Categorize(docs[j]); !sameLabel(got, want[j]) {
						t.Errorf("goroutine %d: Categorize(%.40q) = %v, oracle = %v", g, docs[j], got.Subs(), want[j].Subs())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
