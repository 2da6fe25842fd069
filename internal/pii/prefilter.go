package pii

// The literal gates for PII extraction. The twelve extractor families
// are precise but expensive, and the overwhelming majority of streamed
// documents (§5.6 runs the extractors over every collected message)
// contain no PII at all. Each family only ever matches when certain
// fixed byte literals are present — an address needs a digit and a
// street suffix, an email needs '@' and '.', a profile URL needs its
// host name — so one linear scan that records which literals occur
// lets clean documents skip every family without changing any output.
//
// The scan itself lives in the one-pass engine's Teddy-style
// multi-literal prefilter (internal/pii/engine): all gate literals are
// matched simultaneously by a bit-parallel Shift-And automaton over an
// ASCII-lowered view of the text, alongside the digit count/runs and
// tracked-literal events the engine's candidate enumeration consumes.
// The only non-ASCII characters Go's (?i) simple case folding maps
// onto ASCII letters — U+017F (long s -> 's') and U+212A (Kelvin sign
// -> 'k') — are folded by hand so a regex can never match where the
// scanner saw nothing. All other non-ASCII bytes reset the automaton;
// they cannot occur inside any literal.
//
// Gates are conservative by construction: every gate is a *necessary*
// condition for its regex family, never an exact one, so a gated
// Extract is always a superset-safe rewrite of running the regexes
// directly. FuzzExtractPrefilterEquivalence holds the two paths equal.

import (
	"strings"

	"harassrepro/internal/pii/engine"
)

// Literal registration: lit interns a literal and returns its bitmask;
// masks combine into anyOf-groups below.
var (
	acLiterals []string
	acMaskOf   = map[string]uint64{}
)

func lit(s string) uint64 {
	if m, ok := acMaskOf[s]; ok {
		return m
	}
	if len(acLiterals) >= 64 {
		panic("pii: more than 64 prefilter literals")
	}
	m := uint64(1) << uint(len(acLiterals))
	acLiterals = append(acLiterals, s)
	acMaskOf[s] = m
	return m
}

func anyOf(ss ...string) uint64 {
	var m uint64
	for _, s := range ss {
		m |= lit(s)
	}
	return m
}

// gate builds an engine gate from anyOf-masks: every group must have
// at least one literal present, and minDigits bounds the document's
// ASCII digit count from below.
func gate(minDigits int, groups ...uint64) engine.Gate {
	g := engine.Gate{MinDigits: minDigits}
	for _, m := range groups {
		g.Groups = append(g.Groups, engine.Mask{m})
	}
	return g
}

// plan is one compiled extraction step: the literal gate plus the
// extractor to run when the gate admits the document.
type plan struct {
	name    string
	gate    engine.Gate
	extract func(string) []Match
}

// plans holds the extraction plans in the fixed legacy Extract order
// (address, cards, email, facebook, instagram, phone, ssn, twitter,
// youtube) so gating never reorders matches fed into dedupe. The
// extract closures are the legacy regex path, kept as the
// differential-fuzz oracle (extractDirect).
var plans []plan

func init() {
	streetSuffix := anyOf(
		"street", "st", "avenue", "ave", "road", "rd", "boulevard", "blvd",
		"drive", "dr", "lane", "ln", "court", "ct", "circle", "cir", "way",
		"place", "pl", "terrace", "ter",
	)
	// For the handle families, a URL match implies its host literal and a
	// mention match implies a site name plus ':'. Since each ".com" host
	// literal contains the bare site name, the disjunction
	// (url-match OR mention-match) relaxes to the two groups below.
	plans = []plan{
		{
			name: "address", gate: gate(1, streetSuffix),
			extract: func(t string) []Match { return extractSimple(Address, reAddress, t, normaliseSpace) },
		},
		{
			// Shortest card format is Amex's 15 digits.
			name: "cards", gate: gate(15),
			extract: extractCards,
		},
		{
			name: "email", gate: gate(0, lit("@"), lit(".")),
			extract: func(t string) []Match { return extractSimple(Email, reEmail, t, strings.ToLower) },
		},
		{
			name: "facebook",
			gate: gate(0, anyOf("facebook", "fb"), anyOf("facebook.com", ":")),
			extract: func(t string) []Match {
				return extractHandles(Facebook, reFacebookURL, reFacebookMention, t)
			},
		},
		{
			name: "instagram",
			gate: gate(0, anyOf("instagram", "ig", "insta"), anyOf("instagram.com", ":")),
			extract: func(t string) []Match {
				return extractHandles(Instagram, reInstagramURL, reInstagramMention, t)
			},
		},
		{
			name: "phone", gate: gate(10),
			extract: extractPhones,
		},
		{
			name: "ssn", gate: gate(9, lit("-")),
			extract: extractSSNs,
		},
		{
			name: "twitter",
			gate: gate(0, anyOf("twitter", "twtr"), anyOf("twitter.com", ":")),
			extract: func(t string) []Match {
				return extractHandles(Twitter, reTwitterURL, reTwitterMention, t)
			},
		},
		{
			name: "youtube",
			gate: gate(0, anyOf("youtube", "yt"), anyOf("youtube.com", ":")),
			extract: func(t string) []Match {
				return extractHandles(YouTube, reYouTubeURL, reYouTubeMention, t)
			},
		},
	}
	eng = buildEngine()
}
