package taxonomy

import (
	"math/bits"
	"regexp"
	"sync"

	"harassrepro/internal/pii/engine"
)

// Categorizer codes call-to-harassment text into taxonomy subcategories
// with keyword/phrase rules. It plays the role of the paper's domain
// expert coders for the automated reproduction: each subcategory has a
// bank of cue patterns derived from the paper's category definitions and
// published examples. A Categorizer is safe for concurrent use.
type Categorizer struct {
	*ruleBank
	m *categorizerMetrics
}

// ruleBank is the compiled cue bank, shared by every Categorizer: the
// cue regexes, their literal gates, and one scanner over the gates'
// literals.
type ruleBank struct {
	rules []rule
	teddy *engine.Teddy
	facts sync.Pool // *engine.Facts, per-goroutine scan state
}

type rule struct {
	set  subSet // the rule's subcategory
	re   *regexp.Regexp
	gate engine.Gate
}

// cuePatterns defines the per-subcategory cue regular expressions. The
// phrasing is drawn from the paper's published example incitements (§6.1.1)
// and category definitions.
var cuePatterns = map[Sub][]string{
	SubDoxing: {
		`\bdox+\b`, `\bdrop (?:his|her|their) (?:info|address)\b`,
		`\b(?:get|find|post) (?:his|her|their) (?:phone number|home address|address and name|real name)\b`,
		`\bmust be harassed.{0,40}(?:phone number|address)`,
	},
	SubLeakedChats: {
		`\bleaked (?:chat|discord|telegram) logs?\b`, `\bfrom the leaked logs\b`,
	},
	SubNonConsensual: {
		`\b(?:leak|post|share) (?:his|her|their) (?:nudes|private (?:photos|pictures|pics)|explicit (?:photos|images))\b`,
		`\brevenge porn\b`,
	},
	SubOutingDeadnaming: {
		`\bdeadname\b`, `\bout (?:him|her|them) as\b`,
	},
	SubDoxPropagation: {
		`\b(?:spread|repost|share|mirror) (?:the|this|that) dox\b`, `\bpass the dox around\b`,
	},
	SubContentLeakMisc: {
		`\bleak everything (?:about|on) (?:him|her|them)\b`, `\bdig up (?:his|her|their) (?:info|information)\b`,
	},
	SubImpersonatedProfiles: {
		`\b(?:make|create|set up) (?:a )?fake (?:accounts?|profiles?) (?:of|pretending to be|as)\b`,
		`\bimpersonate (?:him|her|them)\b`,
	},
	SubSyntheticPorn: {
		`\bdeep ?fakes? of porn\b`, `\bmake deep ?fakes?\b`, `\bdeepfake (?:porn|nudes)\b`,
	},
	SubImpersonationMisc: {
		`\bpretend to (?:be|represent) (?:him|her|them)\b`, `\bpose as (?:him|her|them)\b`,
	},
	SubAccountLockout: {
		`\b(?:hack|phish|physh|hijack|take over) (?:his|her|their) (?:accounts?|emails?|password)\b`,
		`\block (?:him|her|them) out of\b`,
	},
	SubLockoutMisc: {
		`\bget into (?:his|her|their) (?:device|computer|phone)\b`, `\bbreak into (?:his|her|their)\b`,
	},
	SubNegativeRatings: {
		`\b(?:one|1)[- ]star (?:reviews?|ratings?)\b`, `\b(?:review|rating) bomb\b`, `\bdownvote (?:bomb|everything)\b`,
	},
	SubRaiding: {
		`\braid (?:his|her|their|the|this)\b`, `\bbrigade\b`, `\bdogpile\b`,
		`\bflood the (?:comments|chat|thread|stream)\b`, `\bzoom ?bomb\b`,
	},
	SubSpamming: {
		`\bspam (?:him|her|them|his|her|their)\b`, `\bflood (?:his|her|their) inbox\b`,
	},
	SubOverloadingMisc: {
		`\bflood (?:him|her|them) with (?:notifications|messages|calls)\b`,
		`\bbury (?:him|her|them) in (?:notifications|messages|calls)\b`,
	},
	SubHashtagHijacking: {
		`\bhijack the hashtag\b`, `\b(?:use|push) #\w+ (?:on twitter )?(?:to|and) (?:derail|drown|flood)\b`,
		`\bkeep pushing that\b.{0,80}#\w+`,
	},
	SubPublicOpinionMisc: {
		`\b(?:push|spread|plant) (?:the|a|that) (?:false |fake )?(?:narrative|story|rumor|rumour)\b`,
		`\bmanipulat\w+ public (?:perception|opinion)\b`, `\bmake (?:it|this) trend as if\b`,
	},
	SubFalseReporting: {
		`\b(?:call|report (?:him|her|them) to) (?:the )?(?:cops|police|feds|fbi|ice|irs|cps|immigration)\b`,
		`\bswat+(?:ing|ed)?\b`, `\bfile (?:a )?false (?:reports?|complaints?)\b`,
		`\breport (?:him|her|them) to (?:his|her|their) (?:employer|boss|school|parents|landlord)\b`,
	},
	SubMassFlagging: {
		`\bmass[- ]?(?:report|flag)\b`, `\breport (?:his|her|their) (?:channel|account|twitter|youtube|videos?) until\b`,
		`\bflag (?:all|every(?:thing)?) (?:of )?(?:his|her|their)\b`, `\bget (?:his|her|their) (?:account|channel) (?:banned|taken down|suspended)\b`,
	},
	SubReportingMisc: {
		`\breport (?:him|her|them|this|that)\b`,
	},
	SubReputationPrivate: {
		`\b(?:tell|email|call|contact|alert|write to) (?:his|her|their) (?:boss|employer|family|parents|wife|husband|landlord|neighbou?rs|school)\b`,
		`\bsend (?:it|them|this|the (?:pics|photos|screenshots)) to (?:his|her|their) (?:family|friends|parents|boss|employer|mother|father|sister|brother|wife|husband|cousin|uncle)\b`,
	},
	SubReputationPublic: {
		`\bexpose (?:him|her|them) (?:publicly|online|everywhere|to the world)\b`,
		`\bpost (?:flyers|posters) (?:about|of)\b`, `\bmake (?:a )?threads? (?:about|on) (?:him|her|them) so everyone\b`,
		`\blet the (?:whole )?(?:internet|community|neighbou?rhood) know\b`,
	},
	SubReputationMisc: {
		`\b(?:ruin|destroy|trash|wreck) (?:his|her|their) (?:reputation|name|career)\b`, `\bostracis\w+\b`, `\bostraciz\w+\b`,
	},
	SubStalkingTracking: {
		`\b(?:track|follow|stalk) (?:him|her|them)\b`, `\bstick trackers?\b`, `\btrack (?:him|her|them) on gps\b`,
		`\bpost (?:his|her|their) (?:movements|whereabouts|location) (?:daily|every)\b`,
	},
	SubSurveillanceMisc: {
		`\bwatch (?:his|her|their) every move\b`, `\bkeep (?:tabs|watch) on (?:him|her|them)\b`,
	},
	SubHateSpeech: {
		`\b(?:racial|ethnic) slurs?\b`, `\bcall (?:him|her|them) slurs\b`, `\bhate speech\b`,
	},
	SubUnwantedExplicit: {
		`\bsend (?:him|her|them) (?:explicit|graphic|obscene) (?:content|images|pictures)\b`,
		`\bsend (?:him|her|them) (?:porn|gore)\b`,
	},
	SubToxicMisc: {
		`\btell (?:him|her|them) (?:he|she|they)(?:'s| is| are) (?:trash|worthless|garbage)\b`,
		`\bsend (?:him|her|them) bleach\b`, `\bcall (?:him|her|them) out in game\b`,
	},
	// Generic cues match whenever the crowd is urged to bully/blackmail
	// without a tactic; when a specific tactic cue also matches, the
	// categorizer's suppression rule removes the Generic label.
	SubGeneric: {
		`\b(?:bully|blackmail|torment|harass) (?:him|her|them)\b`,
		`\bmake (?:his|her|their) life hell\b`, `\bgo after (?:him|her|them)\b`,
	},
}

// NewCategorizer returns a categorizer over the cue rules. The rules
// and their gates are compiled once per process and shared.
func NewCategorizer() *Categorizer {
	return &Categorizer{ruleBank: sharedBank()}
}

var sharedBank = sync.OnceValue(compileBank)

// compileBank compiles every cue regex and derives its literal gate,
// interning the gates' literals into one scanner.
func compileBank() *ruleBank {
	b := &ruleBank{facts: sync.Pool{New: func() any { return &engine.Facts{} }}}
	bitOf := map[string]int{}
	var lits []engine.TeddyLiteral
	for _, s := range subList {
		for _, pat := range cuePatterns[s] {
			r := rule{set: setOf(s), re: regexp.MustCompile(`(?i)` + pat)}
			for _, group := range ruleGate(pat) {
				var bitsOf []int
				for _, l := range group {
					bit, ok := bitOf[l]
					if !ok {
						bit = len(lits)
						bitOf[l] = bit
						lits = append(lits, engine.TeddyLiteral{Text: l, GateBit: bit, TrackID: -1})
					}
					bitsOf = append(bitsOf, bit)
				}
				r.gate.Groups = append(r.gate.Groups, engine.MaskOf(bitsOf...))
			}
			b.rules = append(b.rules, r)
		}
	}
	b.teddy = engine.NewTeddy(lits)
	return b
}

// subList is Subs() in Table 11 order; a subSet bit is an index into it.
var subList = Subs()

// subSet is a set of subcategories, bit i standing for subList[i].
type subSet uint32

// setOf returns the one-element set {s}.
func setOf(s Sub) subSet {
	for i, t := range subList {
		if t == s {
			return 1 << uint(i)
		}
	}
	panic("taxonomy: unknown subcategory " + string(s))
}

// miscRule pairs a parent's misc. subcategory with its specific
// siblings, any of which suppresses it.
type miscRule struct{ misc, specific subSet }

var (
	miscRules = func() []miscRule {
		var out []miscRule
		for _, m := range []Sub{
			SubContentLeakMisc, SubImpersonationMisc, SubLockoutMisc,
			SubOverloadingMisc, SubPublicOpinionMisc, SubReportingMisc,
			SubReputationMisc, SubSurveillanceMisc, SubToxicMisc,
		} {
			r := miscRule{misc: setOf(m)}
			for _, s := range SubsOf(m.Parent()) {
				if s != m {
					r.specific |= setOf(s)
				}
			}
			out = append(out, r)
		}
		return out
	}()
	genericSet = setOf(SubGeneric)
)

// Categorize codes text into a multi-label taxonomy Label. Generic and
// misc. subcategories are treated as fallbacks within their parent: a
// specific subcategory suppresses its parent's misc. label, and any
// specific parent suppresses Generic, mirroring the coders' rule that
// misc./generic apply only when no more specific category fits.
//
// One literal scan decides which rules' gates admit the document; only
// those rules run their regex. The gates are necessary conditions, so
// the label equals running every cue regex on the text.
func (c *Categorizer) Categorize(text string) Label {
	f := c.facts.Get().(*engine.Facts)
	c.teddy.Scan(text, f)
	var matched, admitted subSet
	for i := range c.rules {
		r := &c.rules[i]
		if matched&r.set != 0 || !r.gate.Admits(f) {
			continue
		}
		admitted |= r.set
		if r.re.MatchString(text) {
			matched |= r.set
		}
	}
	c.facts.Put(f)
	if c.m != nil {
		c.m.record(admitted, matched)
	}
	return suppress(matched).label()
}

// suppress applies the fallback rules to a set of matched subcategories.
func suppress(s subSet) subSet {
	for _, r := range miscRules {
		if s&r.specific != 0 {
			s &^= r.misc
		}
	}
	if s != genericSet && s&genericSet != 0 {
		s &^= genericSet
	}
	return s
}

// label materialises s; the empty set allocates nothing.
func (s subSet) label() Label {
	if s == 0 {
		return Label{}
	}
	m := make(map[Sub]bool, bits.OnesCount32(uint32(s)))
	for ; s != 0; s &= s - 1 {
		m[subList[bits.TrailingZeros32(uint32(s))]] = true
	}
	return Label{subs: m}
}
