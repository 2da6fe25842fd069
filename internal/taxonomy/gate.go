package taxonomy

// Literal gates for the cue rules. Most documents contain none of the
// words a cue needs — "dox", "deadname", "mass report", "blackmail" —
// so running every cue regex on every document mostly proves absences.
// Each rule instead gets a gate derived from its own regex: an AND of
// OR-groups of literals, every one of which a match must contain. One
// shared literal scan (the PII engine's Teddy prefilter, over the same
// case-folded view) establishes which literals occur, and a rule's
// regex runs only when its gate admits the document. The regex stays
// the only thing that decides a label; the gate only skips runs that
// could not match.

import (
	"regexp/syntax"
	"sort"
	"strings"
)

const (
	// maxGroups bounds the OR-groups kept per rule: the most selective
	// two already rule out nearly every document a rule cannot match,
	// and each further group costs literal bytes in every scan.
	maxGroups = 2
	// minScore drops groups whose weakest literal is shorter: one- and
	// two-byte literals such as "h" or "er" occur in most documents.
	minScore = 3
	// maxLitLen truncates a literal to a prefix that fits one scanner
	// lane; a prefix of a required literal is itself required.
	maxLitLen = 64
)

// need is what a regex node demands of every string it matches.
type need struct {
	// groups is an AND of OR-groups: each match contains at least one
	// literal of every group.
	groups [][]string
	// Every match begins with prefix and ends with suffix.
	prefix, suffix string
	// exact: the node matches only prefix (which equals suffix);
	// zero-width nodes match exactly "".
	exact bool
}

// ruleGate derives the literal gate of pattern, compiled as `(?i)` +
// pattern. Literals are in the scanner's folded view (lowercase ASCII).
// A rule whose regex needs no literal worth gating on gets no groups,
// so the gate admits every document.
func ruleGate(pattern string) [][]string {
	re, err := syntax.Parse(`(?i)`+pattern, syntax.Perl)
	if err != nil {
		panic("taxonomy: cue pattern does not parse: " + err.Error())
	}
	groups := dedupeGroups(analyze(re.Simplify()).required())
	sort.SliceStable(groups, func(i, j int) bool { return groupScore(groups[i]) > groupScore(groups[j]) })
	var out [][]string
	for _, g := range groups {
		if len(out) == maxGroups || groupScore(g) < minScore {
			break
		}
		for i, l := range g {
			if len(l) > maxLitLen {
				g[i] = l[:maxLitLen]
			}
		}
		out = append(out, g)
	}
	return out
}

// analyze computes the need of one simplified regex node. It is sound
// by construction: every group, prefix and suffix it reports holds for
// every string the node matches; when unsure it demands nothing.
func analyze(re *syntax.Regexp) need {
	switch re.Op {
	case syntax.OpLiteral:
		s, ok := foldLiteral(re.Rune)
		if !ok {
			return need{}
		}
		return need{prefix: s, suffix: s, exact: true}
	case syntax.OpEmptyMatch, syntax.OpBeginLine, syntax.OpEndLine,
		syntax.OpBeginText, syntax.OpEndText, syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		return need{exact: true}
	case syntax.OpCapture:
		return analyze(re.Sub[0])
	case syntax.OpPlus:
		return repeated(analyze(re.Sub[0]))
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return repeated(analyze(re.Sub[0]))
		}
	case syntax.OpConcat:
		return concat(re.Sub)
	case syntax.OpAlternate:
		return alternate(re.Sub)
	}
	return need{}
}

// repeated is the need of one or more copies of a node: everything one
// copy needs, with the first copy's prefix and the last copy's suffix.
func repeated(n need) need {
	return need{groups: n.required(), prefix: n.prefix, suffix: n.suffix}
}

// concat requires the union of its children's needs, merging the
// literal text that adjacent children are known to place side by side.
func concat(subs []*syntax.Regexp) need {
	var out need
	run := ""    // literal text known contiguous up to here
	open := true // every child so far matched exactly
	flush := func(s string) {
		if s != "" {
			out.groups = append(out.groups, []string{s})
		}
	}
	for _, sub := range subs {
		n := analyze(sub)
		run += n.prefix
		if n.exact {
			continue
		}
		if open {
			out.prefix = run
			open = false
		}
		flush(run)
		out.groups = append(out.groups, n.groups...)
		run = n.suffix
	}
	if open {
		return need{prefix: run, suffix: run, exact: true}
	}
	flush(run)
	out.suffix = run
	return out
}

// alternate requires one OR-group holding each branch's best group, and
// keeps the prefix and suffix every branch shares. If any branch needs
// nothing, neither does the alternation.
func alternate(subs []*syntax.Regexp) need {
	var out need
	var union []string
	gated := true
	for i, sub := range subs {
		n := analyze(sub)
		if i == 0 {
			out.prefix, out.suffix = n.prefix, n.suffix
		} else {
			out.prefix = commonPrefix(out.prefix, n.prefix)
			out.suffix = commonSuffix(out.suffix, n.suffix)
		}
		best := bestGroup(n.required())
		if best == nil {
			gated = false
		}
		union = append(union, best...)
	}
	if gated {
		out.groups = [][]string{dedupe(union)}
	}
	return out
}

// required lists every group n demands, including its prefix and
// suffix as single-literal groups.
func (n need) required() [][]string {
	out := append([][]string(nil), n.groups...)
	for _, s := range []string{n.prefix, n.suffix} {
		if s != "" {
			out = append(out, []string{s})
		}
	}
	return out
}

// groupScore rates a group by its weakest literal: a group is only as
// selective as the most common string that satisfies it.
func groupScore(g []string) int {
	score := maxLitLen
	for _, l := range g {
		if len(l) < score {
			score = len(l)
		}
	}
	return score
}

// bestGroup returns the highest-scoring group, preferring fewer
// literals on a tie, or nil if there is none.
func bestGroup(groups [][]string) []string {
	var best []string
	for _, g := range groups {
		if best == nil || groupScore(g) > groupScore(best) ||
			groupScore(g) == groupScore(best) && len(g) < len(best) {
			best = g
		}
	}
	return best
}

// foldLiteral maps literal runes to the scanner's folded view. The
// scanner lowercases A-Z (and maps U+017F and U+212A onto 's' and 'k'),
// so any ASCII literal, case-folded or not, appears there lowercased.
// Non-ASCII literals are not gated on.
func foldLiteral(rs []rune) (string, bool) {
	for _, r := range rs {
		if r >= 0x80 {
			return "", false
		}
	}
	return strings.ToLower(string(rs)), true
}

func commonPrefix(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return a[:i]
}

func commonSuffix(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return a[len(a)-i:]
}

// dedupeGroups drops groups that repeat an earlier one.
func dedupeGroups(groups [][]string) [][]string {
	seen := map[string]bool{}
	var out [][]string
	for _, g := range groups {
		k := append([]string(nil), g...)
		sort.Strings(k)
		key := strings.Join(k, "\x00")
		if !seen[key] {
			seen[key] = true
			out = append(out, g)
		}
	}
	return out
}

func dedupe(ss []string) []string {
	seen := map[string]bool{}
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
