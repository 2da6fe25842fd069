package taxonomy

// The reference categorizer: every cue regex on every document, with
// the misc./generic suppression written out over maps. The gated
// Categorize must agree with it on every input.

import "regexp"

// directRules are the cue regexes compiled on their own, independent
// of the gated bank.
var directRules = func() []struct {
	sub Sub
	re  *regexp.Regexp
} {
	var out []struct {
		sub Sub
		re  *regexp.Regexp
	}
	for _, s := range Subs() {
		for _, pat := range cuePatterns[s] {
			out = append(out, struct {
				sub Sub
				re  *regexp.Regexp
			}{s, regexp.MustCompile(`(?i)` + pat)})
		}
	}
	return out
}()

// matchDirect returns the subcategories whose cues match text, before
// suppression.
func matchDirect(text string) map[Sub]bool {
	matched := map[Sub]bool{}
	for _, r := range directRules {
		if matched[r.sub] {
			continue
		}
		if r.re.MatchString(text) {
			matched[r.sub] = true
		}
	}
	return matched
}

// categorizeDirect codes text by running every cue regex.
func categorizeDirect(text string) Label {
	matched := matchDirect(text)
	// Specific subcategory suppresses its parent's misc label.
	miscOf := map[Parent]Sub{
		ContentLeakage: SubContentLeakMisc,
		Impersonation:  SubImpersonationMisc,
		Lockout:        SubLockoutMisc,
		Overloading:    SubOverloadingMisc,
		PublicOpinion:  SubPublicOpinionMisc,
		Reporting:      SubReportingMisc,
		Reputational:   SubReputationMisc,
		Surveillance:   SubSurveillanceMisc,
		ToxicContent:   SubToxicMisc,
	}
	for parent, misc := range miscOf {
		if !matched[misc] {
			continue
		}
		for _, s := range SubsOf(parent) {
			if s != misc && matched[s] {
				delete(matched, misc)
				break
			}
		}
	}
	// Any specific parent suppresses the Generic fallback.
	if matched[SubGeneric] && len(matched) > 1 {
		delete(matched, SubGeneric)
	}
	subs := make([]Sub, 0, len(matched))
	for s := range matched {
		subs = append(subs, s)
	}
	return NewLabel(subs...)
}

// sameLabel reports whether a and b carry the same subcategories.
func sameLabel(a, b Label) bool {
	if a.Size() != b.Size() {
		return false
	}
	for s := range a.subs {
		if !b.Has(s) {
			return false
		}
	}
	return true
}
