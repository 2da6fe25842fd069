package taxonomy

// Categorizer instrumentation. SetMetrics registers gate and rule
// counters on an obs.Registry and makes every subsequent Categorize on
// that Categorizer report into them:
//
//	taxonomy_docs_scanned_total        Categorize calls (one literal scan each)
//	taxonomy_docs_clean_total          scans where no gate admitted any rule
//	taxonomy_rule_admitted_total{sub}  documents on which at least one of the
//	                                   subcategory's cue regexes ran
//	taxonomy_rule_matches_total{sub}   documents a cue of the subcategory
//	                                   matched, before the misc./generic
//	                                   suppression
//
// so scanned*subcategories - sum(admitted) is the number of subcategory
// regex runs the gates saved. A Categorizer without metrics pays a
// single nil check.

import (
	"math/bits"

	"harassrepro/internal/obs"
)

// categorizerMetrics holds the pre-resolved instrument handles.
type categorizerMetrics struct {
	scanned  *obs.Counter
	clean    *obs.Counter
	admitted []*obs.Counter // aligned with subList
	matches  []*obs.Counter
}

// SetMetrics attaches reg to the categorizer. Not safe to call
// concurrently with Categorize; attach before use.
func (c *Categorizer) SetMetrics(reg *obs.Registry) {
	m := &categorizerMetrics{
		scanned: reg.NewCounter("taxonomy_docs_scanned_total",
			"documents run through the taxonomy literal scan"),
		clean: reg.NewCounter("taxonomy_docs_clean_total",
			"documents the gates cleared without running any cue regex"),
	}
	for _, s := range subList {
		l := obs.L("sub", string(s))
		m.admitted = append(m.admitted, reg.NewCounter("taxonomy_rule_admitted_total",
			"documents on which a subcategory's cue regexes ran", l))
		m.matches = append(m.matches, reg.NewCounter("taxonomy_rule_matches_total",
			"documents a subcategory's cue matched, before suppression", l))
	}
	c.m = m
}

// record folds one document's admitted and matched sets into the
// counters.
func (m *categorizerMetrics) record(admitted, matched subSet) {
	m.scanned.Inc()
	if admitted == 0 {
		m.clean.Inc()
		return
	}
	for s := admitted; s != 0; s &= s - 1 {
		m.admitted[bits.TrailingZeros32(uint32(s))].Inc()
	}
	for s := matched; s != 0; s &= s - 1 {
		m.matches[bits.TrailingZeros32(uint32(s))].Inc()
	}
}
