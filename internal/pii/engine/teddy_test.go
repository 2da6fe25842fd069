package engine

// Tests for the literal scanner at its own boundary, against a plain
// strings.Contains oracle over an independently built folded view.

import (
	"fmt"
	"strings"
	"testing"
)

// foldedView maps text the way the scanner reads it: A-Z to a-z, the
// two non-ASCII fold runes to 's' and 'k', and every other non-ASCII
// byte to 0xFF, which no literal contains. ends[j] is the byte offset
// in text just past folded byte j.
func foldedView(text string) (view string, ends []int32) {
	var b strings.Builder
	for i := 0; i < len(text); i++ {
		switch {
		case strings.HasPrefix(text[i:], "\u017f"):
			b.WriteByte('s')
			i++
		case strings.HasPrefix(text[i:], "\u212a"):
			b.WriteByte('k')
			i += 2
		case text[i] >= 0x80:
			b.WriteByte(0xFF)
		case 'A' <= text[i] && text[i] <= 'Z':
			b.WriteByte(text[i] + 'a' - 'A')
		default:
			b.WriteByte(text[i])
		}
		ends = append(ends, int32(i+1))
	}
	return b.String(), ends
}

// checkScan compares one scan of text against the oracle: gate bits
// by strings.Contains on the folded view, tracked-literal events at
// every occurrence, and the digit facts.
func checkScan(t *testing.T, lits []TeddyLiteral, td *Teddy, text string) {
	t.Helper()
	var f Facts
	td.Scan(text, &f)
	view, ends := foldedView(text)
	for _, l := range lits {
		if l.GateBit < 0 {
			continue
		}
		if want := strings.Contains(view, l.Text); f.LitMask.Has(l.GateBit) != want {
			t.Fatalf("Scan(%q): literal %q seen = %v, want %v", text, l.Text, !want, want)
		}
	}
	var wantEvents []LitEvent
	for _, l := range lits {
		if l.TrackID < 0 {
			continue
		}
		for j := 0; j+len(l.Text) <= len(view); j++ {
			if view[j:j+len(l.Text)] == l.Text {
				wantEvents = append(wantEvents, LitEvent{ID: l.TrackID, End: ends[j+len(l.Text)-1]})
			}
		}
	}
	if got := countEvents(f.Events); fmt.Sprint(got) != fmt.Sprint(countEvents(wantEvents)) {
		t.Fatalf("Scan(%q): events %v, want %v", text, f.Events, wantEvents)
	}
	digits := 0
	var runs []Run
	for i := 0; i < len(text); i++ {
		if text[i] < '0' || text[i] > '9' {
			continue
		}
		j := i
		for j < len(text) && '0' <= text[j] && text[j] <= '9' {
			j++
		}
		digits += j - i
		runs = append(runs, Run{Start: int32(i), End: int32(j)})
		i = j
	}
	if f.Digits != digits || fmt.Sprint(f.Runs) != fmt.Sprint(runs) {
		t.Fatalf("Scan(%q): digits %d runs %v, want %d %v", text, f.Digits, f.Runs, digits, runs)
	}
	hasFold := strings.Contains(text, "\u017f") || strings.Contains(text, "\u212a")
	if f.HasFold != hasFold {
		t.Fatalf("Scan(%q): HasFold = %v, want %v", text, f.HasFold, hasFold)
	}
}

// countEvents keys events by (ID, End): the scanner reports them in
// text order per block, the oracle per literal.
func countEvents(evs []LitEvent) map[LitEvent]int {
	m := map[LitEvent]int{}
	for _, e := range evs {
		m[e]++
	}
	return m
}

// wideLiterals is a literal set of more than four lanes and more than
// 64 gate bits: the cue-bank words, numbered variants that overflow
// the first block, overlapping short literals, and tracked literals.
func wideLiterals() []TeddyLiteral {
	words := strings.Fields(`dox leaked deadname report mass flood spam raid brigade
		dogpile impersonate pretend hijack phish review rating downvote zoom bomb swat
		flag employer boss family parents expose flyers thread internet ruin destroy
		trash wreck ostracis track follow stalk tracker movements whereabouts watch
		tabs racial ethnic slur hate speech explicit graphic obscene bleach bully
		blackmail torment harass st street kelvin`)
	var lits []TeddyLiteral
	add := func(s string, track bool) {
		id := -1
		if track {
			id = len(lits)
		}
		lits = append(lits, TeddyLiteral{Text: s, GateBit: len(lits), TrackID: id})
	}
	for i, w := range words {
		add(w, i%7 == 0)
	}
	for i := 0; len(lits) < 150; i++ {
		add(fmt.Sprintf("%s %d", words[i%len(words)], i), false)
	}
	add("@", true)
	add(strings.Repeat("x", 64), false)
	return lits
}

func TestTeddyWideSetSpansBlocks(t *testing.T) {
	lits := wideLiterals()
	td := NewTeddy(lits)
	if len(td.blocks) < 2 || td.maskWords < 3 {
		t.Fatalf("wide set compiled to %d blocks, %d mask words; want >= 2 and >= 3", len(td.blocks), td.maskWords)
	}
	for _, l := range lits {
		checkScan(t, lits, td, "a "+strings.ToUpper(l.Text)+" b")
	}
	checkScan(t, lits, td, "")
	checkScan(t, lits, td, "nothing of note here 123 456-7890")
}

// TestTeddyLaneBoundary packs literals that end exactly on bit 63 of a
// lane and start on bit 0 of the next, including across the block
// boundary (lane 3 to lane 4).
func TestTeddyLaneBoundary(t *testing.T) {
	var lits []TeddyLiteral
	for lane := 0; lane < 6; lane++ {
		lits = append(lits,
			TeddyLiteral{Text: strings.Repeat(string(rune('a'+lane)), 60), GateBit: len(lits), TrackID: -1},
			TeddyLiteral{Text: fmt.Sprintf("e%02dz", lane), GateBit: len(lits) + 1, TrackID: len(lits) + 1},
		)
	}
	td := NewTeddy(lits)
	if len(td.blocks) != 2 {
		t.Fatalf("6 full lanes compiled to %d blocks, want 2", len(td.blocks))
	}
	for lane := 0; lane < 6; lane++ {
		bl := &td.blocks[lane/blockLanes]
		if bl.fin[lane%blockLanes]>>63 != 1 {
			t.Fatalf("lane %d: last literal does not end on bit 63", lane)
		}
	}
	for _, text := range []string{
		"e00z e03z e04z e05z",
		"e03ze04z",                          // adjacent across the block boundary
		strings.Repeat("d", 60) + "e03z",    // a full lane then its neighbour
		strings.Repeat("d", 59) + "e03z",    // one short of the full lane
		"E05Z " + strings.Repeat("F", 61),   // upper case, one byte over
		strings.Repeat("c", 60) + "\xffe02", // reset inside the tail
	} {
		checkScan(t, lits, td, text)
	}
}

func TestTeddyFoldRunes(t *testing.T) {
	lits := []TeddyLiteral{
		{Text: "street", GateBit: 0, TrackID: 0},
		{Text: "kelvin", GateBit: 1, TrackID: 1},
		{Text: "ask", GateBit: 2, TrackID: -1},
	}
	td := NewTeddy(lits)
	for _, text := range []string{
		"12 oak \u017ftreet",  // U+017F folds to 's'
		"\u212aelvin scale",   // U+212A folds to 'k'
		"tA\u017f\u212a here", // both, inside a literal
		"STREET KELVIN",
		"\xc5 \xbf \xe2\x84 \xaa", // fold-rune bytes out of sequence
		"\xc5\xc5\xbftreet",       // a stray lead byte before the rune
	} {
		checkScan(t, lits, td, text)
	}
	var f Facts
	td.Scan("\u017ftreet \u212aelvin", &f)
	if !f.LitMask.Has(0) || !f.LitMask.Has(1) || !f.HasFold {
		t.Fatalf("fold runes not folded: mask %v, HasFold %v", f.LitMask, f.HasFold)
	}
}

// TestTeddyNonASCIIResets pins the reset: a non-ASCII byte inside a
// literal's span breaks the match.
func TestTeddyNonASCIIResets(t *testing.T) {
	lits := []TeddyLiteral{{Text: "street", GateBit: 0, TrackID: -1}, {Text: "st", GateBit: 1, TrackID: -1}}
	td := NewTeddy(lits)
	var f Facts
	for _, text := range []string{"日本語str日本eet", "stré et", "str\x80eet"} {
		td.Scan(text, &f)
		if f.LitMask.Has(0) {
			t.Errorf("Scan(%q) saw %q across a non-ASCII byte", text, "street")
		}
		if !f.LitMask.Has(1) {
			t.Errorf("Scan(%q) missed %q", text, "st")
		}
		checkScan(t, lits, td, text)
	}
}

func TestMaskAndGate(t *testing.T) {
	m := MaskOf(3, 70, 130)
	if len(m) != 3 || !m.Has(3) || !m.Has(70) || !m.Has(130) || m.Has(4) || m.Has(500) {
		t.Fatalf("MaskOf(3, 70, 130) = %x", m)
	}
	if !m.Intersects(MaskOf(70)) || m.Intersects(MaskOf(71)) || m.Intersects(nil) {
		t.Fatal("Intersects wrong")
	}
	f := &Facts{LitMask: MaskOf(1, 65), Digits: 4}
	for _, c := range []struct {
		g    Gate
		want bool
	}{
		{Gate{}, true},
		{Gate{Groups: []Mask{MaskOf(1)}}, true},
		{Gate{Groups: []Mask{MaskOf(0, 65)}, MinDigits: 4}, true},
		{Gate{Groups: []Mask{MaskOf(1), MaskOf(2, 64)}}, false},
		{Gate{Groups: []Mask{MaskOf(65)}, MinDigits: 5}, false},
	} {
		if got := c.g.Admits(f); got != c.want {
			t.Errorf("%+v.Admits = %v, want %v", c.g, got, c.want)
		}
	}
}

// FuzzTeddyScan holds the scanner to the oracle on arbitrary text over
// the wide literal set: every gate bit, tracked event and digit fact.
func FuzzTeddyScan(f *testing.F) {
	for _, s := range []string{
		"",
		"we should mass report her, dox him and raid the stream",
		"\u017ftreet \u212aelvin STREET kelvin",
		"flood 3 doxflood 12 reports",
		"\xff\xfe\xc5\xbf\xe2\x84\xaa 123-45-6789",
		"a@b.c " + strings.Repeat("x", 70),
		strings.Repeat("harass bully blackmail ", 180),
	} {
		f.Add(s)
	}
	lits := wideLiterals()
	td := NewTeddy(lits)
	f.Fuzz(func(t *testing.T, s string) {
		checkScan(t, lits, td, s)
	})
}

func BenchmarkTeddyScan(b *testing.B) {
	text := strings.Repeat("anyone want to play ranked tonight? patch notes look good, 12 maps. ", 4)
	for _, bc := range []struct {
		name string
		lits []TeddyLiteral
	}{
		{"one-block", wideLiterals()[:40]},
		{"wide", wideLiterals()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			td := NewTeddy(bc.lits)
			var f Facts
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				td.Scan(text, &f)
			}
		})
	}
}
