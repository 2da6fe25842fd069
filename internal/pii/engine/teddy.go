package engine

// A Teddy-style multi-literal prefilter: all gate literals are packed
// into 64-bit "lanes" and matched simultaneously with a bit-parallel
// Shift-And automaton (the SWAR formulation of Teddy's bucketed
// fingerprint idea — each lane is a bucket whose per-byte masks
// overlay its members' fingerprints; the lanes here are wide enough
// that matches are exact, not candidates needing verification; the
// one-bit carry that can leak from a literal into its lane neighbour
// is absorbed by the init mask, which sets that first-char bit
// whenever the byte matches anyway). One scan over the document
// computes, simultaneously:
//
//   - which gate literals occur (LitMask over the registered set),
//   - the ASCII digit count and every maximal digit run,
//   - the end offsets of every occurrence of "tracked" literals
//     ('@' for email, the host/mention site names for handles),
//   - whether either non-ASCII fold rune (U+017F, U+212A) occurred.
//
// The scan is over the case-folded view: A-Z fold to a-z, U+017F
// folds to 's', U+212A folds to 'k', all other non-ASCII bytes reset
// the automaton (no literal contains them).
//
// The lane count is sized from the literal set. Lanes are grouped in
// blocks of four, and the scan makes one pass of the same kernel per
// block: each pass keeps its four lanes in registers, and per byte it
// is one 32-byte table load (case folding and the non-ASCII reset are
// baked into the table's 256 rows), four shift/or/and triples, and one
// accept test. A set that fits one block (the PII gates) is one pass;
// a larger set (the taxonomy cue gates) pays one pass per 256 bytes of
// literal text. The digit and fold facts come from one separate,
// cheaper pass.

import "math/bits"

// blockLanes is the number of 64-bit lanes one kernel pass keeps in
// registers: 256 characters of literal text per block.
const blockLanes = 4

type laneVec [blockLanes]uint64

// Mask is a set of gate-literal bits: bit i lives in word i/64.
type Mask []uint64

// MaskOf returns the mask with exactly the given bits set.
func MaskOf(bits ...int) Mask {
	var m Mask
	for _, b := range bits {
		for len(m) <= b/64 {
			m = append(m, 0)
		}
		m[b/64] |= 1 << uint(b%64)
	}
	return m
}

// Has reports whether bit is set.
func (m Mask) Has(bit int) bool {
	w := bit / 64
	return w < len(m) && m[w]&(1<<uint(bit%64)) != 0
}

// Intersects reports whether m and o share a set bit.
func (m Mask) Intersects(o Mask) bool {
	n := len(m)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if m[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Gate is a necessary condition a document must meet before a rule's
// matcher runs: every group must share a bit with the document's
// literal mask (an AND of OR-groups over gate literals), and the
// document must hold at least MinDigits ASCII digits. A gate with no
// groups and MinDigits 0 admits every document.
type Gate struct {
	Groups    []Mask
	MinDigits int
}

// Admits reports whether the scan facts f satisfy g.
func (g Gate) Admits(f *Facts) bool {
	if f.Digits < g.MinDigits {
		return false
	}
	for _, grp := range g.Groups {
		if !f.LitMask.Intersects(grp) {
			return false
		}
	}
	return true
}

// LitEvent records one occurrence of a tracked literal: End is the
// byte offset just past the occurrence in the original text.
type LitEvent struct {
	ID  int // tracked-literal ID (registration order)
	End int32
}

// Run is one maximal ASCII digit run [Start, End).
type Run struct {
	Start, End int32
}

// Facts is everything one scan establishes about a document.
type Facts struct {
	LitMask Mask // which gate literals occur (bit = GateBit)
	Digits  int  // total ASCII digit count
	HasFold bool // a non-ASCII fold rune occurred
	// Events are in text order per block, so the events of any one
	// tracked literal are in text order.
	Events []LitEvent
	Runs   []Run
}

// reset clears f for reuse without freeing its slices, sizing the
// literal mask to words words.
func (f *Facts) reset(words int) {
	if cap(f.LitMask) < words {
		f.LitMask = make(Mask, words)
	}
	f.LitMask = f.LitMask[:words]
	for i := range f.LitMask {
		f.LitMask[i] = 0
	}
	f.Digits = 0
	f.HasFold = false
	f.Events = f.Events[:0]
	f.Runs = f.Runs[:0]
}

// teddyLit is one packed literal.
type teddyLit struct {
	text    string
	gateBit int // bit in LitMask, -1 if not a gate literal
	trackID int // tracked-literal ID, -1 if not tracked
}

// TeddyLiteral registers one literal for compilation. Gate literals
// contribute a bit to Facts.LitMask; tracked literals additionally
// emit LitEvents with their end offsets.
type TeddyLiteral struct {
	Text    string
	GateBit int // -1: not a gate
	TrackID int // -1: not tracked
}

// block is the compiled state of one kernel pass: four lanes.
type block struct {
	// tab[c] has, for each lane, a 1 bit at position i iff some packed
	// literal has byte c at (lane-relative) position i. Upper-case rows
	// repeat the lower-case ones; non-ASCII rows are zero, so a
	// non-ASCII byte resets every lane.
	tab [256]laneVec
	// initMask has a 1 at every literal's first-char position: the
	// Shift-And "new match may start here" injection.
	initMask laneVec
	// fin has a 1 at every literal's last-char position.
	fin laneVec
	// litAt maps (lane, end bit) -> literal index for accept dispatch.
	litAt [blockLanes][64]int16
}

// Teddy is the compiled prefilter.
type Teddy struct {
	lits      []teddyLit
	blocks    []block
	maskWords int // words in Facts.LitMask
}

// NewTeddy compiles the literal set. Literals must be non-empty
// lowercase ASCII of at most 64 bytes (the scan folds input to
// lowercase first).
func NewTeddy(literals []TeddyLiteral) *Teddy {
	t := &Teddy{}
	t.addBlock() // a literal-free scan still gathers the digit facts
	// First-fit pack each literal into a lane with enough free bits,
	// opening a lane (and, every four lanes, a block) when none has room.
	var used []uint
	for _, l := range literals {
		n := uint(len(l.Text))
		if n == 0 || n > 64 {
			panic("engine: teddy literal must be 1 to 64 bytes: " + l.Text)
		}
		lane := 0
		for lane < len(used) && used[lane]+n > 64 {
			lane++
		}
		if lane == len(used) {
			used = append(used, 0)
			if lane == len(t.blocks)*blockLanes {
				t.addBlock()
			}
		}
		bl, w, base := &t.blocks[lane/blockLanes], lane%blockLanes, used[lane]
		used[lane] += n
		for j := uint(0); j < n; j++ {
			c := l.Text[j]
			if c >= 0x80 || ('A' <= c && c <= 'Z') {
				panic("engine: teddy literal must be lowercase ASCII: " + l.Text)
			}
			bl.tab[c][w] |= 1 << (base + j)
			if 'a' <= c && c <= 'z' {
				bl.tab[c-'a'+'A'][w] |= 1 << (base + j)
			}
		}
		bl.initMask[w] |= 1 << base
		endBit := base + n - 1
		bl.fin[w] |= 1 << endBit
		bl.litAt[w][endBit] = int16(len(t.lits))
		t.lits = append(t.lits, teddyLit{text: l.Text, gateBit: l.GateBit, trackID: l.TrackID})
		if l.GateBit >= 0 {
			t.maskWords = max(t.maskWords, l.GateBit/64+1)
		}
	}
	return t
}

// addBlock appends an empty block.
func (t *Teddy) addBlock() {
	t.blocks = append(t.blocks, block{})
	bl := &t.blocks[len(t.blocks)-1]
	for w := range bl.litAt {
		for i := range bl.litAt[w] {
			bl.litAt[w][i] = -1
		}
	}
}

// Scan runs the prefilter over text, filling facts (which is reset
// first). Allocation-free once facts' slices have grown.
func (t *Teddy) Scan(text string, facts *Facts) {
	facts.reset(t.maskWords)
	scanDigits(text, facts)
	for b := range t.blocks {
		t.scanBlock(text, &t.blocks[b], facts)
	}
}

// scanDigits counts ASCII digits, records maximal digit runs and notes
// fold runes.
func scanDigits(text string, facts *Facts) {
	digits := 0
	runStart := int32(-1)
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c-'0' <= 9 {
			digits++
			if runStart < 0 {
				runStart = int32(i)
			}
			continue
		}
		if runStart >= 0 {
			facts.Runs = append(facts.Runs, Run{Start: runStart, End: int32(i)})
			runStart = -1
		}
		if c >= 0x80 && (c == 0xC5 && i+1 < len(text) && text[i+1] == 0xBF ||
			c == 0xE2 && i+2 < len(text) && text[i+1] == 0x84 && text[i+2] == 0xAA) {
			facts.HasFold = true
		}
	}
	if runStart >= 0 {
		facts.Runs = append(facts.Runs, Run{Start: runStart, End: int32(len(text))})
	}
	facts.Digits = digits
}

// scanBlock is the kernel: one pass of bl's four lanes over the folded
// view of text.
func (t *Teddy) scanBlock(text string, bl *block, facts *Facts) {
	var d0, d1, d2, d3 uint64
	i0, i1, i2, i3 := bl.initMask[0], bl.initMask[1], bl.initMask[2], bl.initMask[3]
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c == 0xC5 && i+1 < len(text) && text[i+1] == 0xBF {
			c, i = 's', i+1 // U+017F -> 's'
		} else if c == 0xE2 && i+2 < len(text) && text[i+1] == 0x84 && text[i+2] == 0xAA {
			c, i = 'k', i+2 // U+212A -> 'k'
		}
		// Shift-And step across the block's lanes.
		tc := &bl.tab[c]
		d0 = ((d0 << 1) | i0) & tc[0]
		d1 = ((d1 << 1) | i1) & tc[1]
		d2 = ((d2 << 1) | i2) & tc[2]
		d3 = ((d3 << 1) | i3) & tc[3]
		if d0&bl.fin[0]|d1&bl.fin[1]|d2&bl.fin[2]|d3&bl.fin[3] != 0 {
			t.accept(bl, &laneVec{d0 & bl.fin[0], d1 & bl.fin[1], d2 & bl.fin[2], d3 & bl.fin[3]}, int32(i+1), facts)
		}
	}
}

// accept dispatches every literal of bl whose end bit is set.
func (t *Teddy) accept(bl *block, hits *laneVec, end int32, facts *Facts) {
	for w := 0; w < blockLanes; w++ {
		h := hits[w]
		for h != 0 {
			bit := uint(bits.TrailingZeros64(h))
			h &= h - 1
			l := &t.lits[bl.litAt[w][bit]]
			if l.gateBit >= 0 {
				facts.LitMask[l.gateBit/64] |= 1 << uint(l.gateBit%64)
			}
			if l.trackID >= 0 {
				facts.Events = append(facts.Events, LitEvent{ID: l.trackID, End: end})
			}
		}
	}
}
