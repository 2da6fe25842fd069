package main

// Seeded workload inputs. Every request body, batch, store document and
// query is drawn from the repository's own corpus generators
// (internal/corpus) at the workload seed, so two runs at one seed send
// byte-identical inputs and the program under test sees nothing but
// those inputs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/randx"
	"harassrepro/internal/serve"
)

// quickCorpusConfig is the generator scale of core.QuickConfig: the
// study's own corpus, and the unit in which doc sources grow.
func quickCorpusConfig(seed uint64) (corpus.Config, int) {
	cfg := core.QuickConfig(seed)
	return corpus.Config{Seed: seed, VolumeScale: cfg.VolumeScale, PositiveScale: cfg.PositiveScale}, cfg.BlogScale
}

// generateQuick runs one quick-scale generator: the four filtered
// corpora plus blogs, in the generator's own rng order.
func generateQuick(seed uint64) (map[corpus.Dataset]*corpus.Corpus, *corpus.Corpus) {
	cfg, blogScale := quickCorpusConfig(seed)
	gen := corpus.NewGenerator(cfg)
	corpora := gen.Generate()
	blogs := gen.GenerateBlogs(corpus.DefaultBlogSpecs(blogScale))
	return corpora, blogs
}

// docSource hands out generated documents one data set at a time. When a
// data set runs dry it moves on to the next generator instance (seed
// derived from the workload seed and the instance number), so the supply
// is unbounded and a function of the seed alone. An instance is
// generated once and dropped when every data set has moved past it.
type docSource struct {
	seed      uint64
	instances map[int]map[corpus.Dataset][]corpus.Document
	cursor    map[corpus.Dataset]int // instance each data set reads from
	pos       map[corpus.Dataset]int // next document within it
	distinct  bool                   // Take never returns a text twice
	seen      map[string]struct{}    // texts already returned (distinct only)
}

func newDocSource(seed uint64, distinct bool) *docSource {
	return &docSource{
		seed:      seed,
		instances: map[int]map[corpus.Dataset][]corpus.Document{},
		cursor:    map[corpus.Dataset]int{},
		pos:       map[corpus.Dataset]int{},
		distinct:  distinct,
		seen:      map[string]struct{}{},
	}
}

// instanceSeed derives generator instance k's seed from the workload
// seed (instance 0 is the workload seed itself).
func instanceSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return randx.New(seed).SplitN("instance", k).Uint64()
}

// instance returns generator instance k's documents by data set, with
// IDs made unique across instances.
func (s *docSource) instance(k int) map[corpus.Dataset][]corpus.Document {
	if inst, ok := s.instances[k]; ok {
		return inst
	}
	corpora, blogs := generateQuick(instanceSeed(s.seed, k))
	corpora[corpus.Blogs] = blogs
	inst := map[corpus.Dataset][]corpus.Document{}
	for ds, c := range corpora {
		docs := c.Docs
		for i := range docs {
			docs[i].ID = fmt.Sprintf("g%d-%s", k, docs[i].ID)
		}
		inst[ds] = docs
	}
	s.instances[k] = inst
	return inst
}

// next returns data set ds's next raw document.
func (s *docSource) next(ds corpus.Dataset) corpus.Document {
	for {
		k, p := s.cursor[ds], s.pos[ds]
		s.cursor[ds] = k // a data set holds its instance from its first read
		if docs := s.instance(k)[ds]; p < len(docs) {
			s.pos[ds] = p + 1
			return docs[p]
		}
		s.cursor[ds], s.pos[ds] = k+1, 0
		low := k + 1
		for _, c := range s.cursor {
			low = min(low, c)
		}
		for j := range s.instances {
			if j < low {
				delete(s.instances, j)
			}
		}
	}
}

// Take returns the next document of data set ds. With distinct set, a
// text already handed out is first retried in chat-log form
// ("author: text", the author being the generator's own synthetic
// username), and skipped if that too was seen: the generators reuse a
// small bank of benign phrases, and a rotation would keep the
// annotators' caches artificially warm.
func (s *docSource) Take(ds corpus.Dataset) corpus.Document {
	for {
		d := s.next(ds)
		if !s.distinct {
			return d
		}
		for _, text := range []string{d.Text, d.Author + ": " + d.Text} {
			if _, dup := s.seen[text]; !dup {
				s.seen[text] = struct{}{}
				d.Text = text
				return d
			}
		}
	}
}

// docMix is a weighted choice of data sets.
type docMix struct {
	sets    []corpus.Dataset
	weights []float64
}

// liveMix is short-text traffic: chat, boards and gab posts.
var liveMix = docMix{
	sets:    []corpus.Dataset{corpus.Chat, corpus.Boards, corpus.Gab},
	weights: []float64{1, 1, 1},
}

// bulkMix is all five data sets with the long, PII-dense pastes and
// blogs over-weighted.
var bulkMix = docMix{
	sets:    []corpus.Dataset{corpus.Pastes, corpus.Blogs, corpus.Boards, corpus.Chat, corpus.Gab},
	weights: []float64{0.40, 0.30, 0.10, 0.10, 0.10},
}

// drawDocs takes n distinct documents from src in the mix's proportions.
func drawDocs(src *docSource, rng *randx.Source, mix docMix, n int) []corpus.Document {
	w := randx.NewWeighted(mix.weights)
	out := make([]corpus.Document, n)
	for i := range out {
		out[i] = src.Take(mix.sets[w.Sample(rng)])
	}
	return out
}

// scoreRequest is the wire form of one document.
func scoreRequest(d *corpus.Document) serve.ScoreRequest {
	return serve.ScoreRequest{ID: d.ID, Platform: string(d.Platform), Text: d.Text}
}

// singleBody encodes a POST /v1/score body.
func singleBody(d *corpus.Document) []byte {
	b, err := json.Marshal(scoreRequest(d))
	if err != nil {
		panic(err) // a struct of strings always encodes
	}
	return b
}

// batchBody encodes a POST /v1/score/batch JSONL body.
func batchBody(docs []corpus.Document) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range docs {
		if err := enc.Encode(scoreRequest(&docs[i])); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// liveInputs is the live workload's traffic: a warm-up set and the
// measured texts, all distinct.
type liveInputs struct {
	warm, docs []corpus.Document
}

func makeLiveInputs(seed uint64, warm, n int) liveInputs {
	src := newDocSource(seed, true)
	rng := randx.New(seed).Split("live")
	return liveInputs{
		warm: drawDocs(src, rng, liveMix, warm),
		docs: drawDocs(src, rng, liveMix, n),
	}
}

// makeBatches draws n batches of size distinct bulk documents.
func makeBatches(src *docSource, rng *randx.Source, n, size int) [][]corpus.Document {
	out := make([][]corpus.Document, n)
	for i := range out {
		out[i] = drawDocs(src, rng, bulkMix, size)
	}
	return out
}

// indexTerms is the store index's notion of a document's terms,
// restated independently: ASCII letters, digits, '_' and any non-ASCII
// byte join into lower-cased tokens; everything else separates; plus the
// dataset:/platform: field terms (the queries use no domain: terms).
// Expected query counts are computed from it, never from the store.
func indexTerms(d *corpus.Document) map[string]struct{} {
	terms := map[string]struct{}{
		"dataset:" + string(d.Dataset):   {},
		"platform:" + string(d.Platform): {},
	}
	text := d.Text
	start := -1
	for i := 0; i <= len(text); i++ {
		isTok := false
		if i < len(text) {
			c := text[i]
			isTok = c >= 0x80 || c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		}
		switch {
		case isTok && start < 0:
			start = i
		case !isTok && start >= 0:
			terms[asciiLower(text[start:i])] = struct{}{}
			start = -1
		}
	}
	return terms
}

func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// boolQuery is one boolean store query: clauses ANDed, alternatives
// within a clause ORed, not-terms excluded. spec is its surface syntax
// for store.ParseQuery.
type boolQuery struct {
	spec    string
	clauses [][]string
	not     []string
}

func (q *boolQuery) match(terms map[string]struct{}) bool {
	for _, clause := range q.clauses {
		hit := false
		for _, t := range clause {
			if _, ok := terms[t]; ok {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	for _, t := range q.not {
		if _, ok := terms[t]; ok {
			return false
		}
	}
	return true
}

// anchorClause is the index of a clause made only of token terms; every
// generated query has one, and a document can match only if it holds
// one of that clause's terms.
func (q *boolQuery) anchorClause() int {
	for i, c := range q.clauses {
		if !slices.ContainsFunc(c, func(t string) bool { return strings.Contains(t, ":") }) {
			return i
		}
	}
	panic("perfbench: query " + q.spec + " has no all-token clause")
}

func newBoolQuery(clauses [][]string, not []string) boolQuery {
	var parts []string
	for _, c := range clauses {
		parts = append(parts, strings.Join(c, "|"))
	}
	for _, t := range not {
		parts = append(parts, "-"+t)
	}
	return boolQuery{spec: strings.Join(parts, ","), clauses: clauses, not: not}
}

// makeQueries builds n seeded boolean queries over docs: token terms of
// moderate document frequency (so a fetch returns tens of documents,
// not the store) combined with dataset:/platform: filters, OR groups
// and negations.
func makeQueries(rng *randx.Source, docs []corpus.Document, n int) []boolQuery {
	df := map[string]int{}
	for i := range docs {
		for t := range indexTerms(&docs[i]) {
			df[t]++
		}
	}
	lo, hi := max(2, len(docs)/500), max(3, len(docs)/200)
	var toks, fields []string
	for t, c := range df {
		switch {
		case strings.HasPrefix(t, "dataset:") || strings.HasPrefix(t, "platform:"):
			fields = append(fields, t)
		case strings.Contains(t, ":"):
		case c >= lo && c <= hi && len(t) > 2:
			toks = append(toks, t)
		}
	}
	sort.Strings(toks)
	sort.Strings(fields)
	tok := func() string { return randx.Pick(rng, toks) }
	out := make([]boolQuery, n)
	for i := range out {
		switch i % 5 {
		case 0:
			out[i] = newBoolQuery([][]string{{tok()}, {randx.Pick(rng, fields)}}, nil)
		case 1:
			out[i] = newBoolQuery([][]string{{tok(), tok()}, {randx.Pick(rng, fields)}}, nil)
		case 2:
			out[i] = newBoolQuery([][]string{{tok(), tok()}}, []string{tok()})
		case 3:
			out[i] = newBoolQuery([][]string{{tok()}, {tok(), tok(), tok()}}, nil)
		default:
			out[i] = newBoolQuery([][]string{{randx.Pick(rng, fields)}, {tok(), tok()}}, []string{tok()})
		}
	}
	return out
}
