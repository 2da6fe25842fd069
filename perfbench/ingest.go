package main

import (
	"fmt"
	"path/filepath"
	"time"

	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/randx"
)

const (
	ingestBatchDocs       = 500 // documents per Append (one fsync'd segment)
	ingestQueryPool       = 256 // seeded queries, issued in rotation
	ingestQueriesPerRound = 8
	// ingestRoundsPerSecond caps a phase at this many rounds per second of
	// its window, so the store always grows to the same size: the window
	// ends a phase only when rounds run slower than the cap allows.
	ingestRoundsPerSecond = 16
)

// storeMix draws appended documents in roughly the quick corpus's own
// proportions.
var storeMix = docMix{
	sets:    []corpus.Dataset{corpus.Boards, corpus.Pastes, corpus.Chat, corpus.Gab, corpus.Blogs},
	weights: []float64{0.55, 0.22, 0.10, 0.07, 0.06},
}

// ingestState is one growing store and the benchmark's own count of
// every pool query's matches in it.
type ingestState struct {
	s        *store.Store
	queries  []boolQuery
	parsed   []*store.Query
	expected []int            // matches per query among every document committed so far
	byTerm   map[string][]int // token -> queries with a clause of tokens only that names it
	stamp    []int            // per query: the last document it was evaluated on
	seenDocs int              // documents counted so far
	src      *docSource
	rng      *randx.Source
	docs     int
}

// ingestRound is what one append-then-query round measured.
type ingestRound struct {
	appendDur time.Duration
	appendCPU time.Duration
	queryCPU  time.Duration
	queryLat  []time.Duration // LookupQueryDocs, to the last fetched document
	lookupLat []time.Duration // LookupQuery refs only (traced rounds)
	matches   []int
}

// newIngestState builds the seeded quick store in dir, derives the
// query pool from its documents and counts their matches.
func newIngestState(r *report, dir string) (*ingestState, error) {
	corpora, blogs := generateQuick(r.Seed)
	if err := writeStore(dir, corpora, blogs); err != nil {
		return nil, fmt.Errorf("building store: %w", err)
	}
	var base []corpus.Document
	for _, ds := range corpus.Datasets() {
		if ds == corpus.Blogs {
			base = append(base, blogs.Docs...)
		} else {
			base = append(base, corpora[ds].Docs...)
		}
	}
	rng := randx.New(r.Seed).Split("ingest")
	st := &ingestState{
		queries: makeQueries(rng.Split("queries"), base, ingestQueryPool),
		src:     newDocSource(rng.Split("appends").Uint64(), false),
		rng:     rng.Split("mix"),
		docs:    len(base),
	}
	st.expected = make([]int, len(st.queries))
	st.stamp = make([]int, len(st.queries))
	st.byTerm = map[string][]int{}
	for qi := range st.queries {
		q := &st.queries[qi]
		for _, t := range q.clauses[q.anchorClause()] {
			st.byTerm[t] = append(st.byTerm[t], qi)
		}
	}
	st.count(base)
	for _, q := range st.queries {
		pq, err := store.ParseQuery(q.spec)
		if err != nil {
			return nil, err
		}
		st.parsed = append(st.parsed, pq)
	}
	return st, nil
}

// count adds docs' matches to every pool query's expected count. A
// query can match only documents holding a term of its all-token clause,
// so only those queries are evaluated.
func (st *ingestState) count(docs []corpus.Document) {
	for i := range docs {
		terms := indexTerms(&docs[i])
		st.seenDocs++
		for t := range terms {
			for _, qi := range st.byTerm[t] {
				if st.stamp[qi] == st.seenDocs {
					continue
				}
				st.stamp[qi] = st.seenDocs
				if st.queries[qi].match(terms) {
					st.expected[qi]++
				}
			}
		}
	}
}

// round appends one seeded batch and runs the next queries of the
// rotation, checking each count. traced also times LookupQuery alone.
func (st *ingestState) round(r *report, n int, traced bool) (ingestRound, error) {
	var out ingestRound
	batch := drawDocs(st.src, st.rng, storeMix, ingestBatchDocs)
	for i := range batch {
		batch[i].ID = fmt.Sprintf("a%d-%s", n, batch[i].ID)
	}
	t0, c0 := time.Now(), processCPU()
	if _, err := st.s.Append(batch); err != nil {
		return out, err
	}
	out.appendDur, out.appendCPU = time.Since(t0), processCPU()-c0
	st.docs += len(batch)
	st.count(batch)
	for k := 0; k < ingestQueriesPerRound; k++ {
		qi := (n*ingestQueriesPerRound + k) % len(st.queries)
		if traced {
			t0 := time.Now()
			st.s.LookupQuery(st.parsed[qi], func(store.DocRef) bool { return true })
			out.lookupLat = append(out.lookupLat, time.Since(t0))
		}
		got := 0
		t0, c0 := time.Now(), processCPU()
		err := st.s.LookupQueryDocs(st.parsed[qi], func(*corpus.Document, store.DocRef) error { got++; return nil })
		out.queryLat = append(out.queryLat, time.Since(t0))
		out.queryCPU += processCPU() - c0
		if err != nil {
			return out, fmt.Errorf("query %q: %w", st.queries[qi].spec, err)
		}
		out.matches = append(out.matches, got)
		if got != st.expected[qi] {
			r.problem("query %q after %d appends: %d matches, the generated documents hold %d", st.queries[qi].spec, n+1, got, st.expected[qi])
		}
	}
	return out, nil
}

// runPhase runs rounds until the cap or the window is reached and checks
// that the store reopens at the generation its appends committed.
func (st *ingestState) runPhase(r *report, dir string, window time.Duration, traced bool) ([]ingestRound, time.Duration, error) {
	gen0 := st.s.Generation()
	var rounds []ingestRound
	limit := int(window.Seconds() * ingestRoundsPerSecond)
	t0 := time.Now()
	for len(rounds) < limit && time.Since(t0) < window {
		rd, err := st.round(r, len(rounds), traced)
		if err != nil {
			return nil, 0, err
		}
		rounds = append(rounds, rd)
	}
	elapsed := time.Since(t0)
	if err := st.s.Close(); err != nil {
		return nil, 0, err
	}
	s, err := store.Open(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("reopening: %w", err)
	}
	st.s = s
	if got, want := s.Generation(), gen0+uint64(len(rounds)); got != want {
		r.problem("reopened store at generation %d after %d appends from %d, want %d", got, len(rounds), gen0, want)
	}
	if s.Docs() != st.docs {
		r.problem("reopened store holds %d documents, %d were committed", s.Docs(), st.docs)
	}
	r.Attempted += len(rounds) * (1 + ingestQueriesPerRound)
	return rounds, elapsed, nil
}

func runIngestQuery(r *report) error {
	if r.Trace {
		return traceIngest(r)
	}
	dir := filepath.Join(r.work, "store")
	st, err := newIngestState(r, dir)
	if err != nil {
		return err
	}
	if st.s, err = openTimed(r, dir, storeOpenReps); err != nil {
		return err
	}
	rss := startRSS()
	ticks := readCPUTicks()
	rounds, elapsed, err := st.runPhase(r, dir, r.budget(), false)
	if err != nil {
		st.s.Close() //nolint:errcheck // already failing
		return err
	}
	steal := ticks.stealSince()
	r.set("peak_rss_mb", rss.peakMB(r), 0, "peak resident set over the rounds")
	if err := st.s.Close(); err != nil {
		return err
	}
	var lat []float64
	var appendWall, queryWall, cpu time.Duration
	for _, rd := range rounds {
		appendWall += rd.appendDur
		cpu += rd.appendCPU + rd.queryCPU
		for _, d := range rd.queryLat {
			lat = append(lat, ms(d))
			queryWall += d
		}
	}
	appended := len(rounds) * ingestBatchDocs
	q, v := tail(lat)
	r.set("latency_p50_ms", median(lat), len(lat), "boolean query to its last fetched document")
	r.set("latency_tail_ms", v, len(lat), fmt.Sprintf("p%g of queries", 100*q))
	r.set("sustained_rps", float64(len(lat))/queryWall.Seconds(), len(lat), "queries per second of query time, one goroutine")
	r.set("docs_per_s", float64(appended)/appendWall.Seconds(), len(rounds), fmt.Sprintf("documents appended per second of Append (%d per fsync'd segment)", ingestBatchDocs))
	r.set("cpu_us_per_doc", float64(unsteal(cpu, steal))/1e3/float64(appended), appended,
		fmt.Sprintf("process CPU in Append and the %d queries of each round, less the stolen share / documents appended", ingestQueriesPerRound))
	r.set("wall_s", elapsed.Seconds(), len(rounds), fmt.Sprintf("%d append/query rounds (or the window, if slower)", len(rounds)))
	r.Extra["rounds"] = len(rounds)
	r.Extra["store_docs"] = st.docs
	return nil
}

// traceIngest runs an untraced then a traced phase, each on its own
// copy of the seeded store, and reduces the traced one to the store
// layers.
func traceIngest(r *report) error {
	var roundMean [2]float64
	var rounds []ingestRound
	var elapsed time.Duration
	var st *ingestState
	var dir string
	for phase := 0; phase < 2; phase++ {
		dir = filepath.Join(r.work, fmt.Sprintf("store%d", phase))
		var err error
		if st, err = newIngestState(r, dir); err != nil {
			return err
		}
		if st.s, err = openTimed(r, dir, storeOpenReps); err != nil {
			return err
		}
		if rounds, elapsed, err = st.runPhase(r, dir, r.budget()/2, phase == 1); err != nil {
			st.s.Close() //nolint:errcheck // already failing
			return err
		}
		roundMean[phase] = elapsed.Seconds() / float64(len(rounds))
		if phase == 0 {
			if err := st.s.Close(); err != nil {
				return err
			}
		}
	}
	defer st.s.Close() //nolint:errcheck // read-only from here
	r.set("trace.overhead_ratio", roundMean[1]/roundMean[0], 2, "mean traced / untraced round time")

	var appendMS, lookupUS []float64
	var busy, fetch time.Duration
	matches := 0
	for _, rd := range rounds {
		appendMS = append(appendMS, ms(rd.appendDur))
		busy += rd.appendDur
		for i := range rd.queryLat {
			lookupUS = append(lookupUS, float64(rd.lookupLat[i])/1e3)
			busy += rd.queryLat[i] + rd.lookupLat[i]
			fetch += rd.queryLat[i] - rd.lookupLat[i]
			matches += rd.matches[i]
		}
	}
	r.set("store.append_ms", mean(appendMS), len(appendMS), fmt.Sprintf("mean Append of %d documents (one fsync'd segment)", ingestBatchDocs))
	r.set("store.lookup_us", mean(lookupUS), len(lookupUS), "mean LookupQuery: posting-bitmap evaluation and ref iteration")
	r.set("store.matches_per_query", float64(matches)/float64(max(len(lookupUS), 1)), len(lookupUS), "mean documents fetched per query")
	if matches > 0 {
		r.set("store.fetch_us_per_doc", float64(fetch)/1e3/float64(matches), matches, "(LookupQueryDocs - LookupQuery) / documents fetched")
	}
	r.set("store.segments", float64(len(st.s.Segments())), 0, "segments after the traced phase")
	r.set("trace.coverage_ratio", float64(busy)/float64(elapsed), len(rounds), "(Append + query spans) / traced phase wall")

	var segBytes int64
	for _, si := range st.s.Segments() {
		segBytes += si.SegBytes
	}
	n := 0
	t0 := time.Now()
	err := st.s.Scan(func(*corpus.Document, store.DocRef) error { n++; return nil })
	scan := time.Since(t0)
	if err != nil {
		return err
	}
	r.set("store.scan_ms", ms(scan), n, "full Scan after the traced phase")
	r.set("store.scan_mb_per_s", float64(segBytes)/(1<<20)/scan.Seconds(), n, "segment bytes / scan time")
	return nil
}
