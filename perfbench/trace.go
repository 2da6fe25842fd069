package main

// The traced run's instruments. Spans are recorded only from the
// benchmark's own wrappers around calls into the modules' public
// surfaces — the serve handler, the backend's stream stages (through
// core.StreamOptions.StageWrap), and direct calls into tokenize,
// features, model, pii, taxonomy and query — kept in memory and reduced
// when the run ends. A layer's self time is its span minus the part of
// it that its child spans cover.

import (
	"context"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"harassrepro/internal/annotate"
	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/features"
	"harassrepro/internal/pii"
	"harassrepro/internal/query"
	"harassrepro/internal/resilience"
	"harassrepro/internal/taxonomy"
	"harassrepro/internal/tokenize"
)

// streamStages names the scoring stream's stages in pipeline order, and
// the per-layer metric each one's span feeds.
var streamStages = []struct{ name, metric string }{
	{"score-cth", "stream.score_cth_us"},
	{"score-dox", "stream.score_dox_us"},
	{"pii", "stream.pii_us"},
	{"taxonomy", "stream.taxonomy_us"},
}

func stageIndex(name string) int {
	for i, s := range streamStages {
		if s.name == name {
			return i
		}
	}
	return -1
}

// span is one timed interval, in nanoseconds since the tracer's base.
type span struct{ t0, t1 int64 }

func (s span) dur() int64 { return s.t1 - s.t0 }

// stageSpan is one stage attempt on one document, keyed by its text
// (the workload's texts are distinct).
type stageSpan struct {
	text  string
	stage int
	span
}

// tracer collects spans in memory.
type tracer struct {
	base     time.Time
	mu       sync.Mutex
	stages   []stageSpan
	handlers map[int]span // op -> handler span
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, handlers: map[int]span{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// wrapStage times every attempt of a stream stage.
func (t *tracer) wrapStage(st resilience.Stage[core.StreamDoc]) resilience.Stage[core.StreamDoc] {
	idx := stageIndex(st.Name)
	fn := st.Fn
	st.Fn = func(ctx context.Context, index int, sd *core.StreamDoc) error {
		t0 := t.now()
		err := fn(ctx, index, sd)
		t1 := t.now()
		t.mu.Lock()
		t.stages = append(t.stages, stageSpan{text: sd.Text, stage: idx, span: span{t0, t1}})
		t.mu.Unlock()
		return err
	}
	return st
}

// wrapHandler times the server's handler for every request carrying
// the benchmark's op header.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := t.now()
		h.ServeHTTP(w, r)
		t1 := t.now()
		if op, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
			t.mu.Lock()
			t.handlers[op] = span{t0, t1}
			t.mu.Unlock()
		}
	})
}

// tracedBackend is the detector with the tracer's stage wrapper
// installed on every stream a shard opens.
type tracedBackend struct {
	det *core.Detector
	tr  *tracer
}

func (b tracedBackend) ScoreStream(ctx context.Context, in <-chan core.StreamDoc, opts core.StreamOptions) <-chan resilience.Result[core.StreamDoc] {
	opts.StageWrap = b.tr.wrapStage
	return b.det.ScoreStream(ctx, in, opts)
}

// docSpans groups one document's stage attempts.
type docSpans struct {
	attempts [4][]span
}

func (d *docSpans) first() int64 {
	f := int64(-1)
	for _, st := range d.attempts {
		for _, s := range st {
			if f < 0 || s.t0 < f {
				f = s.t0
			}
		}
	}
	return f
}

func (d *docSpans) all() []span {
	var out []span
	for _, st := range d.attempts {
		out = append(out, st...)
	}
	return out
}

// covered returns how much of [w.t0, w.t1] the spans cover (their union
// clipped to the window).
func covered(spans []span, w span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].t0 < spans[j].t0 })
	var total, end int64 = 0, w.t0
	for _, s := range spans {
		lo, hi := max(s.t0, end), min(s.t1, w.t1)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// serveLayers reduces a traced serve run: calls are the client's
// answered requests, texts(op) the documents each request carried.
// It sets the HTTP, serve and stream layer metrics plus the trace
// coverage: the layers' self times summed over the time the requests
// spent from due to answered.
func (t *tracer) serveLayers(r *report, calls []call, texts func(op int) []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byText := map[string]*docSpans{}
	retries := 0
	for _, s := range t.stages {
		if s.stage < 0 {
			continue
		}
		d := byText[s.text]
		if d == nil {
			d = &docSpans{}
			byText[s.text] = d
		}
		if len(d.attempts[s.stage]) > 0 {
			retries++
		}
		d.attempts[s.stage] = append(d.attempts[s.stage], s.span)
	}
	var transport, handlerSelf, queueWait, runnerSelf []float64
	var stageUS [4][]float64
	var layers, e2e float64
	for i := range calls {
		c := &calls[i]
		h, ok := t.handlers[c.idx]
		if !c.ok() || !ok {
			continue
		}
		rt := int64(c.done - c.sent)
		tr := float64(rt-h.dur()) / 1e3
		transport = append(transport, tr)
		var spans []span
		for _, text := range texts(c.idx) {
			d := byText[text]
			if d == nil {
				continue
			}
			ds := d.all()
			spans = append(spans, ds...)
			first, last, sum := d.first(), int64(0), int64(0)
			for _, s := range ds {
				last = max(last, s.t1)
				sum += s.dur()
			}
			queueWait = append(queueWait, float64(first-h.t0)/1e3)
			runnerSelf = append(runnerSelf, float64(last-first-sum)/1e3)
			for st := range d.attempts {
				var us int64
				for _, s := range d.attempts[st] {
					us += s.dur()
				}
				stageUS[st] = append(stageUS[st], float64(us)/1e3)
			}
		}
		cov := covered(spans, h)
		handlerSelf = append(handlerSelf, float64(h.dur()-cov)/1e3)
		layers += tr + float64(h.dur())/1e3
		e2e += float64(c.latency()) / 1e3
	}
	r.set("http.transport_us", mean(transport), len(transport), "mean per request: client round trip minus handler span")
	r.set("serve.handler_self_us", mean(handlerSelf), len(handlerSelf), "mean per request: handler span minus its documents' stage spans")
	r.set("serve.queue_wait_us", mean(queueWait), len(queueWait), "mean per document: handler entry to first stage start")
	r.set("stream.runner_self_us", mean(runnerSelf), len(runnerSelf), "mean per document: first stage start to last stage end, minus stage spans")
	for st, s := range streamStages {
		r.set(s.metric, mean(stageUS[st]), len(stageUS[st]), "mean per document, all attempts")
	}
	r.set("stream.retries", float64(retries), len(t.stages), "stage attempts beyond the first")
	if e2e > 0 {
		r.set("trace.coverage_ratio", layers/e2e, len(transport), "(transport + handler span) / latency from due")
	}
}

// layerPass times direct calls into the scoring and annotation modules
// over docs, one goroutine, one module at a time, and sets their
// per-document time, allocations and match ratios. p supplies the
// trained tokenizer and hasher, det the trained CTH model.
func layerPass(r *report, p *core.Pipeline, det *core.Detector, docs []string) {
	n := len(docs)
	if n == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(n) }
	timed := func(fn func(i int)) (time.Duration, float64) {
		runtime.GC()
		m := startMem()
		t0 := time.Now()
		for i := range docs {
			fn(i)
		}
		el := time.Since(t0)
		_, mallocs, _ := m.read()
		return el, float64(mallocs) / float64(n)
	}
	note := "mean per document over " + strconv.Itoa(n) + " documents, one goroutine"

	maxLen := p.Config.CTHTextLen
	sess := p.Tokenizer.NewSession()
	toks := make([][]string, n)
	el, allocs := timed(func(i int) {
		toks[i] = sess.Tokenize(docs[i])
	})
	// The session reuses its arena: copy each result outside the timing.
	for i := range docs {
		toks[i] = append([]string(nil), tokenize.Truncate(sess.Tokenize(docs[i]), maxLen)...)
	}
	r.set("tokenize.us_per_doc", per(el), n, note)
	r.set("tokenize.allocs_per_doc", allocs, n, note)

	feat := p.Hasher.NewFeaturizer()
	var sink float64
	el, allocs = timed(func(i int) {
		sink += float64(len(feat.Vectorize(toks[i]).Indices))
	})
	r.set("features.us_per_doc", per(el), n, note)
	r.set("features.allocs_per_doc", allocs, n, note)

	// The featurizer reuses its vector: copy each one outside the timing.
	vecs := make([]features.Vector, n)
	for i := range docs {
		v := feat.Vectorize(toks[i])
		vecs[i] = features.Vector{Indices: slices.Clone(v.Indices), Values: slices.Clone(v.Values)}
	}
	m := det.TaskModel(annotate.TaskCTH)
	el, allocs = timed(func(i int) {
		sink += m.Score(vecs[i])
	})
	r.set("model.us_per_doc", per(el), n, note)
	r.set("model.allocs_per_doc", allocs, n, note)

	ext := pii.NewExtractor()
	hits := 0
	var scratch [9]pii.Type
	el, _ = timed(func(i int) {
		if len(ext.AppendTypes(scratch[:0], docs[i])) > 0 {
			hits++
		}
	})
	r.set("pii.us_per_doc", per(el), n, note)
	r.set("pii.hit_ratio", float64(hits)/float64(n), n, "documents with >= 1 PII match / documents scanned")

	cat := taxonomy.NewCategorizer()
	hits = 0
	el, _ = timed(func(i int) {
		if len(cat.Categorize(docs[i]).Subs()) > 0 {
			hits++
		}
	})
	r.set("taxonomy.us_per_doc", per(el), n, note)
	r.set("taxonomy.hit_ratio", float64(hits)/float64(n), n, "documents with >= 1 attack subcategory / documents scanned")

	q := query.WithAttackTerms(query.Figure4())
	el, _ = timed(func(i int) {
		if q.Match(docs[i]) {
			sink++
		}
	})
	r.set("query.us_per_doc", per(el), n, note)
	layerSink = sink
}

// layerSink keeps layerPass's timed results observable, so the compiler
// cannot drop the calls.
var layerSink float64

// sampleTexts picks up to n texts spread evenly over docs.
func sampleTexts(docs []corpus.Document, n int) []string {
	step := max(1, len(docs)/n)
	var out []string
	for i := 0; i < len(docs) && len(out) < n; i += step {
		out = append(out, docs[i].Text)
	}
	return out
}
