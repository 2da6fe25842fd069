package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/obs"
	"harassrepro/internal/randx"
	"harassrepro/internal/serve"
)

const (
	bulkBatchDocs = 256
	// bulkBatchesPerSecond caps the batches generated per measured
	// second (about 4k documents/s, twice what a 2-core x86 machine
	// answers on this mix); a faster server ends its window early when
	// they run out, and its rate stays exact.
	bulkBatchesPerSecond = 16
	bulkWarmBatches      = 8
)

// bulkInputs are the warm-up and measured batches with their bodies.
type bulkInputs struct {
	warm, batches [][]corpus.Document
	warmBodies    [][]byte
	bodies        [][]byte
}

func makeBulkInputs(seed uint64, n int) bulkInputs {
	src := newDocSource(seed, true)
	rng := randx.New(seed).Split("bulk")
	in := bulkInputs{
		warm:    makeBatches(src, rng, bulkWarmBatches, bulkBatchDocs),
		batches: makeBatches(src, rng, n, bulkBatchDocs),
	}
	for _, b := range in.warm {
		in.warmBodies = append(in.warmBodies, batchBody(b))
	}
	for _, b := range in.batches {
		in.bodies = append(in.bodies, batchBody(b))
	}
	return in
}

func runBulk(r *report) error {
	conns := runtime.NumCPU()
	window := r.budget()
	if r.Trace {
		window /= 2
	}
	in := makeBulkInputs(r.Seed, int(window.Seconds()*bulkBatchesPerSecond))

	reps := serveSetupReps
	if r.Trace {
		reps = 1
	}
	p, det, env, err := setupServe(r, reps, conns)
	if err != nil {
		return err
	}
	base := time.Now()
	closedLoop(context.Background(), env.client, env.url+"/v1/score/batch", conns, base, in.warmBodies, time.Minute,
		func(i int) int { return warmOps + i })
	before, err := env.counts("batch")
	if err != nil {
		env.close() //nolint:errcheck // already failing
		return err
	}
	rss := startRSS()
	mem := startMem()
	t0, c0 := time.Now(), startCPU()
	calls := closedLoop(context.Background(), env.client, env.url+"/v1/score/batch", conns, base, in.bodies, window,
		func(i int) int { return i })
	elapsed, cpu := time.Since(t0), c0.used()
	allocBytes, _, gcPause := mem.read()
	peak := rss.peakMB(r)
	after, err := env.counts("batch")
	if cerr := env.close(); err == nil && cerr != nil {
		r.problem("server drain: %v", cerr)
	}
	if err != nil {
		return err
	}
	t := tallyCalls(calls, func(c *call) int { return bulkBatchDocs })
	reconcile(r, t, before, after)
	verifyBulk(r, calls, in.batches)
	r.Attempted, r.Failed = t.sent+t.failed, t.refused+t.failed

	var lat []float64
	for i := range calls {
		if calls[i].ok() {
			lat = append(lat, ms(calls[i].latency()))
		}
	}
	docsPerS := float64(t.docs) / elapsed.Seconds()
	if r.Trace {
		r.set("runtime.alloc_bytes_per_doc", float64(allocBytes)/float64(max(t.docs, 1)), t.docs, "bytes allocated by the process per answered document, untraced")
		r.set("runtime.gc_pause_ms", ms(gcPause), 0, "total GC pause during the untraced window")
		r.set("serve.refused", after.shed-before.shed+float64(t.byCode[503]), 0, "429 and 503 answers")
		r.set("serve.redispatched", after.redisp-before.redisp, 0, "serve_redispatch_total delta")
		r.set("serve.shard_restarts", after.restarts-before.restarts, 0, "serve_shard_restarts_total delta")
		return traceBulk(r, p, det, conns, window, docsPerS)
	}
	q, v := tail(lat)
	r.set("peak_rss_mb", peak, 0, "peak resident set during the closed loop")
	r.set("latency_p50_ms", median(lat), len(lat), fmt.Sprintf("%d-document batch request", bulkBatchDocs))
	r.set("latency_tail_ms", v, len(lat), fmt.Sprintf("p%g of %d-document batch requests", 100*q, bulkBatchDocs))
	r.set("sustained_rps", float64(t.ok)/elapsed.Seconds(), t.ok, fmt.Sprintf("batch requests answered/s, closed loop, %d connections", conns))
	r.set("docs_per_s", docsPerS, t.docs, "documents scored and answered/s")
	r.set("cpu_us_per_doc", float64(cpu)/1e3/float64(max(t.docs, 1)), t.docs, "process CPU (server and client) over the closed loop, less the stolen share / documents answered")
	r.Extra["batches_generated"] = len(in.bodies)
	var textBytes int
	for i := range calls {
		for _, d := range in.batches[calls[i].idx] {
			textBytes += len(d.Text)
		}
	}
	r.Extra["text_bytes_per_doc"] = float64(textBytes) / float64(max(t.docs, 1))
	return nil
}

// verifyBulk checks every document of every 200 against the annotators'
// own answer, in input order.
func verifyBulk(r *report, calls []call, batches [][]corpus.Document) {
	var texts []string
	for i := range calls {
		for _, d := range batches[calls[i].idx] {
			texts = append(texts, d.Text)
		}
	}
	want := expectAll(texts)
	k := 0
	for i := range calls {
		docs := batches[calls[i].idx]
		if !calls[i].ok() {
			k += len(docs)
			continue
		}
		var resp serve.BatchResponse
		if err := json.Unmarshal(calls[i].body, &resp); err != nil {
			r.problem("decoding batch answer: %v", err)
			k += len(docs)
			continue
		}
		if len(resp.Results) != len(docs) || resp.Summary.OK != len(docs) || resp.Summary.BadLines != 0 {
			r.problem("batch %d: %d results, summary %+v, want %d ok", calls[i].idx, len(resp.Results), resp.Summary, len(docs))
			k += len(docs)
			continue
		}
		for j := range docs {
			if resp.Results[j].ID != docs[j].ID {
				r.problem("batch %d result %d: id %q, want %q", calls[i].idx, j, resp.Results[j].ID, docs[j].ID)
			}
			checkResult(r, &resp.Results[j], want[k], texts[k])
			k++
		}
	}
}

// traceBulk runs a second window on a traced server, reduces its spans,
// times the layers directly over a sample of the documents, and
// measures the obs registry's cost on ScoreBatch.
func traceBulk(r *report, p *core.Pipeline, det *core.Detector, conns int, window time.Duration, untracedDocsPerS float64) error {
	in := makeBulkInputs(r.Seed+1, int(window.Seconds()*bulkBatchesPerSecond))
	base := time.Now()
	tr := newTracer(base)
	env, err := startServer(det, r.Seed, tr, conns)
	if err != nil {
		return err
	}
	closedLoop(context.Background(), env.client, env.url+"/v1/score/batch", conns, base, in.warmBodies, time.Minute,
		func(i int) int { return warmOps + i })
	t0 := time.Now()
	calls := closedLoop(context.Background(), env.client, env.url+"/v1/score/batch", conns, base, in.bodies, window,
		func(i int) int { return i })
	elapsed := time.Since(t0)
	if err := env.close(); err != nil {
		r.problem("server drain: %v", err)
	}
	t := tallyCalls(calls, func(c *call) int { return bulkBatchDocs })
	verifyBulk(r, calls, in.batches)
	r.Attempted += t.sent + t.failed
	r.Failed += t.refused + t.failed
	tr.serveLayers(r, calls, func(op int) []string {
		var texts []string
		for _, d := range in.batches[op] {
			texts = append(texts, d.Text)
		}
		return texts
	})
	if traced := float64(t.docs) / elapsed.Seconds(); traced > 0 {
		r.set("trace.overhead_ratio", untracedDocsPerS/traced, 2, "untraced / traced docs_per_s")
	}
	// In a closed loop the layers (transport + handler) cover each
	// connection's busy time; the rest is the client's own work.
	var busy float64
	for i := range calls {
		busy += float64(calls[i].done - calls[i].sent)
	}
	r.set("trace.coverage_ratio", busy/(float64(conns)*float64(elapsed)), len(calls),
		"(transport + handler span) / (connections x window)")

	var docs []corpus.Document
	for _, b := range in.batches[:min(len(in.batches), 8)] {
		docs = append(docs, b...)
	}
	layerPass(r, p, det, sampleTexts(docs, 2000))
	r.set("obs.overhead_ratio", obsOverhead(det, docs), len(docs), "ScoreBatch with / without a metrics registry, median of 5 pairs")
	return nil
}

// obsOverhead times ScoreBatch over docs with and without a metrics
// registry, alternating, and returns the median ratio.
func obsOverhead(det *core.Detector, docs []corpus.Document) float64 {
	sd := make([]core.StreamDoc, len(docs))
	for i := range docs {
		sd[i] = core.StreamDoc{ID: docs[i].ID, Platform: string(docs[i].Platform), Text: docs[i].Text}
	}
	run := func(reg *obs.Registry) time.Duration {
		t0 := time.Now()
		det.ScoreBatch(context.Background(), sd, core.StreamOptions{Annotate: true, Metrics: reg}) //nolint:errcheck // timing only
		return time.Since(t0)
	}
	run(nil)
	var ratios []float64
	for k := 0; k < 5; k++ {
		without := run(nil)
		with := run(obs.NewRegistry())
		ratios = append(ratios, float64(with)/float64(without))
	}
	return median(ratios)
}
