package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"harassrepro/internal/corpus"
	"harassrepro/internal/randx"
	"harassrepro/internal/serve"
)

// liveRates are the open-loop steps in requests per second, doubling.
// The top step must offer more than the server answers over nproc
// connections, so that its answered rate measures capacity.
var liveRates = []float64{600, 1200, 2400, 4800, 9600}

// Limits a live step is judged by: its tail latency, and a backlog that
// does not grow — at most liveBacklogMax of its requests still unsent
// liveGrace after its window closes, time enough to clear a transient
// stall but not a rate above capacity.
const (
	liveTailLimit  = 50 * time.Millisecond // tail latency from the scheduled send
	liveBacklogMax = 0.01                  // unsent requests, share of the step
	liveGrace      = 250 * time.Millisecond
	liveWarmup     = time.Second
	serveSetupReps = 3
)

// liveStep is one rate step's outcome.
type liveStep struct {
	Rate      float64 `json:"rate"`
	Scheduled int     `json:"scheduled"`
	Sent      int     `json:"sent"`
	Unsent    int     `json:"unsent"`
	OK        int     `json:"ok"`
	P50ms     float64 `json:"p50_ms"`
	TailQ     float64 `json:"tail_q"`
	TailMs    float64 `json:"tail_ms"`
	BacklogOK bool    `json:"backlog_within_limit"`
	TailMet   bool    `json:"tail_within_limit"`
	Elapsed   float64 `json:"elapsed_s"` // step start to its last answer
	CPU       float64 `json:"cpu_s"`     // process CPU time over the step, less the stolen share
	calls     []call
}

// stepPlan is a step's seeded arrival schedule and its first text.
type stepPlan struct {
	rate     float64
	window   time.Duration
	schedule []time.Duration
	first    int // index of the step's first text in the run's texts
	op0      int // added to request indices to form their op ids
}

// warmOps keeps warm-up op ids clear of the measured ones.
const warmOps = 1 << 30

// planSteps lays out the run's steps back to back over the texts: the
// first step, where latency is read, gets 40% of the budget and the
// others share the rest.
func planSteps(seed uint64, budget time.Duration, rates []float64) (plans []stepPlan, texts int) {
	rng := randx.New(seed).Split("arrivals")
	for i, rate := range rates {
		w := budget * 3 / 5 / time.Duration(len(rates)-1)
		if i == 0 {
			w = budget * 2 / 5
		}
		sched := poissonSchedule(rng.SplitN("step", i), rate, w)
		plans = append(plans, stepPlan{rate: rate, window: w, schedule: sched, first: texts})
		texts += len(sched)
	}
	return plans, texts
}

// runStep drives one open-loop step and summarises it.
func runStep(env *serveEnv, conns int, base time.Time, p stepPlan, docs []corpus.Document) liveStep {
	start, c0 := time.Now(), startCPU()
	calls, unsent := openLoop(context.Background(), env.client, env.url+"/v1/score", conns, base, time.Now(),
		p.schedule, p.window+liveGrace,
		func(i int) []byte { return singleBody(&docs[p.first+i]) },
		func(i int) int { return p.op0 + p.first + i })
	for i := range calls {
		calls[i].idx += p.first
	}
	st := liveStep{Rate: p.rate, Scheduled: len(p.schedule), Sent: len(calls), Unsent: unsent, calls: calls,
		Elapsed: time.Since(start).Seconds(), CPU: c0.used().Seconds()}
	var ok, all []float64
	for i := range calls {
		lat := ms(calls[i].latency())
		if calls[i].ok() {
			st.OK++
			ok = append(ok, lat)
		} else {
			lat = ms(time.Hour) // a failed or refused request misses any limit
		}
		all = append(all, lat)
	}
	st.P50ms = median(ok)
	st.TailQ, st.TailMs = tail(all)
	st.BacklogOK = float64(unsent) <= liveBacklogMax*float64(st.Scheduled)
	st.TailMet = st.TailMs <= ms(liveTailLimit)
	return st
}

// warmupPlan is the unmeasured second at the first rate that lets the
// server's and annotators' caches fill before timing.
func warmupPlan(seed uint64) stepPlan {
	return stepPlan{rate: liveRates[0], window: liveWarmup, op0: warmOps,
		schedule: poissonSchedule(randx.New(seed).Split("warmup"), liveRates[0], liveWarmup)}
}

func runLive(r *report) error {
	conns := runtime.NumCPU()
	if r.Trace {
		return traceLive(r, conns)
	}
	plans, n := planSteps(r.Seed, r.budget(), liveRates)
	warmPlan := warmupPlan(r.Seed)
	in := makeLiveInputs(r.Seed, len(warmPlan.schedule), n)
	warm, docs := in.warm, in.docs

	_, _, env, err := setupServe(r, serveSetupReps, conns)
	if err != nil {
		return err
	}
	defer env.close() //nolint:errcheck // the clean close is checked below
	rss := startRSS()
	base := time.Now()
	runStep(env, conns, base, warmPlan, warm)
	before, err := env.counts("score")
	if err != nil {
		return err
	}
	var steps []liveStep
	for _, p := range plans {
		steps = append(steps, runStep(env, conns, base, p, docs))
	}
	r.set("peak_rss_mb", rss.peakMB(r), 0, "peak resident set while the steps ran")
	after, err := env.counts("score")
	if err != nil {
		return err
	}
	if err := env.close(); err != nil {
		r.problem("server drain: %v", err)
	}

	var calls []call
	for _, st := range steps {
		calls = append(calls, st.calls...)
	}
	t := tallyCalls(calls, func(*call) int { return 1 })
	reconcile(r, t, before, after)
	verifyLive(r, calls, docs)
	r.Attempted, r.Failed = t.sent+t.failed, t.refused+t.failed
	// CPU cost is read where the cores are busy: at the two top steps.
	// Below them the process idles between arrivals, and the idle
	// runtime's polling and the stolen share of idle vCPUs blur the cost.
	var cpu float64
	answered := 0
	for _, st := range steps[len(steps)-2:] {
		cpu += st.CPU
		answered += st.OK
	}
	r.set("cpu_us_per_doc", 1e6*cpu/float64(max(answered, 1)), answered,
		fmt.Sprintf("process CPU (server and load generator), less the stolen share / requests answered at %.0f and %.0f req/s", steps[len(steps)-2].Rate, steps[len(steps)-1].Rate))

	first := steps[0]
	var lat []float64
	for i := range first.calls {
		if first.calls[i].ok() {
			lat = append(lat, ms(first.calls[i].latency()))
		}
	}
	q, v := tail(lat)
	r.set("latency_p50_ms", first.P50ms, len(lat), fmt.Sprintf("request at %.0f req/s, from scheduled send", first.Rate))
	r.set("latency_tail_ms", v, len(lat), fmt.Sprintf("p%g at %.0f req/s, from scheduled send", 100*q, first.Rate))
	// Throughput is read at the top step, offered more than the service
	// answers: how many requests it sustains over nproc connections. The
	// highest step meeting both limits is in the report; it sits at the
	// knee, where machine noise flips it between neighbouring steps.
	top := steps[len(steps)-1]
	rate := float64(top.OK) / top.Elapsed
	note := fmt.Sprintf("answered/s when offered %.0f req/s (backlog %d)", top.Rate, top.Unsent)
	r.set("sustained_rps", rate, top.OK, note)
	r.set("docs_per_s", rate, top.OK, "documents answered/s at the top step (one per request)")
	for _, st := range steps {
		if st.BacklogOK && st.TailMet {
			r.Extra["highest_step_meeting_limits_rps"] = st.Rate
		}
	}
	r.Extra["steps"] = steps
	return nil
}

// verifyLive checks every 200 against the annotators' own answer.
func verifyLive(r *report, calls []call, docs []corpus.Document) {
	texts := make([]string, len(calls))
	for i := range calls {
		texts[i] = docs[calls[i].idx].Text
	}
	want := expectAll(texts)
	for i := range calls {
		if !calls[i].ok() {
			continue
		}
		var res serve.ScoreResult
		if err := json.Unmarshal(calls[i].body, &res); err != nil {
			r.problem("decoding answer: %v", err)
			continue
		}
		checkResult(r, &res, want[i], texts[i])
	}
}

// traceLive measures the first step twice in one invocation, untraced
// then traced, and reduces the traced spans to the per-layer metrics.
func traceLive(r *report, conns int) error {
	window := r.budget() / 2
	rng := randx.New(r.Seed).Split("trace-arrivals")
	plans := [2]stepPlan{}
	n := 0
	for i := range plans {
		sched := poissonSchedule(rng.SplitN("phase", i), liveRates[0], window)
		plans[i] = stepPlan{rate: liveRates[0], window: window, schedule: sched, first: n}
		n += len(sched)
	}
	warmPlan := warmupPlan(r.Seed)
	in := makeLiveInputs(r.Seed, 2*len(warmPlan.schedule), n)
	warm, docs := in.warm, in.docs

	p, det, err := trainDetector(r.Seed)
	if err != nil {
		return err
	}
	var p50 [2]float64
	for phase := range plans {
		var tr *tracer
		base := time.Now()
		if phase == 1 {
			tr = newTracer(base)
		}
		env, err := startServer(det, r.Seed, tr, conns)
		if err != nil {
			return err
		}
		warmPhase := warmPlan
		warmPhase.first = phase * len(warmPlan.schedule)
		runStep(env, conns, base, warmPhase, warm)
		before, err := env.counts("score")
		if err != nil {
			env.close() //nolint:errcheck // already failing
			return err
		}
		mem := startMem()
		st := runStep(env, conns, base, plans[phase], docs)
		allocBytes, _, gcPause := mem.read()
		after, err := env.counts("score")
		if cerr := env.close(); err == nil && cerr != nil {
			r.problem("server drain: %v", cerr)
		}
		if err != nil {
			return err
		}
		t := tallyCalls(st.calls, func(*call) int { return 1 })
		reconcile(r, t, before, after)
		verifyLive(r, st.calls, docs)
		r.Attempted += t.sent + t.failed
		r.Failed += t.refused + t.failed
		p50[phase] = st.P50ms
		if phase == 0 {
			var lag []float64
			for i := range st.calls {
				lag = append(lag, ms(st.calls[i].sent-st.calls[i].due))
			}
			q, v := tail(lag)
			r.set("loadgen.lag_tail_ms", v, len(lag), fmt.Sprintf("p%g of send time minus scheduled time at %.0f req/s", 100*q, st.Rate))
			r.set("runtime.alloc_bytes_per_doc", float64(allocBytes)/float64(max(t.docs, 1)), t.docs, "bytes allocated by the process per answered document, untraced")
			r.set("runtime.gc_pause_ms", ms(gcPause), 0, "total GC pause during the untraced step")
			r.set("serve.refused", after.shed-before.shed+float64(t.byCode[503]), 0, "429 and 503 answers")
			r.set("serve.redispatched", after.redisp-before.redisp, 0, "serve_redispatch_total delta")
			r.set("serve.shard_restarts", after.restarts-before.restarts, 0, "serve_shard_restarts_total delta")
			continue
		}
		tr.serveLayers(r, st.calls, func(op int) []string { return []string{docs[op].Text} })
	}
	if p50[0] > 0 {
		r.set("trace.overhead_ratio", p50[1]/p50[0], 2, "traced / untraced p50 latency at the first step")
	}
	layerPass(r, p, det, sampleTexts(docs, 2000))
	return nil
}
