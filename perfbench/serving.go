package main

// The serve workloads: an in-process harassd (a trained quick detector
// behind serve.Server on a loopback listener, with harassd's defaults:
// annotation on, min(GOMAXPROCS, 8) shards, a metrics registry) driven
// by the load generator. Untraced and traced runs differ only by the
// benchmark's wrappers around the handler and the stream stages.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"harassrepro/internal/core"
	"harassrepro/internal/obs"
	"harassrepro/internal/obs/obshttp"
	"harassrepro/internal/pii"
	"harassrepro/internal/serve"
	"harassrepro/internal/taxonomy"
)

// serveEnv is one running server and the client that drives it.
type serveEnv struct {
	srv    *serve.Server
	web    *obshttp.Server
	url    string
	client *http.Client
}

// trainDetector trains the quick-scale detector the way harassd does at
// startup.
func trainDetector(seed uint64) (*core.Pipeline, *core.Detector, error) {
	p, err := core.RunWithOptions(core.QuickConfig(seed), core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("training: %w", err)
	}
	return p, p.Detector(), nil
}

// startServer serves det on a loopback port and waits for /readyz. A
// non-nil tracer wraps the handler and the backend's stream stages.
func startServer(det *core.Detector, seed uint64, tr *tracer, conns int) (*serveEnv, error) {
	var backend serve.Backend = det
	if tr != nil {
		backend = tracedBackend{det: det, tr: tr}
	}
	srv := serve.New(serve.Config{
		Model:    &serve.Model{Backend: backend, Generation: 1, Seed: seed, Thresholds: det},
		Seed:     seed,
		Annotate: true,
		Metrics:  obs.NewRegistry(),
	})
	h := srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	web, err := obshttp.ServeHandler("127.0.0.1:0", h)
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // nothing was admitted
		return nil, err
	}
	e := &serveEnv{srv: srv, web: web, url: "http://" + web.Addr().String(), client: newClient(conns)}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := e.client.Get(e.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return e, nil
			}
		}
		if time.Now().After(deadline) {
			e.close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("server not ready after 30s (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close drains the server and its listener.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if werr := e.web.Close(ctx); err == nil {
		err = werr
	}
	e.client.CloseIdleConnections()
	return err
}

// setupServe trains and starts the server reps times, keeping the last.
// A set-up is training, server start and the first ready /readyz;
// setup_s is the median of their CPU times (less the stolen share, see
// cpuMeter), setup_wall_s of their wall times.
func setupServe(r *report, reps int, conns int) (*core.Pipeline, *core.Detector, *serveEnv, error) {
	var times, cpus []float64
	for k := 0; ; k++ {
		t0, c0 := time.Now(), startCPU()
		p, det, err := trainDetector(r.Seed)
		if err != nil {
			return nil, nil, nil, err
		}
		env, err := startServer(det, r.Seed, nil, conns)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		cpus = append(cpus, c0.used().Seconds())
		if k == reps-1 {
			r.set("setup_s", median(cpus), len(cpus), "median process CPU of set-ups (train quick detector, start server, /readyz), less the stolen share")
			r.set("setup_wall_s", median(times), len(times), "median wall time of the same set-ups")
			return p, det, env, nil
		}
		if err := env.close(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// serveCounts are the serve counters the client's tallies reconcile
// against, read from /metrics.json.
type serveCounts struct {
	requests map[string]float64 // status code -> requests on the route
	docs     float64
	shed     float64
	redisp   float64
	lost     float64
	restarts float64
}

func (e *serveEnv) counts(route string) (serveCounts, error) {
	resp, err := e.client.Get(e.url + "/metrics.json")
	if err != nil {
		return serveCounts{}, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return serveCounts{}, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	c := serveCounts{requests: map[string]float64{}}
	for _, m := range snap.Metrics {
		if m.Value == nil {
			continue
		}
		v := float64(*m.Value)
		label := func(name string) string {
			for _, l := range m.Labels {
				if l.Name == name {
					return l.Value
				}
			}
			return ""
		}
		switch m.Name {
		case "serve_requests_total":
			if label("route") == route {
				c.requests[label("code")] += v
			}
		case "serve_docs_total":
			c.docs += v
		case "serve_shed_total":
			c.shed += v
		case "serve_redispatch_total":
			c.redisp += v
		case "serve_redispatch_failed_total":
			c.lost += v
		case "serve_shard_restarts_total":
			c.restarts += v
		}
	}
	return c, nil
}

// tally is the client's view of a run.
type tally struct {
	sent, ok, refused, failed int
	docs                      int // documents answered in 200s
	byCode                    map[int]int
}

// reconcile checks the client's tally against the server's counter
// deltas; a lost or double-counted request fails the run.
func reconcile(r *report, t tally, before, after serveCounts) {
	var reqs float64
	for _, v := range after.requests {
		reqs += v
	}
	for _, v := range before.requests {
		reqs -= v
	}
	check := func(what string, client int, server float64) {
		if float64(client) != server {
			r.problem("accounting: %s: client counted %d, server counters moved by %.0f", what, client, server)
		}
	}
	check("requests sent (serve_requests_total)", t.sent, reqs)
	check("200 answers (serve_requests_total{code=200})", t.ok, after.requests["200"]-before.requests["200"])
	check("documents answered (serve_docs_total)", t.docs, after.docs-before.docs)
	check("429 refusals (serve_shed_total)", t.byCode[http.StatusTooManyRequests], after.shed-before.shed)
	check("503 shard-lost answers (serve_redispatch_failed_total)", t.byCode[http.StatusServiceUnavailable], after.lost-before.lost)
}

// expectation is what the annotators return for one text.
type expectation struct{ pii, attacks []string }

// expectAll computes the PII types and attack subcategories for texts
// with the same public annotators the server runs, on every core.
func expectAll(texts []string) []expectation {
	out := make([]expectation, len(texts))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ext, cat := pii.NewExtractor(), taxonomy.NewCategorizer()
			for i := w; i < len(texts); i += workers {
				for _, t := range ext.Types(texts[i]) {
					out[i].pii = append(out[i].pii, string(t))
				}
				for _, s := range cat.Categorize(texts[i]).Subs() {
					out[i].attacks = append(out[i].attacks, string(s))
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// checkResult compares one scored document with its expectation.
func checkResult(r *report, res *serve.ScoreResult, want expectation, text string) bool {
	bad := ""
	switch {
	case res.Status != "ok":
		bad = "status " + res.Status + " " + res.Error
	case res.ModelGen != 1:
		bad = fmt.Sprintf("model generation %d, want 1", res.ModelGen)
	case !slices.Equal(res.PII, want.pii):
		bad = fmt.Sprintf("pii %v, want %v", res.PII, want.pii)
	case !slices.Equal(res.Attacks, want.attacks):
		bad = fmt.Sprintf("attacks %v, want %v", res.Attacks, want.attacks)
	case res.CTH < 0 || res.CTH > 1 || res.Dox < 0 || res.Dox > 1:
		bad = fmt.Sprintf("scores out of [0,1]: cth %v dox %v", res.CTH, res.Dox)
	default:
		return true
	}
	r.problem("document %q: %s", clip(text, 60), bad)
	return false
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// tallyCalls counts outcomes; docsOf reports how many documents a 200
// answer carried.
func tallyCalls(calls []call, docsOf func(c *call) int) tally {
	t := tally{byCode: map[int]int{}}
	for i := range calls {
		c := &calls[i]
		if c.err != nil {
			t.failed++
			continue
		}
		t.sent++
		t.byCode[c.code]++
		switch c.code {
		case http.StatusOK:
			t.ok++
			t.docs += docsOf(c)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			t.refused++
		default:
			t.failed++
		}
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
