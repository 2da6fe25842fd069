package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/obs"
)

// storeOpenReps is how many times set-up opens a store; setup_s is the
// median.
const storeOpenReps = 15

// buildQuickStore writes the store `corpusgen -store` builds for the
// quick config at seed: Generate then GenerateBlogs, committed in the
// fixed Table 1 order.
func buildQuickStore(dir string, seed uint64) error {
	corpora, blogs := generateQuick(seed)
	return writeStore(dir, corpora, blogs)
}

// writeStore commits the corpora and blogs to a new store at dir.
func writeStore(dir string, corpora map[corpus.Dataset]*corpus.Corpus, blogs *corpus.Corpus) error {
	s, err := store.Create(dir)
	if err != nil {
		return err
	}
	if err := store.WriteCorpora(s, corpora, blogs, 0); err != nil {
		s.Close() //nolint:errcheck // already failing
		return err
	}
	return s.Close()
}

// openTimed opens dir reps times, closing all but the last, and records
// setup_s (median CPU time, less the share stolen over all the opens),
// setup_wall_s and store.open_ms (median wall time, in s and ms).
func openTimed(r *report, dir string, reps int) (*store.Store, error) {
	var times, cpus []float64
	ticks := readCPUTicks()
	for k := 0; ; k++ {
		t0, c0 := time.Now(), processCPU()
		s, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		cpus = append(cpus, (processCPU() - c0).Seconds())
		if k == reps-1 {
			setup := unsteal(time.Duration(median(cpus)*1e9), ticks.stealSince())
			r.set("setup_s", setup.Seconds(), len(cpus), "median process CPU of store.Open on the seeded store, less the stolen share")
			r.set("setup_wall_s", median(times), len(times), "median wall time of the same opens")
			r.set("store.open_ms", 1e3*median(times), len(times), "median of store.Open")
			return s, nil
		}
		if err := s.Close(); err != nil {
			return nil, err
		}
	}
}

// studyOutputs runs the pipeline and all 33 experiments and returns
// their outputs by id.
func studyOutputs(cfg core.Config, opts core.Options) (map[string]string, error) {
	p, err := core.RunWithOptions(cfg, opts)
	if err != nil {
		return nil, err
	}
	res, err := p.RunExperiments(context.Background(), nil, opts.Workers)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range res {
		if e.Err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.ID, e.Err)
		}
		out[e.ID] = e.Output
	}
	return out, nil
}

func runStudy(r *report) error {
	dir := filepath.Join(r.work, "store")
	if err := buildQuickStore(dir, r.Seed); err != nil {
		return fmt.Errorf("building store: %w", err)
	}
	s, err := openTimed(r, dir, storeOpenReps)
	if err != nil {
		return err
	}
	docs, segs, segBytes := s.Docs(), len(s.Segments()), int64(0)
	for _, si := range s.Segments() {
		segBytes += si.SegBytes
	}
	if err := s.Close(); err != nil {
		return err
	}

	cfg := core.QuickConfig(r.Seed)
	if r.Trace {
		return traceStudy(r, dir, segs, segBytes)
	}
	// One unmeasured run warms the page cache and the heap.
	warm, err := studyOutputs(cfg, core.Options{StorePath: dir})
	if err != nil {
		return err
	}
	rss := startRSS()
	walls := []float64{}
	runs := []map[string]string{warm}
	t0, c0 := time.Now(), startCPU()
	for len(walls) < 3 || time.Since(t0) < r.budget() {
		ts := time.Now()
		out, err := studyOutputs(cfg, core.Options{StorePath: dir})
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(ts).Seconds())
		runs = append(runs, out)
	}
	elapsed := time.Since(t0)
	cpu := c0.used()
	r.set("peak_rss_mb", rss.peakMB(r), 0, "peak resident set over the study runs")
	checkStudy(r, runs)
	r.Attempted = len(walls) * len(experimentIDs)

	wall := median(walls)
	q, v := tail(walls)
	r.set("latency_p50_ms", 1e3*wall, len(walls), "one study run (store-backed pipeline + 33 experiments)")
	r.set("latency_tail_ms", 1e3*v, len(walls), fmt.Sprintf("p%g of study runs (max when under %d runs)", 100*q, 2*minBeyond))
	r.set("sustained_rps", float64(len(walls))/elapsed.Seconds(), len(walls), "study runs completed/s, back to back")
	r.set("docs_per_s", float64(docs)/wall, len(walls), fmt.Sprintf("%d store documents / median study wall", docs))
	r.set("cpu_us_per_doc", float64(cpu)/1e3/float64(len(walls)*docs), len(walls)*docs,
		fmt.Sprintf("process CPU of the study runs, less the stolen share / (runs x %d store documents)", docs))
	r.set("wall_s", wall, len(walls), "median study run: store-backed pipeline + all 33 experiments")
	r.Extra["walls_s"] = walls
	return nil
}

// checkStudy compares every run's outputs with the in-memory run at the
// same seed, and with the committed goldens when the seed has them.
func checkStudy(r *report, runs []map[string]string) {
	ref, err := studyOutputs(core.QuickConfig(r.Seed), core.Options{})
	if err != nil {
		r.problem("in-memory reference run: %v", err)
		return
	}
	goldenDir := filepath.Join("internal", "core", "testdata", "golden", fmt.Sprintf("seed%d", r.Seed))
	goldens := 0
	for _, id := range experimentIDs {
		want, ok := ref[id]
		if !ok {
			r.problem("experiment %s missing from the in-memory run", id)
			continue
		}
		if g, err := os.ReadFile(filepath.Join(goldenDir, id+".txt")); err == nil {
			goldens++
			if string(g) != want {
				r.problem("experiment %s: in-memory output differs from the committed golden", id)
			}
		}
		for k, run := range runs {
			if run[id] != want {
				r.problem("study run %d: experiment %s output differs from the in-memory run", k, id)
			}
		}
	}
	r.Extra["goldens_compared"] = goldens
}

// traceStudy times one untraced and one traced pipeline, the graph's
// stages from its obs registry, each experiment on its own, a full
// store scan, and the layers over a sample of the store's documents.
func traceStudy(r *report, dir string, segs int, segBytes int64) error {
	cfg := core.QuickConfig(r.Seed)
	var untraced time.Duration
	for k := 0; k < 2; k++ { // the first run warms the page cache and heap
		t0 := time.Now()
		if _, err := core.RunWithOptions(cfg, core.Options{StorePath: dir}); err != nil {
			return err
		}
		untraced = time.Since(t0)
	}

	reg := obs.NewRegistry()
	t0 := time.Now()
	p, err := core.RunWithOptions(cfg, core.Options{StorePath: dir, Metrics: reg})
	if err != nil {
		return err
	}
	traced := time.Since(t0)
	r.set("trace.overhead_ratio", traced.Seconds()/untraced.Seconds(), 2, "pipeline wall with / without the obs registry")
	snap := reg.Snapshot()
	var layers float64
	for _, st := range graphStages {
		m, ok := snap.Find("graph_stage_compute_ns", obs.L("stage", st))
		if !ok {
			r.problem("graph stage %s has no compute histogram", st)
			continue
		}
		layers += float64(m.Sum) / 1e6
		r.set("graph."+st+"_ms", float64(m.Sum)/1e6, int(m.Count), "graph_stage_compute_ns sum")
	}
	var expWall float64
	for _, id := range experimentIDs {
		t0 := time.Now()
		res, err := p.RunExperiments(context.Background(), []string{id}, 0)
		el := 1e3 * time.Since(t0).Seconds()
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			r.problem("experiment %s: %v", id, err)
			continue
		}
		expWall += el
		r.set("experiments."+id+"_ms", el, 1, "RunExperiments on this id alone, in registry order (shared artifacts computed by the first user)")
	}
	r.Attempted = len(experimentIDs)
	r.set("trace.coverage_ratio", (layers+expWall)/(1e3*traced.Seconds()+expWall), 1,
		"(graph stage sums + experiment spans) / (traced pipeline + experiments wall)")

	s, err := store.Open(dir)
	if err != nil {
		return err
	}
	var sample []string
	n := 0
	t0 = time.Now()
	err = s.Scan(func(d *corpus.Document, _ store.DocRef) error {
		if n%8 == 0 && len(sample) < 2000 {
			sample = append(sample, strings.Clone(d.Text)) // d may alias the mapping
		}
		n++
		return nil
	})
	scan := time.Since(t0)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.set("store.scan_ms", ms(scan), n, "full Scan of the study store")
	r.set("store.scan_mb_per_s", float64(segBytes)/(1<<20)/scan.Seconds(), n, "segment bytes / scan time")
	r.set("store.segments", float64(segs), 0, "segments in the study store")
	layerPass(r, p, p.Detector(), sample)
	return nil
}
