// Command perfbench is the repository's benchmark: one program that
// generates seeded inputs, runs a workload against the real modules,
// checks the outputs, and prints every metric by name.
//
//	perfbench --workload live|bulk|study|ingest-query --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with no
// instrumentation of its own; with --trace 1 it times the calls into
// each module's public functions and prints the per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": V, "unit": "U"}}}
//
// A failed correctness or accounting check prints correct=false and
// exits 1. Run it from the repository root through perfbench/run.sh,
// which builds it first; README.md in this directory defines every
// metric per workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir holds everything the benchmark builds and writes.
const buildDir = ".bench_build"

// experimentIDs are the study's 33 experiments (core.Experiments order).
var experimentIDs = []string{
	"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
	"table9", "table10", "table11", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"overlap", "positions", "cooccur", "repeats", "agreement", "piico", "chisq",
	"genderresp", "ablate-span", "ablate-combined", "ablate-chatsplit",
	"ablate-active", "ablate-baseline", "calibration", "ablate-crawl", "scores",
}

// graphStages are the pipeline stages whose compute time the study's
// obs registry records.
var graphStages = []string{"corpora", "blogs", "tokenizer", "hasher", "task-dox", "task-cth"}

// unbounded are the end-to-end figures printed and reported with
// --trace 0 but given no bound in BENCHMARK.json: the latencies and
// rates of a shared virtual machine drift between sets of runs by more
// than any bound of at most 25% (README.md gives the measured ranges).
var unbounded = []metricDef{
	{"sustained_rps", "req/s"},
	{"docs_per_s", "docs/s"},
	{"wall_s", "s"},
	{"setup_wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is what the program reads from BENCHMARK.json: the metrics
// it prints, in order, and each workload's reason.
type benchSpec struct {
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// loadSpec reads BENCHMARK.json from the working directory, the
// checkout's root.
func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// why is the workload's one-line reason.
func (s *benchSpec) why(name string) string {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(r *report) error{
	"live":         runLive,
	"bulk":         runBulk,
	"study":        runStudy,
	"ingest-query": runIngestQuery,
}

// measured is one metric as measured: its value plus how it was read.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// report collects one run's outcome.
type report struct {
	Workload    string              `json:"workload"`
	Seed        uint64              `json:"seed"`
	Seconds     int                 `json:"seconds"`
	Trace       bool                `json:"trace"`
	Why         string              `json:"why,omitempty"`
	Fingerprint map[string]string   `json:"fingerprint"`
	Attempted   int                 `json:"attempted"`
	Failed      int                 `json:"failed"`
	Problems    []string            `json:"problems,omitempty"`
	Metrics     map[string]measured `json:"metrics"`
	Extra       map[string]any      `json:"extra,omitempty"`

	work string // scratch directory for this run's files
}

// set records a metric; samples and note describe how it was read.
func (r *report) set(name string, v float64, samples int, note string) {
	r.Metrics[name] = measured{Value: v, Samples: samples, Note: note}
}

// problem records a failed correctness or accounting check.
func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// budget is the run's measuring time as a duration.
func (r *report) budget() time.Duration { return time.Duration(r.Seconds) * time.Second }

func main() {
	workload := flag.String("workload", "", "live, bulk, study or ingest-query")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	r := &report{
		Workload:    *workload,
		Seed:        *seed,
		Seconds:     *seconds,
		Trace:       *trace == 1,
		Why:         spec.why(*workload),
		Fingerprint: fingerprint(),
		Metrics:     map[string]measured{},
		Extra:       map[string]any{},
	}
	work, err := os.MkdirTemp(mustMkdir(filepath.Join(buildDir, "work")), *workload+"-")
	if err != nil {
		fatal(err)
	}
	r.work = work
	err = run(r)
	os.RemoveAll(work) //nolint:errcheck // scratch; a leftover is harmless
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	defs := spec.EndToEnd
	if r.Trace {
		defs = spec.PerLayer
	}
	os.Exit(finish(r, defs))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// finish prints the metric table and the result line (defs, the
// metrics BENCHMARK.json lists for this run), writes the full report
// under .bench_build/reports, and returns the exit code.
func finish(r *report, defs []metricDef) int {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%v go=%s nproc=%s gomaxprocs=%s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Fingerprint["go"], r.Fingerprint["nproc"],
		r.Fingerprint["gomaxprocs"], r.Fingerprint["commit"])
	fmt.Fprintf(out, "  cpu: %s\n", r.Fingerprint["cpu"])
	result := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: len(r.Problems) == 0, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]json.RawMessage{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m = measured{Note: "not exercised by this workload"}
		}
		m.Unit = d.Unit
		r.Metrics[d.Name] = m
		fmt.Fprintf(out, "  %-32s %14.4f %-6s n=%-7d %s\n", d.Name, m.Value, d.Unit, m.Samples, m.Note)
		raw, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, d.Unit})
		result.Metrics[d.Name] = raw
	}
	// Printed and reported, but not bounded; the failure ratio is 0 on a
	// healthy run.
	for _, d := range unbounded {
		if m, ok := r.Metrics[d.Name]; ok && !r.Trace {
			m.Unit = d.Unit
			r.Metrics[d.Name] = m
			fmt.Fprintf(out, "  %-32s %14.4f %-6s n=%-7d %s (not bounded)\n", d.Name, m.Value, m.Unit, m.Samples, m.Note)
		}
	}
	ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(out, "  %-32s %14.4f %-6s attempted=%d failed=%d (not bounded)\n", "failed_ratio", ratio, "ratio", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	if path, err := writeReport(r); err != nil {
		fmt.Fprintf(out, "  (report not written: %v)\n", err)
	} else {
		fmt.Fprintf(out, "  report: %s\n", path)
	}
	line, _ := json.Marshal(result)
	fmt.Fprintln(out, string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

func writeReport(r *report) (string, error) {
	dir := filepath.Join(buildDir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace]))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// fingerprint identifies the machine and the code measured. Nothing is
// compared across machines: every ratio a run reports is taken within
// that run.
func fingerprint() map[string]string {
	fp := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        "unknown",
		"commit":     gitCommit(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// gitCommit resolves .git/HEAD in the working directory without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
