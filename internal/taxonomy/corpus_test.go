package taxonomy_test

// Tests and benchmarks over the corpus generators' documents. They live
// in the external test package because the generators import taxonomy.

import (
	"runtime"
	"sync"
	"testing"

	"harassrepro/internal/core"
	"harassrepro/internal/corpus"
	"harassrepro/internal/taxonomy"
	"harassrepro/internal/testutil"
)

var (
	generatedMu    sync.Mutex
	generatedCache = map[uint64]map[corpus.Dataset][]string{}
)

// generated returns the texts the quick-scale generators produce at
// seed, by data set: the four filtered corpora and the blogs.
func generated(seed uint64) map[corpus.Dataset][]string {
	generatedMu.Lock()
	defer generatedMu.Unlock()
	if texts, ok := generatedCache[seed]; ok {
		return texts
	}
	cfg := core.QuickConfig(seed)
	gen := corpus.NewGenerator(corpus.Config{Seed: seed, VolumeScale: cfg.VolumeScale, PositiveScale: cfg.PositiveScale})
	corpora := gen.Generate()
	corpora[corpus.Blogs] = gen.GenerateBlogs(corpus.DefaultBlogSpecs(cfg.BlogScale))
	texts := map[corpus.Dataset][]string{}
	for ds, c := range corpora {
		for _, d := range c.Docs {
			texts[ds] = append(texts[ds], d.Text)
		}
	}
	generatedCache[seed] = texts
	return texts
}

// TestCategorizeMatchesDirectOnCorpus runs every generated document at
// the golden seeds through the gated categorizer and the all-regex
// oracle; the labels must be identical.
func TestCategorizeMatchesDirectOnCorpus(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the all-regex oracle over three corpora is too slow under the race detector")
	}
	c := taxonomy.NewCategorizer()
	for _, seed := range []uint64{1, 7, 42} {
		var texts []string
		for _, ds := range []corpus.Dataset{corpus.Boards, corpus.Chat, corpus.Gab, corpus.Pastes, corpus.Blogs} {
			texts = append(texts, generated(seed)[ds]...)
		}
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		var mu sync.Mutex
		mismatches := 0
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(texts); i += workers {
					got, want := c.Categorize(texts[i]), taxonomy.CategorizeDirect(texts[i])
					if taxonomy.SameLabel(got, want) {
						continue
					}
					mu.Lock()
					if mismatches < 10 {
						t.Errorf("seed %d: Categorize(%q) = %v, oracle = %v", seed, texts[i], got.Subs(), want.Subs())
					}
					mismatches++
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if mismatches > 0 {
			t.Fatalf("seed %d: %d of %d documents differ from the oracle", seed, mismatches, len(texts))
		}
		t.Logf("seed %d: %d documents identical", seed, len(texts))
	}
}

// bulkMix samples n generated documents at seed 1 in the bulk
// workload's proportions: 40% pastes, 30% blogs, 10% each of boards,
// chat and gab, spread evenly over each data set.
func bulkMix(n int) []string {
	texts := generated(1)
	var out []string
	for _, share := range []struct {
		ds    corpus.Dataset
		tenth int
	}{{corpus.Pastes, 4}, {corpus.Blogs, 3}, {corpus.Boards, 1}, {corpus.Chat, 1}, {corpus.Gab, 1}} {
		docs := texts[share.ds]
		k := n * share.tenth / 10
		for i := 0; i < k; i++ {
			out = append(out, docs[i*len(docs)/k])
		}
	}
	return out
}

// TestCategorizeBeatsRegexOracle is the categorizer's performance gate,
// measured against its own oracle in the same run so it holds on any
// machine: on bulk-mix documents the gated categorizer must be at least
// 5x faster than running every cue regex.
func TestCategorizeBeatsRegexOracle(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timings differ under the race detector")
	}
	const minSpeedup = 5.0
	docs := bulkMix(200)
	c := taxonomy.NewCategorizer()
	gated := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				c.Categorize(d)
			}
		}
	})
	oracle := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				taxonomy.CategorizeDirect(d)
			}
		}
	})
	if gated.N == 0 || oracle.N == 0 {
		t.Fatal("benchmark did not run")
	}
	perDoc := func(r testing.BenchmarkResult) float64 { return float64(r.NsPerOp()) / float64(len(docs)) / 1e3 }
	speedup := float64(oracle.NsPerOp()) / float64(gated.NsPerOp())
	t.Logf("bulk mix (%d docs): gated %.1f us/doc, regex oracle %.1f us/doc; %.1fx", len(docs), perDoc(gated), perDoc(oracle), speedup)
	if speedup < minSpeedup {
		t.Errorf("Categorize is %.1fx the regex oracle on the bulk mix, want >= %.1fx", speedup, minSpeedup)
	}
}

func BenchmarkCategorize(b *testing.B) {
	texts := generated(1)
	for _, bc := range []struct {
		name string
		docs []string
	}{
		{"attack", []string{"get her phone number and address, then raid the stream and mass report her channel until it is banned"}},
		{"paste", texts[corpus.Pastes][:256]},
		{"blog", texts[corpus.Blogs][:256]},
		{"benign", []string{"anyone want to play ranked tonight? the new update is out, patch notes look good"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := taxonomy.NewCategorizer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Categorize(bc.docs[i%len(bc.docs)])
			}
		})
	}
}
