package harassrepro

import (
	"context"
	"path/filepath"
	"testing"

	"harassrepro/internal/corpus"
	"harassrepro/internal/corpus/store"
	"harassrepro/internal/testutil"
)

// TestStoreFedScoringFloor is the store's hot-path gate: scoring fed
// from a store must keep at least 0.9x the throughput of ScoreStream
// over the same documents already in memory. A store-fed pass is a
// scan into a slice followed by that same ScoreStream, so the floor is
// exactly "scan time <= in-memory scoring time / 9", and the test
// measures the two halves on their own.
func TestStoreFedScoringFloor(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timings differ under the race detector")
	}
	const minRatio = 0.9
	s := sharedStudy(t)
	st, err := store.Create(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := store.WriteCorpora(st, s.pipe.Corpora, s.pipe.Blogs, 0); err != nil {
		t.Fatal(err)
	}
	models := t.TempDir()
	if err := s.SaveModels(models); err != nil {
		t.Fatal(err)
	}
	det, err := LoadDetector(models)
	if err != nil {
		t.Fatal(err)
	}

	collect := func(docs []StreamDocument) ([]StreamDocument, error) {
		err := st.Scan(func(d *corpus.Document, _ store.DocRef) error {
			docs = append(docs, StreamDocument{ID: d.ID, Text: d.Text})
			return nil
		})
		return docs, err
	}
	inMem, err := collect(make([]StreamDocument, 0, st.Docs()))
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]StreamDocument, 0, len(inMem))
	scan := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if scratch, err = collect(scratch[:0]); err != nil {
				b.Fatal(err)
			}
			if len(scratch) != len(inMem) {
				b.Fatalf("scan collected %d docs, want %d", len(scratch), len(inMem))
			}
		}
	})
	score := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sum, err := det.ScoreStream(context.Background(), inMem, StreamOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if sum.Succeeded != len(inMem) {
				b.Fatalf("summary = %+v", sum)
			}
		}
	})
	if scan.N == 0 || score.N == 0 {
		t.Fatal("benchmark did not run")
	}
	scanNs, scoreNs := float64(scan.NsPerOp()), float64(score.NsPerOp())
	ratio := scoreNs / (scanNs + scoreNs)
	t.Logf("%d docs: scan %.1f ms, in-memory ScoreStream %.1f ms; store-fed throughput %.3fx in-memory",
		len(inMem), scanNs/1e6, scoreNs/1e6, ratio)
	if ratio < minRatio {
		t.Errorf("store-fed scoring runs at %.3fx the in-memory throughput, want >= %.1fx (scan %.1f ms > scoring %.1f ms / 9)",
			ratio, minRatio, scanNs/1e6, scoreNs/1e6)
	}
}
