package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"harassrepro/internal/randx"
)

// TestOpenLoopShowsStall: a server that stalls for 100 ms must show the
// stall in the latency of every request scheduled during it, even
// though the stalled connections cannot send them on time. A generator
// that timed requests from their actual send would hide it.
func TestOpenLoopShowsStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	var mu sync.Mutex
	stallOp := 40 // due at 200 ms
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		mu.Lock() // every request waits while the stall holds the lock
		if op == stallOp {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	const every = 5 * time.Millisecond
	var schedule []time.Duration
	for d := time.Duration(0); d < 600*time.Millisecond; d += every {
		schedule = append(schedule, d)
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	base := time.Now()
	calls, unsent := openLoop(context.Background(), client, srv.URL, 2, base, base, schedule, time.Second,
		func(int) []byte { return []byte("{}") }, func(i int) int { return i })
	if unsent != 0 || len(calls) != len(schedule) {
		t.Fatalf("sent %d of %d (unsent %d)", len(calls), len(schedule), unsent)
	}
	stallStart := schedule[stallOp]
	for _, c := range calls {
		due := schedule[c.idx]
		if due <= stallStart+10*time.Millisecond || due >= stallStart+stall-10*time.Millisecond {
			continue
		}
		// Scheduled during the stall: answered no earlier than its end.
		if want := stallStart + stall - due - 5*time.Millisecond; c.latency() < want {
			t.Errorf("request due at %v: latency %v, want >= %v (the stall is hidden)", due, c.latency(), want)
		}
	}
}

// TestSameSeedSameInputs: inputs are a function of the seed alone, and
// texts never repeat within a run.
func TestSameSeedSameInputs(t *testing.T) {
	bodies := func(seed uint64) [][]byte {
		var out [][]byte
		live := makeLiveInputs(seed, 50, 3000)
		for i := range live.docs {
			out = append(out, singleBody(&live.docs[i]))
		}
		bulk := makeBulkInputs(seed, 4)
		out = append(out, bulk.bodies...)
		for _, q := range makeQueries(randx.New(seed), bulk.batches[0], 16) {
			out = append(out, []byte(q.spec))
		}
		return out
	}
	a, b, c := bodies(5), bodies(5), bodies(6)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d bodies", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between two runs at one seed", i)
		}
	}
	if bytes.Equal(a[0], c[0]) && bytes.Equal(a[len(a)-1], c[len(c)-1]) {
		t.Error("seeds 5 and 6 gave the same inputs")
	}

	live := makeLiveInputs(9, 100, 20000)
	seen := map[string]bool{}
	for _, d := range append(live.warm, live.docs...) {
		if seen[d.Text] {
			t.Fatalf("text repeated: %q", d.Text)
		}
		seen[d.Text] = true
	}
}

// TestTailLeavesTenBeyond: the reported tail percentile always has at
// least minBeyond samples beyond it, and is the highest ladder
// percentile that does.
func TestTailLeavesTenBeyond(t *testing.T) {
	cases := map[int]float64{5: 1, 19: 1, 20: 0.5, 99: 0.5, 100: 0.9, 199: 0.9, 200: 0.95, 999: 0.95, 1000: 0.99, 10000: 0.999}
	for n, wantQ := range cases {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		q, v := tail(xs)
		if q != wantQ {
			t.Errorf("n=%d: tail at q=%v, want %v", n, q, wantQ)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if q < 1 && beyond < minBeyond {
			t.Errorf("n=%d: p%v=%v has %d samples beyond it", n, 100*q, v, beyond)
		}
	}
}
