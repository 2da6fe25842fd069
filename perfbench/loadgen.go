package main

// The load generator: one process, at most nproc connections, an open
// loop for live traffic and a closed loop for batches. Every request is
// timed from a shared base instant, so client and server spans line up.

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"harassrepro/internal/randx"
)

// opHeader carries the request's index in its run; the traced handler
// wrapper reads it to pair its span with the client's.
const opHeader = "X-Bench-Op"

// call is one request's outcome. Times are offsets from the run's base.
type call struct {
	idx             int // index of the request in its run's inputs
	due, sent, done time.Duration
	code            int
	body            []byte
	err             error
}

func (c *call) ok() bool { return c.err == nil && c.code == http.StatusOK }

// latency is the request's time to its answer from when it was due, or
// from its send when the generator sent it early (see timerSlack).
func (c *call) latency() time.Duration { return c.done - min(c.due, c.sent) }

// timerSlack is how early the open loop may send. Go's sleeps on Linux
// wake up to a millisecond late when the process is idle; waking a
// little early and sending at once keeps that timer slop out of the
// latency, while a request sent late — behind a slow server or a busy
// connection — is still timed from its due time.
const timerSlack = time.Millisecond

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends one request and reads its whole answer into c.
func post(ctx context.Context, client *http.Client, url string, op int, body []byte, base time.Time, c *call) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		c.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(op))
	c.sent = time.Since(base)
	resp, err := client.Do(req)
	if err != nil {
		c.done, c.err = time.Since(base), err
		return
	}
	c.body, c.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.done, c.code = time.Since(base), resp.StatusCode
}

// poissonSchedule returns the arrival offsets of a Poisson process at
// rate per second over window, drawn from a seeded rng.
func poissonSchedule(rng *randx.Source, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// openLoop sends bodies[i] at start+schedule[i] over conns connections.
// A connection takes the next due request as soon as it is free, so a
// slow server makes requests wait past their due time, and that wait is
// part of their latency (no coordinated omission). Requests not sent by
// the end of the window are the backlog, returned as unsent; they are
// never sent.
func openLoop(ctx context.Context, client *http.Client, url string, conns int, base, start time.Time,
	schedule []time.Duration, window time.Duration, body func(i int) []byte, op func(i int) int) (calls []call, unsent int) {
	calls = make([]call, len(schedule))
	sent := make([]bool, len(schedule))
	startOff := start.Sub(base)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(schedule) || time.Since(start) >= window {
					return
				}
				if wait := time.Until(start.Add(schedule[i])); wait > timerSlack {
					time.Sleep(wait - timerSlack)
				}
				c := &calls[i]
				c.idx, c.due = i, startOff+schedule[i]
				post(ctx, client, url, op(i), body(i), base, c)
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	return keepSent(calls, sent)
}

// keepSent drops the calls never sent, keeping order.
func keepSent(calls []call, sent []bool) (kept []call, unsent int) {
	kept = calls[:0]
	for i := range calls {
		if sent[i] {
			kept = append(kept, calls[i])
		} else {
			unsent++
		}
	}
	return kept, unsent
}

// closedLoop posts bodies in order over conns connections, each sending
// its next request when the previous answer arrives, until the bodies
// or the window run out. Calls come back in body order; call.idx
// names the body.
func closedLoop(ctx context.Context, client *http.Client, url string, conns int, base time.Time,
	bodies [][]byte, window time.Duration, op func(i int) int) []call {
	calls := make([]call, len(bodies))
	sent := make([]bool, len(bodies))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) || time.Since(start) >= window {
					return
				}
				c := &calls[i]
				c.idx, c.due = i, time.Since(base)
				post(ctx, client, url, op(i), bodies[i], base, c)
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	kept, _ := keepSent(calls, sent)
	return kept
}
