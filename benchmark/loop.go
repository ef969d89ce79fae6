package main

import (
	"sort"
	"sync"
	"time"
)

// opOutcome is what one executed op reports back to the loop.
type opOutcome struct {
	rows  int   // Performance Results delivered (rows aggregated, for SQL)
	write bool  // the op was a publishPR
	err   error // failed, refused or wrong answer
}

// sample is one successful op: when it completed (nanoseconds into the
// window), how long it took, and what it delivered.
type sample struct {
	endNs, latNs int64
	rows         int32
	write        bool
}

// clientLog is one closed-loop client's record of a window. Each client
// appends only to its own log, so the measured path shares nothing.
type clientLog struct {
	samples   []sample
	attempted int64
	failed    int64
	firstErr  error
}

// window is the merged record of a measured window.
type window struct {
	elapsed   time.Duration
	samples   []sample // every client's, in completion order
	attempted int64
	failed    int64
	firstErr  error
}

// closedLoop runs one generator per client for dur: every client sends
// its next op as soon as the previous one is answered and never sooner
// (callers that each wait for a reply — the paper's one-thread-per-query
// analyst). Nothing in the loop sleeps. expect sizes the sample logs so
// the window does not pay for their growth.
func closedLoop(gens []*Gen, dur time.Duration, expect int, do func(client int, op Op) opOutcome) window {
	logs := make([]clientLog, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := &logs[c]
			log.samples = make([]sample, 0, expect)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				out := do(c, gens[c].Next())
				end := time.Now()
				log.attempted++
				if out.err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = out.err
					}
					continue
				}
				log.samples = append(log.samples, sample{
					endNs: end.Sub(start).Nanoseconds(), latNs: end.Sub(t0).Nanoseconds(),
					rows: int32(out.rows), write: out.write,
				})
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	for i := range logs {
		l := &logs[i]
		w.samples = append(w.samples, l.samples...)
		w.attempted += l.attempted
		w.failed += l.failed
		if w.firstErr == nil {
			w.firstErr = l.firstErr
		}
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].endNs < w.samples[j].endNs })
	return w
}

// latencies returns the sorted latencies, in ms, of the window's reads
// (primary ops) or writes.
func latencies(samples []sample, writes bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.write == writes {
			out = append(out, float64(s.latNs)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// Slicing. One disturbance of a second or two (a neighbour on the host, a
// long collection) moves a whole-window rate or percentile by more than
// the bounds allow, so a window with enough samples is cut into up to ten
// equal slices of time, each metric is computed per slice, and the median
// over the slices is reported. A slice keeps at least 1000 primary ops, so
// its p99 still has ten samples beyond it; a window too short for two such
// slices is reported whole. (Slices of 100 ops were tried for the rates and
// medians of the slower workloads: on mixed-publish, whose latency is not
// stationary between its stalls, they doubled the run-to-run spread of
// p50_ms, and elsewhere they changed nothing.)
const (
	maxSlices       = 10
	sliceMinSamples = 1000
)

// slices cuts the window into n equal slices of time.
func (w window) slices(n int) [][]sample {
	width := w.elapsed.Nanoseconds() / int64(n)
	out := make([][]sample, n)
	from := 0
	for i := range out {
		to := from
		for to < len(w.samples) && (i == n-1 || w.samples[to].endNs < int64(i+1)*width) {
			to++
		}
		out[i] = w.samples[from:to]
		from = to
	}
	return out
}

// report fills in the end-to-end metrics every workload shares.
func (w window) report(res *Result) {
	res.Attempted += w.attempted
	res.Failed += w.failed
	res.Samples = 0
	for _, s := range w.samples {
		if !s.write {
			res.Samples++
		}
	}
	n := min(max(res.Samples/sliceMinSamples, 1), maxSlices)
	secs := w.elapsed.Seconds() / float64(n)
	var ops, rows, p50, p99 []float64
	for _, slice := range w.slices(n) {
		var r float64
		for _, s := range slice {
			r += float64(s.rows)
		}
		read := latencies(slice, false)
		ops = append(ops, ratio(float64(len(slice)), secs))
		rows = append(rows, ratio(r, secs))
		p50 = append(p50, percentile(read, 50))
		p99 = append(p99, percentile(read, 99))
	}
	res.Info["slices"] = map[string]any{"n": n, "ops_per_s": ops, "p50_ms": p50, "p99_ms": p99}
	res.Metrics["ops_per_s"] = median(ops)
	res.Metrics["rows_per_s"] = median(rows)
	res.Metrics["p50_ms"] = median(p50)
	res.Metrics["p99_ms"] = median(p99)
	if w.firstErr != nil {
		res.check("every op in the window succeeds", w.firstErr)
	}
}
