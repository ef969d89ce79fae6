package client

// Concurrency tests for the parallel getPR fan-out: MaxInFlight bounding,
// input-order results, and per-execution error isolation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pperfgrid/internal/core"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
)

// gaugeCaller answers getPR with a fixed value after a short delay,
// tracking the number of concurrently executing calls.
type gaugeCaller struct {
	value float64
	delay time.Duration
	err   error

	calls   atomic.Int64
	cur     *atomic.Int64
	highCur *atomic.Int64 // high-water mark of cur
}

func (g *gaugeCaller) Serve(_ context.Context, c ogsi.Call, _ *bytes.Buffer) (ogsi.Reply, error) {
	if c.Op != core.OpGetPR {
		return ogsi.Reply{}, fmt.Errorf("unexpected op %q", c.Op)
	}
	g.calls.Add(1)
	if g.cur != nil {
		now := g.cur.Add(1)
		for {
			high := g.highCur.Load()
			if now <= high || g.highCur.CompareAndSwap(high, now) {
				break
			}
		}
		defer g.cur.Add(-1)
	}
	if g.delay > 0 {
		time.Sleep(g.delay)
	}
	if g.err != nil {
		return ogsi.Reply{}, g.err
	}
	rs := []perfdata.Result{{
		Metric: "gflops", Focus: "/", Type: "hpl",
		Time: perfdata.TimeRange{Start: 0, End: 1}, Value: g.value,
	}}
	return ogsi.Reply{Values: perfdata.EncodeResults(rs)}, nil
}

func fakeRefs(callers []*gaugeCaller) []*ExecutionRef {
	refs := make([]*ExecutionRef, len(callers))
	for i, c := range callers {
		refs[i] = &ExecutionRef{
			Handle: gsh.New("h:1", core.ExecutionType, fmt.Sprint(i)),
			exec:   c,
		}
	}
	return refs
}

func testQuery() perfdata.Query {
	return perfdata.Query{Metric: "gflops", Time: perfdata.TimeRange{Start: 0, End: 1}, Type: "hpl"}
}

func TestQueryPerformanceResultsMaxInFlight(t *testing.T) {
	var cur, high atomic.Int64
	callers := make([]*gaugeCaller, 32)
	for i := range callers {
		callers[i] = &gaugeCaller{value: float64(i), delay: 2 * time.Millisecond, cur: &cur, highCur: &high}
	}
	refs := fakeRefs(callers)
	results := QueryPerformanceResults(refs, testQuery(), ParallelOptions{MaxInFlight: 3})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("exec %d: %v", i, r.Err)
		}
	}
	if got := high.Load(); got > 3 {
		t.Errorf("in-flight high-water mark = %d, want <= 3", got)
	}
	if got := high.Load(); got == 0 {
		t.Error("no calls observed")
	}
	var total int64
	for _, c := range callers {
		total += c.calls.Load()
	}
	if total != 32 {
		t.Errorf("calls = %d, want 32", total)
	}
}

func TestQueryPerformanceResultsUnboundedRunsWide(t *testing.T) {
	var cur, high atomic.Int64
	callers := make([]*gaugeCaller, 16)
	for i := range callers {
		callers[i] = &gaugeCaller{value: float64(i), delay: 10 * time.Millisecond, cur: &cur, highCur: &high}
	}
	refs := fakeRefs(callers)
	QueryPerformanceResults(refs, testQuery(), ParallelOptions{})
	// One goroutine per execution, the paper's model: with a 10 ms floor
	// per call, substantially more than one call overlaps.
	if got := high.Load(); got < 4 {
		t.Errorf("unbounded fan-out peaked at %d concurrent calls", got)
	}
}

func TestQueryPerformanceResultsInputOrder(t *testing.T) {
	callers := make([]*gaugeCaller, 20)
	for i := range callers {
		callers[i] = &gaugeCaller{value: float64(i), delay: time.Duration(20-i) * time.Millisecond}
	}
	refs := fakeRefs(callers)
	results := QueryPerformanceResults(refs, testQuery(), ParallelOptions{})
	if len(results) != len(refs) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Exec != refs[i] {
			t.Fatalf("result %d belongs to a different execution", i)
		}
		if r.Err != nil {
			t.Fatalf("exec %d: %v", i, r.Err)
		}
		if len(r.Results) != 1 || r.Results[0].Value != float64(i) {
			t.Errorf("result %d = %+v, want value %d (input order violated)", i, r.Results, i)
		}
	}
}

func TestQueryPerformanceResultsErrorIsolation(t *testing.T) {
	callers := make([]*gaugeCaller, 8)
	for i := range callers {
		callers[i] = &gaugeCaller{value: float64(i)}
	}
	boom := errors.New("store offline")
	callers[5].err = boom
	refs := fakeRefs(callers)
	results := QueryPerformanceResults(refs, testQuery(), ParallelOptions{Repeats: 3})
	for i, r := range results {
		if i == 5 {
			if !errors.Is(r.Err, boom) {
				t.Errorf("exec 5 error = %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("exec %d poisoned by exec 5's failure: %v", i, r.Err)
		}
		if len(r.Results) != 1 || r.Results[0].Value != float64(i) {
			t.Errorf("exec %d results = %+v", i, r.Results)
		}
	}
	// Repeats: healthy executions re-ran the query 3 times; the failing
	// one stopped at its first error.
	if got := callers[0].calls.Load(); got != 3 {
		t.Errorf("exec 0 ran %d times, want 3", got)
	}
	if got := callers[5].calls.Load(); got != 1 {
		t.Errorf("failing exec ran %d times, want 1 (stop on error)", got)
	}
}
