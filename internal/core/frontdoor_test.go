package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
)

// countingExecutionWrapper counts Mapping-Layer fetches: every getPR the
// Semantic Layer makes is one AppendPerformanceResults.
type countingExecutionWrapper struct {
	mapping.ExecutionWrapper
	calls atomic.Int64
}

func (c *countingExecutionWrapper) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	c.calls.Add(1)
	return c.ExecutionWrapper.AppendPerformanceResults(q, dst)
}

func frontdoorService(t *testing.T) (*ExecutionService, *countingExecutionWrapper, perfdata.Query) {
	t.Helper()
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 8, Seed: 21})
	m := mapping.NewMemory(rma)
	inner, err := m.ExecutionWrapper(rma.Execs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	cw := &countingExecutionWrapper{ExecutionWrapper: inner}
	svc := NewExecutionService(rma.Execs[0].ID, cw, NewCacheFromConfig(CacheConfig{}), nil)
	q := perfdata.Query{Metric: "bandwidth", Time: rma.Execs[0].Time, Type: perfdata.UndefinedType}
	return svc, cw, q
}

// TestExpiredContextNeverReachesMapping pins the deadline boundary at the
// Mapping Layer: a request whose context is already expired is turned
// away — on the plain, paged, raw, and uncached streamed read paths —
// without a single store fetch.
func TestExpiredContextNeverReachesMapping(t *testing.T) {
	svc, cw, q := frontdoorService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cold := NewExecutionService("cold", cw, nil, nil)
	buf := soap.GetBuffer()
	defer soap.PutBuffer(buf)
	if _, err := cold.Serve(ctx, ogsi.Call{Op: OpGetPR, Params: q.WireParams()}, buf); !errors.Is(err, context.Canceled) {
		t.Errorf("uncached Serve: %v, want context.Canceled", err)
	}

	if _, err := svc.InvokeContext(ctx, OpGetPR, q.WireParams()); !errors.Is(err, context.Canceled) {
		t.Errorf("InvokeContext: %v, want context.Canceled", err)
	}
	if _, _, err := servePage(ctx, svc, OpGetPR, q.WireParams(), "", 2); !errors.Is(err, context.Canceled) {
		t.Errorf("paged Serve: %v, want context.Canceled", err)
	}
	if _, _, err := svc.InvokeRawContext(ctx, OpGetPR, q.WireParams()); !errors.Is(err, context.Canceled) {
		t.Errorf("InvokeRawContext: %v, want context.Canceled", err)
	}
	if got := cw.calls.Load(); got != 0 {
		t.Fatalf("Mapping-Layer fetches = %d, want 0 for expired requests", got)
	}

	// The same query with a live context fetches exactly once per
	// service: the fake is on the read path.
	if _, err := svc.InvokeContext(context.Background(), OpGetPR, q.WireParams()); err != nil {
		t.Fatal(err)
	}
	if got := cw.calls.Load(); got != 1 {
		t.Fatalf("Mapping-Layer fetches = %d, want 1", got)
	}
	buf.Reset()
	if _, err := cold.Serve(context.Background(), ogsi.Call{Op: OpGetPR, Params: q.WireParams()}, buf); err != nil {
		t.Fatal(err)
	}
	if got := cw.calls.Load(); got != 2 {
		t.Errorf("Mapping-Layer fetches = %d after the uncached Serve, want 2", got)
	}
}

// TestSingleflightFollowerAbandonsWithoutOrphan pins the coalescing
// contract under deadlines: a follower whose context expires abandons its
// wait immediately, while the undisturbed leader completes, fills the
// cache, and retires the flight — no orphaned flights, no half-filled
// entries, no duplicate fetch.
func TestSingleflightFollowerAbandonsWithoutOrphan(t *testing.T) {
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 8, Seed: 22})
	m := mapping.NewMemory(rma)
	inner, err := m.ExecutionWrapper(rma.Execs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	cw := &countingExecutionWrapper{ExecutionWrapper: inner}
	g := &gatedWrapper{ExecutionWrapper: cw, entered: make(chan struct{}, 4), gate: make(chan struct{})}
	svc := NewExecutionService(rma.Execs[0].ID, g, NewCacheFromConfig(CacheConfig{}), nil)
	q := perfdata.Query{Metric: "bandwidth", Time: rma.Execs[0].Time, Type: perfdata.UndefinedType}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.InvokeContext(context.Background(), OpGetPR, q.WireParams())
		leaderDone <- err
	}()
	waitEntered(t, g) // the leader is inside the Mapping Layer, flight open

	fctx, fcancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := svc.InvokeContext(fctx, OpGetPR, q.WireParams())
		followerDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.CoalescedQueries() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if svc.CoalescedQueries() != 1 {
		t.Fatalf("coalesced = %d, want 1 (follower joined the flight)", svc.CoalescedQueries())
	}

	fcancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower did not abandon its wait on context expiry")
	}

	// The leader was not disturbed: it completes and fills the cache.
	close(g.gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if got := cw.calls.Load(); got != 1 {
		t.Errorf("Mapping-Layer fetches = %d, want 1", got)
	}

	// No orphaned flight survives the leader's retirement.
	svc.flightMu.Lock()
	open := len(svc.flights)
	svc.flightMu.Unlock()
	if open != 0 {
		t.Errorf("open flights after completion = %d, want 0", open)
	}

	// The filled entry serves a repeat query with no further fetch — the
	// gate would otherwise block this call forever.
	if _, err := svc.InvokeContext(context.Background(), OpGetPR, q.WireParams()); err != nil {
		t.Fatal(err)
	}
	if got := cw.calls.Load(); got != 1 {
		t.Errorf("Mapping-Layer fetches after cached repeat = %d, want 1", got)
	}
}

// TestCursorBudgetsEvict pins the paged-cursor backpressure budgets:
// the live-cursor table evicts oldest-first past the entry budget,
// evicts by byte budget, and reclaims idle cursors past their TTL —
// with every eviction counted.
func TestCursorBudgetsEvict(t *testing.T) {
	svc, _, q := frontdoorService(t)
	var mu timeSource
	mu.now = time.Unix(1000, 0)
	svc.SetCursorClock(mu.Now)
	svc.SetCursorBudget(2, 0, 60*time.Second)

	open := func() string {
		t.Helper()
		rs, next, err := servePage(context.Background(), svc, OpGetPR, q.WireParams(), "", 1)
		if err != nil {
			t.Fatal(err)
		}
		if next == "" || len(rs) != 1 {
			t.Fatalf("paged open: %d values, cursor %q; want 1 value and a live cursor", len(rs), next)
		}
		return next
	}

	curA := open()
	curB := open()
	if entries, _, ev := svc.CursorStats(); entries != 2 || ev != 0 {
		t.Fatalf("after two opens: entries=%d evictions=%d, want 2, 0", entries, ev)
	}

	// Third open exceeds the 2-entry budget: the oldest cursor goes.
	curC := open()
	if entries, _, ev := svc.CursorStats(); entries != 2 || ev != 1 {
		t.Fatalf("after third open: entries=%d evictions=%d, want 2, 1", entries, ev)
	}
	if _, _, err := servePage(context.Background(), svc, OpGetPR, nil, curA, 1); err == nil || !strings.Contains(err.Error(), "unknown or expired") {
		t.Fatalf("evicted cursor continuation: %v, want unknown-or-expired error", err)
	}

	// A continuation refreshes B's TTL...
	if _, _, err := servePage(context.Background(), svc, OpGetPR, nil, curB, 1); err != nil {
		t.Fatalf("live cursor continuation: %v", err)
	}
	// ...then both survivors idle past the TTL and are reclaimed.
	mu.now = mu.now.Add(61 * time.Second)
	if _, _, err := servePage(context.Background(), svc, OpGetPR, nil, curC, 1); err == nil || !strings.Contains(err.Error(), "unknown or expired") {
		t.Fatalf("TTL-expired cursor continuation: %v, want unknown-or-expired error", err)
	}
	if entries, bytes, ev := svc.CursorStats(); entries != 0 || bytes != 0 || ev != 3 {
		t.Fatalf("after TTL sweep: entries=%d bytes=%d evictions=%d, want 0, 0, 3", entries, bytes, ev)
	}

	// Byte budget: room for exactly one cursor's footprint evicts the
	// elder when a second opens.
	curD := open()
	_, bytesD, _ := svc.CursorStats()
	svc.SetCursorBudget(100, bytesD, 0)
	open()
	if entries, _, ev := svc.CursorStats(); entries != 1 || ev != 4 {
		t.Fatalf("after byte-budget open: entries=%d evictions=%d, want 1, 4", entries, ev)
	}
	if _, _, err := servePage(context.Background(), svc, OpGetPR, nil, curD, 1); err == nil {
		t.Fatal("byte-evicted cursor still live")
	}
}

// TestHugePageSizeContinuation: over a real socket to a one-worker site, a
// cursor continuation asking for a ppg-pageSize of MaxInt64 gets the
// remainder as a terminal page instead of an overflowed slice bound, and
// the site then still answers an ordinary getPR — its only worker slot
// came back.
func TestHugePageSizeContinuation(t *testing.T) {
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 8, Seed: 24})
	site, err := StartSite(SiteConfig{
		AppName:  rma.Name,
		Wrappers: []mapping.ApplicationWrapper{mapping.NewMemory(rma)},
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	app, err := container.Dial(site.ApplicationFactoryHandle()).CreateService()
	if err != nil {
		t.Fatal(err)
	}
	handles, err := app.Call(OpGetAllExecs)
	if err != nil || len(handles) == 0 {
		t.Fatalf("getAllExecs: %v (%d handles)", err, len(handles))
	}
	exec, err := container.DialString(handles[0])
	if err != nil {
		t.Fatal(err)
	}
	params := perfdata.Query{Metric: "bandwidth", Time: rma.Execs[0].Time, Type: perfdata.UndefinedType}.WireParams()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	r, err := exec.Serve(ctx, ogsi.Call{Op: OpGetPR, Params: params}, nil)
	all := r.Values
	if err != nil || len(all) <= 3 {
		t.Fatalf("getPR: %d values, %v; want more than one page of 3", len(all), err)
	}
	r, err = exec.Serve(ctx, ogsi.Call{Op: OpGetPR, Params: params, Paged: true, Limit: 3}, nil)
	first, next := r.Values, r.Next
	if err != nil || len(first) != 3 || next == "" {
		t.Fatalf("page 1: %d values, cursor %q, %v; want 3 values and a cursor", len(first), next, err)
	}
	r, err = exec.Serve(ctx, ogsi.Call{Op: OpGetPR, Params: params, Paged: true, Cursor: next, Limit: math.MaxInt64}, nil)
	rest, next := r.Values, r.Next
	if err != nil {
		t.Errorf("continuation with page size MaxInt64: %v", err)
	} else if next != "" || !reflect.DeepEqual(append(first, rest...), all) {
		t.Errorf("continuation: %d values, cursor %q; want the remaining %d values and no cursor", len(rest), next, len(all)-3)
	}
	r, err = exec.Serve(ctx, ogsi.Call{Op: OpGetPR, Params: params}, nil)
	if err != nil || !reflect.DeepEqual(r.Values, all) {
		t.Fatalf("getPR after the continuation: %d values, %v; want the site's worker back", len(r.Values), err)
	}
}

// timeSource is a settable test clock.
type timeSource struct{ now time.Time }

func (s *timeSource) Now() time.Time { return s.now }

// TestDrainReleasesCursorsAndGoroutines pins the drain end state: a site
// with live (abandoned) cursors drains to an empty cursor table and
// returns to the pre-site goroutine count — the leak-freedom the soak
// bench asserts at 4096 sockets, pinned here at test scale.
func TestDrainReleasesCursorsAndGoroutines(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 8, Seed: 23})
	w := mapping.NewMemory(rma)
	site, err := StartSite(SiteConfig{
		AppName:  rma.Name,
		Wrappers: []mapping.ApplicationWrapper{w},
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}

	factory := container.Dial(site.ApplicationFactoryHandle())
	app, err := factory.CreateService()
	if err != nil {
		t.Fatal(err)
	}
	handles, err := app.Call(OpGetAllExecs)
	if err != nil || len(handles) == 0 {
		t.Fatalf("getAllExecs: %v (%d handles)", err, len(handles))
	}
	exec, err := container.DialString(handles[0])
	if err != nil {
		t.Fatal(err)
	}
	svcs := site.ExecutionServices(rma.Execs[0].ID)
	if len(svcs) == 0 {
		t.Fatal("no live ExecutionService")
	}
	svc := svcs[0]

	// Open a paged result set over the wire and abandon the cursor — the
	// exact leak the drain must reclaim.
	q := perfdata.Query{Metric: "bandwidth", Time: rma.Execs[0].Time, Type: perfdata.UndefinedType}
	if r, err := exec.Serve(context.Background(), ogsi.Call{Op: OpGetPR, Params: q.WireParams(), Paged: true, Limit: 1}, nil); err != nil || r.Next == "" {
		t.Fatalf("paged open: cursor %q, err %v; want a live cursor", r.Next, err)
	}
	if entries, _, _ := svc.CursorStats(); entries != 1 {
		t.Fatalf("live cursors = %d, want 1", entries)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := site.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if entries, bytes, _ := svc.CursorStats(); entries != 0 || bytes != 0 {
		t.Errorf("cursor table after drain: entries=%d bytes=%d, want empty", entries, bytes)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines after drain = %d, baseline %d", runtime.NumGoroutine(), baseline)
}
