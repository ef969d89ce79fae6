package core

// Write-path isolation and concurrency suite: exact per-instance cache
// invalidation counts (a write to execution X purges only X's entries),
// the singleflight version-stamp contract (an in-flight pre-write fetch
// can never repopulate the cache for post-write readers), and a
// writers-plus-readers stress run over live services, meant for -race.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
)

// starPair builds one two-execution star store and returns cached
// services over executions "1" and "2" — the per-instance-cache topology
// of a real site (Site.executionConstructor).
func starPair(t *testing.T) (*ExecutionService, *ExecutionService, *datagen.Dataset) {
	t.Helper()
	smg := datagen.SMG98(datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 4, Seed: 11})
	w, err := mapping.NewStar(smg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string) *ExecutionService {
		ew, err := w.ExecutionWrapper(id)
		if err != nil {
			t.Fatal(err)
		}
		return NewExecutionService(id, ew, NewCache(0), nil)
	}
	return mk("1"), mk("2"), smg
}

// windowQuery is a func_calls query over [start, end) — distinct windows
// produce distinct cache keys.
func windowQuery(start, end float64) perfdata.Query {
	return perfdata.Query{Metric: "func_calls", Time: perfdata.TimeRange{Start: start, End: end}, Type: perfdata.UndefinedType}
}

func fillCache(t *testing.T, svc *ExecutionService, qs []perfdata.Query) {
	t.Helper()
	for _, q := range qs {
		if _, err := svc.PerformanceResults(q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWritePathInvalidationCounts pins the exact invalidation accounting:
// a publish to X purges all of X's entries (and only X's), counts them
// into X's cumulative Invalidations, and leaves Y's cache untouched.
func TestWritePathInvalidationCounts(t *testing.T) {
	svcX, svcY, smg := starPair(t)
	end := smg.Execs[0].Time.End
	var xq, yq []perfdata.Query
	for i := 0; i < 6; i++ {
		xq = append(xq, windowQuery(float64(i), end))
	}
	for i := 0; i < 4; i++ {
		yq = append(yq, windowQuery(float64(10+i), end))
	}

	fillCache(t, svcX, xq)
	fillCache(t, svcY, yq)
	// Attach wire envelopes to some of X's entries: invalidation counts
	// entries, not bytes, so these must not change the arithmetic.
	for _, q := range xq[:3] {
		if _, handled, err := svcX.InvokeRawContext(context.Background(), OpGetPR, q.WireParams()); !handled || err != nil {
			t.Fatalf("InvokeRaw: handled=%v err=%v", handled, err)
		}
	}
	if n := svcX.cache.Len(); n != len(xq) {
		t.Fatalf("X cache has %d entries before write, want %d", n, len(xq))
	}

	write := []perfdata.Result{{
		Metric: "func_calls", Focus: "/Process/50/Code/MPI/MPI_Send", Type: "vampir",
		Time: perfdata.TimeRange{Start: 1, End: 2}, Value: 7,
	}}
	if err := svcX.PublishResults(write); err != nil {
		t.Fatal(err)
	}
	if got := svcX.Invalidations(); got != int64(len(xq)) {
		t.Fatalf("X invalidations = %d, want %d", got, len(xq))
	}
	if n := svcX.cache.Len(); n != 0 {
		t.Fatalf("X cache has %d entries after write, want 0", n)
	}
	if got := svcY.Invalidations(); got != 0 {
		t.Fatalf("write to X invalidated %d of Y's entries", got)
	}
	if n := svcY.cache.Len(); n != len(yq) {
		t.Fatalf("Y cache has %d entries after X's write, want %d", n, len(yq))
	}

	// Refill and write again: the counter is cumulative.
	fillCache(t, svcX, xq)
	if err := svcX.PublishResults(write); err != nil {
		t.Fatal(err)
	}
	if got := svcX.Invalidations(); got != int64(2*len(xq)) {
		t.Fatalf("cumulative X invalidations = %d, want %d", got, 2*len(xq))
	}

	// The counters surface as service data.
	sd := svcX.ServiceData()
	for key, want := range map[string]string{
		"writable":         "true",
		"epoch":            "2",
		"publishes":        "2",
		"cacheInvalidated": fmt.Sprint(2 * len(xq)),
	} {
		if got := sd[key]; len(got) != 1 || got[0] != want {
			t.Errorf("service data %s = %v, want [%s]", key, got, want)
		}
	}
}

// TestPublishNotWritable pins the read-only error path: a wrapper
// without ResultWriter rejects publishes with mapping.ErrNotWritable,
// over both the API and the wire operation.
func TestPublishNotWritable(t *testing.T) {
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 4, Seed: 9})
	w, err := mapping.NewXML(rma)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := w.ExecutionWrapper(rma.Execs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewExecutionService(rma.Execs[0].ID, ew, nil, nil)
	rs := []perfdata.Result{{Metric: "m", Focus: "/", Type: "t", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: 1}}
	if err := svc.PublishResults(rs); !errors.Is(err, mapping.ErrNotWritable) {
		t.Fatalf("PublishResults on XML store: %v, want ErrNotWritable", err)
	}
	if _, err := svc.Invoke(OpPublishPR, perfdata.EncodeResults(rs)); !errors.Is(err, mapping.ErrNotWritable) {
		t.Fatalf("publishPR on XML store: %v, want ErrNotWritable", err)
	}
	if sd := svc.ServiceData(); len(sd["writable"]) != 1 || sd["writable"][0] != "false" {
		t.Errorf("service data writable = %v, want [false]", sd["writable"])
	}
}

// gatedWrapper wraps a writable execution wrapper and, on
// AppendPerformanceResults (the Semantic Layer's one getPR read), reads
// the store FIRST and then blocks until the gate opens — the adversarial
// interleaving where a singleflight leader holds pre-write data while a
// write lands, and completes (filling the cache) only afterwards.
type gatedWrapper struct {
	mapping.ExecutionWrapper
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedWrapper) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	rs, err := g.ExecutionWrapper.AppendPerformanceResults(q, dst)
	g.entered <- struct{}{}
	<-g.gate
	return rs, err
}

func (g *gatedWrapper) PublishResults(rs []perfdata.Result) error {
	return g.ExecutionWrapper.(mapping.ResultWriter).PublishResults(rs)
}

// waitEntered waits for a read to reach the gated wrapper, failing fast
// when none does.
func waitEntered(t *testing.T, g *gatedWrapper) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no read reached the gated Mapping-Layer wrapper")
	}
}

// TestWritePathSingleflightVersionStamp pins the version-stamp contract
// on the in-flight-miss window: a fetch that started before a write
// completes with pre-write data and fills the cache under its pre-write
// (epoch-stamped) key, which post-write readers can never look up — and
// a post-write reader never joins the pre-write flight, so it fetches
// fresh post-write data even while the old flight is still in the air.
func TestWritePathSingleflightVersionStamp(t *testing.T) {
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 4, Seed: 10})
	m := mapping.NewMemory(rma)
	inner, err := m.ExecutionWrapper(rma.Execs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedWrapper{ExecutionWrapper: inner, entered: make(chan struct{}, 4), gate: make(chan struct{})}
	svc := NewExecutionService(rma.Execs[0].ID, g, NewCache(0), nil)

	q := perfdata.Query{Metric: "bandwidth", Time: rma.Execs[0].Time, Type: perfdata.UndefinedType}
	write := []perfdata.Result{{
		Metric: "bandwidth", Focus: "/Comm/put/msgsize/1048576", Type: "presta",
		Time: perfdata.TimeRange{Start: 10, End: 20}, Value: 239.5,
	}}

	type outcome struct {
		rs  []perfdata.Result
		err error
	}
	leader := make(chan outcome, 1)
	go func() {
		rs, err := svc.PerformanceResults(q)
		leader <- outcome{rs, err}
	}()
	waitEntered(t, g) // the leader has read pre-write data and is now stalled

	if err := svc.PublishResults(write); err != nil {
		t.Fatal(err)
	}

	// A post-write reader with the identical query must not join the
	// stalled pre-write flight (the flights map is keyed by versioned
	// key): it starts its own fetch and stalls on the gate itself.
	follower := make(chan outcome, 1)
	go func() {
		rs, err := svc.PerformanceResults(q)
		follower <- outcome{rs, err}
	}()
	waitEntered(t, g)

	select {
	case <-leader:
		t.Fatal("leader completed before the gate opened")
	case <-follower:
		t.Fatal("post-write reader completed before the gate opened")
	default:
	}
	close(g.gate)

	lead := <-leader
	foll := <-follower
	if lead.err != nil || foll.err != nil {
		t.Fatalf("leader err=%v follower err=%v", lead.err, foll.err)
	}
	// The leader's query started pre-write: its snapshot excludes the
	// write. The post-write reader must include it.
	if len(lead.rs) != len(foll.rs)-len(write) {
		t.Fatalf("leader saw %d results, post-write reader %d (want +%d)", len(lead.rs), len(foll.rs), len(write))
	}

	// The leader's stale fill landed under a dead (pre-epoch) key: a
	// fresh read — cache hit or not — serves post-write data.
	rs, err := svc.PerformanceResults(q)
	if err != nil {
		t.Fatal(err)
	}
	if encodeJoined(rs) != encodeJoined(foll.rs) {
		t.Fatal("read after write served the stale singleflight fill")
	}
}

// TestNotifyUpdateSingleflightVersionStamp pins the same contract for an
// external update: the store changes behind the service's back, then
// NotifyUpdate announces it. A reader arriving after the notification
// must not join the flight that read pre-update data — it fetches the
// updated store itself.
func TestNotifyUpdateSingleflightVersionStamp(t *testing.T) {
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 4, Seed: 10})
	inner, err := mapping.NewMemory(rma).ExecutionWrapper(rma.Execs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedWrapper{ExecutionWrapper: inner, entered: make(chan struct{}, 4), gate: make(chan struct{})}
	svc := NewExecutionService(rma.Execs[0].ID, g, NewCache(0), nil)
	q := perfdata.Query{Metric: "bandwidth", Time: rma.Execs[0].Time, Type: perfdata.UndefinedType}

	type outcome struct {
		rs  []perfdata.Result
		err error
	}
	leader := make(chan outcome, 1)
	go func() {
		rs, err := svc.PerformanceResults(q)
		leader <- outcome{rs, err}
	}()
	waitEntered(t, g) // the leader has read pre-update data and is now stalled

	update := []perfdata.Result{{
		Metric: "bandwidth", Focus: "/Comm/put/msgsize/1048576", Type: "presta",
		Time: perfdata.TimeRange{Start: 10, End: 20}, Value: 239.5,
	}}
	if err := inner.(mapping.ResultWriter).PublishResults(update); err != nil {
		t.Fatal(err)
	}
	svc.NotifyUpdate("store changed")

	follower := make(chan outcome, 1)
	go func() {
		rs, err := svc.PerformanceResults(q)
		follower <- outcome{rs, err}
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		close(g.gate)
		<-leader
		<-follower
		t.Fatalf("post-update reader never reached the store (coalesced=%d)", svc.CoalescedQueries())
	}
	close(g.gate)

	lead, foll := <-leader, <-follower
	if lead.err != nil || foll.err != nil {
		t.Fatalf("leader err=%v follower err=%v", lead.err, foll.err)
	}
	if len(foll.rs) != len(lead.rs)+len(update) {
		t.Fatalf("leader saw %d results, post-update reader %d (want +%d)", len(lead.rs), len(foll.rs), len(update))
	}
	if got := svc.CoalescedQueries(); got != 0 {
		t.Fatalf("post-update reader coalesced onto the pre-update flight: coalesced=%d", got)
	}
	rs, err := svc.PerformanceResults(q)
	if err != nil {
		t.Fatal(err)
	}
	if encodeJoined(rs) != encodeJoined(foll.rs) {
		t.Fatal("read after update served the stale singleflight fill")
	}
}

// sortedEncoded canonicalizes a result set as a sorted multiset of wire
// strings — concurrent writers interleave nondeterministically, so the
// final store's row order (and therefore result order) is not fixed,
// only its contents.
func sortedEncoded(rs []perfdata.Result) string {
	enc := perfdata.EncodeResults(rs)
	sort.Strings(enc)
	return strings.Join(enc, "\n")
}

// TestWritePathConcurrentStress runs N writers and M readers against
// live cached services with cache churn — meant for -race. Invariants:
// reads of the written execution never error and never lose base rows;
// reads of the untouched sibling execution stay byte-stable throughout;
// and the final store contents equal base data plus every write, as a
// multiset, with zero invalidations charged to the sibling.
func TestWritePathConcurrentStress(t *testing.T) {
	svcX, svcY, smg := starPair(t)
	whole := smg.Execs[0].Time
	xq := windowQuery(0, whole.End)
	yq := windowQuery(0, smg.Execs[1].Time.End)

	baseX, err := svcX.PerformanceResults(xq)
	if err != nil {
		t.Fatal(err)
	}
	baseN := len(baseX)
	wantY, err := svcY.PerformanceResults(yq)
	if err != nil {
		t.Fatal(err)
	}
	wantYEnc := encodeJoined(wantY)

	const (
		writers         = 3
		writesPerWriter = 10
		readers         = 6
		readsPerReader  = 120
	)
	genWrite := func(w, i int) perfdata.Result {
		return perfdata.Result{
			Metric: "func_calls",
			Focus:  fmt.Sprintf("/Process/%d/Code/MPI/MPI_Stress", 100+w),
			Type:   "vampir",
			Time:   perfdata.TimeRange{Start: float64(i), End: float64(i + 1)},
			Value:  float64(w*1000 + i),
		}
	}

	errCh := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPerWriter; i++ {
				if err := svcX.PublishResults([]perfdata.Result{genWrite(w, i)}); err != nil {
					errCh <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) * 7919))
			for i := 0; i < readsPerReader; i++ {
				switch i % 3 {
				case 0: // written execution: append-only, so no read shrinks
					rs, err := svcX.PerformanceResults(xq)
					if err != nil {
						errCh <- fmt.Errorf("reader %d X op %d: %w", r, i, err)
						return
					}
					if len(rs) < baseN || len(rs) > baseN+writers*writesPerWriter {
						errCh <- fmt.Errorf("reader %d op %d: X returned %d results (base %d)", r, i, len(rs), baseN)
						return
					}
				case 1: // untouched sibling: byte-stable under X's writes
					rs, err := svcY.PerformanceResults(yq)
					if err != nil {
						errCh <- fmt.Errorf("reader %d Y op %d: %w", r, i, err)
						return
					}
					if encodeJoined(rs) != wantYEnc {
						errCh <- fmt.Errorf("reader %d op %d: Y's results changed under X's writes", r, i)
						return
					}
				default: // churn: unique windows through the raw envelope path
					q := windowQuery(rng.Float64()*10, whole.End-rng.Float64()*10)
					if _, handled, err := svcX.InvokeRawContext(context.Background(), OpGetPR, q.WireParams()); !handled || err != nil {
						errCh <- fmt.Errorf("reader %d raw op %d: handled=%v err=%v", r, i, handled, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := svcX.Publishes(); got != writers*writesPerWriter {
		t.Fatalf("publishes = %d, want %d", got, writers*writesPerWriter)
	}
	if got := svcY.Invalidations(); got != 0 {
		t.Fatalf("sibling execution charged %d invalidations", got)
	}

	// Final state: base data plus every write, as a multiset, on both the
	// live service and a store rebuilt from scratch.
	var all []perfdata.Result
	for w := 0; w < writers; w++ {
		for i := 0; i < writesPerWriter; i++ {
			all = append(all, genWrite(w, i))
		}
	}
	want := append(append([]perfdata.Result(nil), baseX...), all...)
	final, err := svcX.PerformanceResults(xq)
	if err != nil {
		t.Fatal(err)
	}
	if sortedEncoded(final) != sortedEncoded(want) {
		t.Fatalf("final contents diverge: %d results, want %d", len(final), len(want))
	}
}
