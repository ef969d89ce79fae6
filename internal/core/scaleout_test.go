package core

// Tests for the scale-out path: batched parallel instance creation in the
// Manager (lock never held over the wire, in-flight markers, per-replica
// plural creation), interleaved placement past two replicas, and getPR request coalescing in the Execution service.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
)

// slowBatchFactory is an ExecutionFactoryRef whose creations block until
// released — the "slow remote factory" the regression tests need.
type slowBatchFactory struct {
	host    string
	started chan string   // receives one value per create call
	release chan struct{} // closed (or sent to) to let creations finish
	fail    bool

	mu         sync.Mutex
	made       []string
	batchCalls int
}

func newSlowBatchFactory(host string) *slowBatchFactory {
	return &slowBatchFactory{
		host:    host,
		started: make(chan string, 64),
		release: make(chan struct{}),
	}
}

func (f *slowBatchFactory) CreateExecutions(ids []string) ([]string, error) {
	f.started <- ids[0]
	<-f.release
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batchCalls++
	if f.fail {
		return nil, errors.New("factory down")
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		f.made = append(f.made, id)
		out[i] = gsh.New(f.host, ExecutionType, id).String()
	}
	return out, nil
}

func (f *slowBatchFactory) Host() string { return f.host }

func (f *slowBatchFactory) counts() (made, batch int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.made), f.batchCalls
}

// TestManagerCachedReadsDontStallBehindCreation is the regression test
// for the old lock-across-the-wire bug: a slow remote creation must not
// block lookups of already-cached handles.
func TestManagerCachedReadsDontStallBehindCreation(t *testing.T) {
	f := newSlowBatchFactory("a:1")
	m, err := NewManager(f)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the cache with one instance.
	done := make(chan struct{})
	go func() { defer close(done); _, _ = m.ExecutionHandles([]string{"warm"}) }()
	<-f.started
	f.release <- struct{}{}
	<-done

	// Start a creation that blocks until released.
	var slowErr error
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		_, slowErr = m.ExecutionHandles([]string{"cold"})
	}()
	<-f.started // creation is now in flight, factory blocked

	// Cached lookups must complete while the creation is still blocked.
	start := time.Now()
	hs, err := m.ExecutionHandles([]string{"warm"})
	elapsed := time.Since(start)
	if err != nil || len(hs) != 1 {
		t.Fatalf("cached lookup: %v, %v", hs, err)
	}
	if elapsed > time.Second {
		t.Fatalf("cached lookup stalled %v behind in-flight creation", elapsed)
	}
	select {
	case <-slowDone:
		t.Fatal("slow creation finished before release — test race")
	default:
	}
	f.release <- struct{}{}
	<-slowDone
	if slowErr != nil {
		t.Fatalf("slow creation: %v", slowErr)
	}
}

// TestManagerInFlightDeduplicates proves duplicate requests wait on the
// in-flight marker instead of re-creating: two concurrent batches for the
// same missing ID cost one factory call.
func TestManagerInFlightDeduplicates(t *testing.T) {
	f := newSlowBatchFactory("a:1")
	m, _ := NewManager(f)

	results := make(chan string, 2)
	for i := 0; i < 2; i++ {
		go func() {
			hs, err := m.ExecutionHandles([]string{"x"})
			if err != nil {
				results <- "err: " + err.Error()
				return
			}
			results <- hs[0]
		}()
	}
	// Exactly one creation starts; the duplicate waits on the marker.
	<-f.started
	select {
	case id := <-f.started:
		t.Fatalf("duplicate request started a second creation (%q)", id)
	case <-time.After(50 * time.Millisecond):
	}
	f.release <- struct{}{}
	a, b := <-results, <-results
	if a != b {
		t.Fatalf("waiter got different handle: %q vs %q", a, b)
	}
	if made, batch := f.counts(); made != 1 || batch != 1 {
		t.Fatalf("made=%d batch=%d, want one creation", made, batch)
	}
}

// TestManagerBatchGroupsPerReplica proves a cold batch costs one plural
// factory call per replica (not one per ID) and that the groups run
// concurrently.
func TestManagerBatchGroupsPerReplica(t *testing.T) {
	a := newSlowBatchFactory("a:1")
	b := newSlowBatchFactory("b:1")
	m, _ := NewManager(a, b)

	ids := []string{"1", "2", "3", "4", "5", "6"}
	done := make(chan error, 1)
	go func() {
		_, err := m.ExecutionHandles(ids)
		done <- err
	}()
	// Both replicas' creations must be in flight at the same time —
	// sequential creation would start b only after a finished.
	<-a.started
	<-b.started
	close(a.release)
	close(b.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	aMade, aBatch := a.counts()
	bMade, bBatch := b.counts()
	if aMade != 3 || bMade != 3 {
		t.Fatalf("distribution %d/%d, want 3/3", aMade, bMade)
	}
	if aBatch != 1 || bBatch != 1 {
		t.Fatalf("calls a=%d b=%d, want one plural call each", aBatch, bBatch)
	}
}

// perIDRef is the per-ID creation path, kept only as the oracle the
// plural path is tested against: its CreateExecutions makes one
// single-ID CreateService round trip per ID.
type perIDRef struct{ *RemoteFactoryRef }

func (r perIDRef) CreateExecutions(ids []string) ([]string, error) {
	out := make([]string, len(ids))
	for i, id := range ids {
		h, err := r.Stub.Call(ogsi.OpCreateService, id)
		if err != nil {
			return nil, err
		}
		if len(h) != 1 {
			return nil, fmt.Errorf("CreateService returned %d values", len(h))
		}
		out[i] = h[0]
	}
	return out, nil
}

// TestManagerBatchedMatchesPerIDOracle differentially tests the batched
// path against the per-ID oracle over remote factories: every handle is
// an instance of the execution ID it was asked for (read back from the
// instance's executionID service data), on the same replica as the
// oracle's, with the same placement counts.
func TestManagerBatchedMatchesPerIDOracle(t *testing.T) {
	const replicas = 3
	d := datagen.HPL(datagen.HPLConfig{Executions: 25, Seed: 34})
	wrappers := make([]mapping.ApplicationWrapper, replicas)
	for i := range wrappers {
		wrappers[i] = mapping.NewMemory(d)
	}
	site, err := StartSite(SiteConfig{AppName: "HPL", Wrappers: wrappers})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	ids, err := site.LocalWrapper().AllExecIDs()
	if err != nil {
		t.Fatal(err)
	}
	run := func(batched bool) ([]string, map[string]int) {
		t.Helper()
		refs := make([]ExecutionFactoryRef, replicas)
		for i, host := range site.Hosts() {
			refs[i] = NewRemoteFactoryRef(host)
			if !batched {
				refs[i] = perIDRef{NewRemoteFactoryRef(host)}
			}
		}
		m, err := NewManager(refs...)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := m.ExecutionHandles(ids)
		if err != nil {
			t.Fatal(err)
		}
		hosts := make([]string, len(hs))
		for i, h := range hs {
			stub, err := container.DialString(h)
			if err != nil {
				t.Fatal(err)
			}
			got, err := stub.Call(ogsi.OpFindServiceData, "executionID")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != ids[i] {
				t.Errorf("batched=%v: handle %d (%s) is an instance of %v, want %q", batched, i, h, got, ids[i])
			}
			hosts[i] = stub.Handle().Host
		}
		return hosts, m.PerHostCounts()
	}
	batchedHosts, batchedCounts := run(true)
	oracleHosts, oracleCounts := run(false)
	if !reflect.DeepEqual(batchedHosts, oracleHosts) {
		t.Errorf("batched replicas diverge from per-ID oracle:\n%v\n%v", batchedHosts, oracleHosts)
	}
	if !reflect.DeepEqual(batchedCounts, oracleCounts) {
		t.Errorf("batched placement %v diverges from oracle %v", batchedCounts, oracleCounts)
	}
}

// TestManagerBatchCreateFailure covers the plural path's error handling:
// the request reports the failure, and the failed IDs are released for
// retry once the factory recovers.
func TestManagerBatchCreateFailure(t *testing.T) {
	f := newSlowBatchFactory("a:1")
	close(f.release)
	go func() {
		for range f.started {
		}
	}()
	f.fail = true
	m, _ := NewManager(f)
	if _, err := m.ExecutionHandles([]string{"1", "2"}); err == nil {
		t.Fatal("batch factory failure not propagated")
	}
	f.mu.Lock()
	f.fail = false
	f.mu.Unlock()
	hs, err := m.ExecutionHandles([]string{"1", "2"})
	if err != nil || len(hs) != 2 {
		t.Fatalf("retry after failure: %v, %v", hs, err)
	}
}

// TestManagerDuplicateIDsInBatch: repeated IDs in one request map to one
// creation and identical handles.
func TestManagerDuplicateIDsInBatch(t *testing.T) {
	f := newSlowBatchFactory("a:1")
	close(f.release)
	go func() {
		for range f.started {
		}
	}()
	m, _ := NewManager(f)
	hs, err := m.ExecutionHandles([]string{"7", "7", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if hs[0] != hs[1] || hs[1] != hs[2] {
		t.Fatalf("duplicate IDs got different handles: %v", hs)
	}
	if made, _ := f.counts(); made != 1 {
		t.Fatalf("created %d instances for one unique ID", made)
	}
}

// TestPolicyFairnessManyHosts checks the Manager's interleaved placement
// past the paper's two-host testbed: uniform batches land within ±1 per
// host at 3, 4, and 8 replicas.
func TestPolicyFairnessManyHosts(t *testing.T) {
	for _, replicas := range []int{3, 4, 8} {
		for _, batch := range []int{24, 25, 124} {
			ids := make([]string, batch)
			for i := range ids {
				ids[i] = fmt.Sprintf("exec-%03d", i)
			}
			hosts := make([]*fakeFactory, replicas)
			refs := make([]ExecutionFactoryRef, replicas)
			for r := range hosts {
				hosts[r] = &fakeFactory{host: fmt.Sprintf("h%d:1", r)}
				refs[r] = hosts[r]
			}
			m, err := NewManager(refs...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.ExecutionHandles(ids); err != nil {
				t.Fatal(err)
			}
			lo, hi := batch, 0
			for _, h := range hosts {
				lo, hi = min(lo, h.count()), max(hi, h.count())
			}
			if hi-lo > 1 {
				t.Errorf("%d IDs on %d hosts spread %d (>1)", batch, replicas, hi-lo)
			}
		}
	}
}

// countingExecWrapper wraps an ExecutionWrapper, counting and slowing
// AppendPerformanceResults so coalescing windows are wide enough to test.
type countingExecWrapper struct {
	mapping.ExecutionWrapper
	delay time.Duration
	calls atomic.Int64
}

func (c *countingExecWrapper) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	c.calls.Add(1)
	time.Sleep(c.delay)
	return c.ExecutionWrapper.AppendPerformanceResults(q, dst)
}

// TestGetPRCoalescing: N concurrent identical cold getPR queries execute
// the Mapping Layer exactly once; the other N-1 are coalesced onto the
// in-flight execution and counted.
func TestGetPRCoalescing(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 31})
	ew, err := mapping.NewMemory(d).ExecutionWrapper("100")
	if err != nil {
		t.Fatal(err)
	}
	cw := &countingExecWrapper{ExecutionWrapper: ew, delay: 50 * time.Millisecond}
	svc := NewExecutionService("100", cw, NewCache(0), nil)
	tr, _ := svc.TimeStartEnd()
	q := perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"}

	const n = 8
	var wg sync.WaitGroup
	results := make([][]perfdata.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = svc.PerformanceResults(q)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("query %d diverged", i)
		}
	}
	if got := cw.calls.Load(); got != 1 {
		t.Fatalf("mapping layer executed %d times for %d concurrent identical queries", got, n)
	}
	if got := svc.CoalescedQueries(); got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}
	sd := svc.ServiceData()
	if sd["coalescedQueries"][0] != fmt.Sprint(n-1) {
		t.Errorf("coalescedQueries SDE = %v", sd["coalescedQueries"])
	}

	// A later identical query is a plain cache hit — no new execution, no
	// new coalescing.
	if _, err := svc.PerformanceResults(q); err != nil {
		t.Fatal(err)
	}
	if cw.calls.Load() != 1 || svc.CoalescedQueries() != n-1 {
		t.Errorf("post-flight query re-executed: calls=%d coalesced=%d",
			cw.calls.Load(), svc.CoalescedQueries())
	}
}

// TestGetPRCoalescingDistinctQueries: different queries are not coalesced
// with each other.
func TestGetPRCoalescingDistinctQueries(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 32})
	ew, err := mapping.NewMemory(d).ExecutionWrapper("100")
	if err != nil {
		t.Fatal(err)
	}
	cw := &countingExecWrapper{ExecutionWrapper: ew, delay: 20 * time.Millisecond}
	svc := NewExecutionService("100", cw, NewCache(0), nil)
	tr, _ := svc.TimeStartEnd()

	var wg sync.WaitGroup
	for _, metric := range []string{"gflops", "residual"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := perfdata.Query{Metric: metric, Time: tr, Type: "hpl"}
			if _, err := svc.PerformanceResults(q); err != nil {
				t.Errorf("%s: %v", metric, err)
			}
		}()
	}
	wg.Wait()
	if got := cw.calls.Load(); got != 2 {
		t.Errorf("distinct queries executed %d times, want 2", got)
	}
	if got := svc.CoalescedQueries(); got != 0 {
		t.Errorf("distinct queries coalesced: %d", got)
	}
}

// TestColdBatchWireCalls pins the headline wire-cost property: a cold
// B-ID batch resolved through remote factories on R replicas costs at
// most R factory round trips (one plural CreateServices per replica),
// where the per-ID oracle costs B.
func TestColdBatchWireCalls(t *testing.T) {
	const replicas = 3
	d := datagen.HPL(datagen.HPLConfig{Executions: 24, Seed: 33})
	wrappers := make([]mapping.ApplicationWrapper, replicas)
	for i := range wrappers {
		wrappers[i] = mapping.NewMemory(d)
	}
	site, err := StartSite(SiteConfig{AppName: "HPL", Wrappers: wrappers})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()

	ids, err := site.LocalWrapper().AllExecIDs()
	if err != nil || len(ids) != 24 {
		t.Fatalf("AllExecIDs: %v, %v", ids, err)
	}
	newRemoteManager := func(perID bool) *Manager {
		refs := make([]ExecutionFactoryRef, replicas)
		for i, host := range site.Hosts() {
			refs[i] = NewRemoteFactoryRef(host)
			if perID {
				refs[i] = perIDRef{NewRemoteFactoryRef(host)}
			}
		}
		m, err := NewManager(refs...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	requests := func() int64 {
		var total int64
		for _, c := range site.Containers() {
			total += c.Requests()
		}
		return total
	}

	before := requests()
	if _, err := newRemoteManager(false).ExecutionHandles(ids); err != nil {
		t.Fatal(err)
	}
	batchedCalls := requests() - before
	if batchedCalls > replicas {
		t.Errorf("cold %d-ID batch on %d replicas issued %d wire calls, want <= %d",
			len(ids), replicas, batchedCalls, replicas)
	}

	before = requests()
	if _, err := newRemoteManager(true).ExecutionHandles(ids); err != nil {
		t.Fatal(err)
	}
	perIDCalls := requests() - before
	if perIDCalls != int64(len(ids)) {
		t.Errorf("per-ID oracle issued %d wire calls, want %d", perIDCalls, len(ids))
	}
	t.Logf("cold batch wire calls: batched=%d per-ID=%d", batchedCalls, perIDCalls)
}
