package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
)

func hplWrapper(t *testing.T, n int) mapping.ApplicationWrapper {
	t.Helper()
	w, err := mapping.NewWideTable(datagen.HPL(datagen.HPLConfig{Executions: n, Seed: 21}))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fakeFactory counts creations per host without real instances.
type fakeFactory struct {
	host string
	mu   sync.Mutex
	made []string
	fail bool
}

func (f *fakeFactory) CreateExecutions(ids []string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
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

func (f *fakeFactory) Host() string { return f.host }

func (f *fakeFactory) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.made)
}

// TestApplicationPortType verifies Table 1: every Application operation is
// published with the paper's semantics and behaves accordingly.
func TestApplicationPortType(t *testing.T) {
	pt := ApplicationPortType()
	wantOps := []string{OpGetAppInfo, OpGetNumExecs, OpGetExecQueryParams, OpGetAllExecs, OpGetExecs}
	have := map[string]bool{}
	for _, op := range pt.Operations {
		have[op.Name] = true
		if op.Doc == "" {
			t.Errorf("operation %s missing semantics documentation", op.Name)
		}
	}
	for _, op := range wantOps {
		if !have[op] {
			t.Errorf("Application PortType missing %s", op)
		}
	}

	f := &fakeFactory{host: "a:1"}
	mgr, err := NewManager(f)
	if err != nil {
		t.Fatal(err)
	}
	app := NewApplicationService(hplWrapper(t, 6), mgr)

	// getAppInfo: name|value pairs.
	info, err := app.Invoke(OpGetAppInfo, nil)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := perfdata.ParseKVs(info)
	if err != nil {
		t.Fatalf("getAppInfo not name|value encoded: %v", err)
	}
	foundName := false
	for _, kv := range kvs {
		if kv.Name == "name" && kv.Value == "HPL" {
			foundName = true
		}
	}
	if !foundName {
		t.Errorf("getAppInfo missing name: %v", info)
	}

	// getNumExecs: integer.
	out, err := app.Invoke(OpGetNumExecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := strconv.Atoi(out[0]); err != nil || n != 6 {
		t.Errorf("getNumExecs = %v", out)
	}

	// getExecQueryParams: attribute|v1|v2|... entries with unique values.
	out, err = app.Invoke(OpGetExecQueryParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	sawNumProcs := false
	for _, row := range out {
		a, err := perfdata.ParseAttribute(row)
		if err != nil {
			t.Fatalf("bad attribute row %q: %v", row, err)
		}
		seen := map[string]bool{}
		for _, v := range a.Values {
			if seen[v] {
				t.Errorf("attribute %s has duplicate value %q", a.Name, v)
			}
			seen[v] = true
		}
		if a.Name == "numprocesses" {
			sawNumProcs = true
		}
	}
	if !sawNumProcs {
		t.Errorf("getExecQueryParams missing numprocesses: %v", out)
	}

	// getAllExecs: properly formatted GSHs, one per execution.
	out, err = app.Invoke(OpGetAllExecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("getAllExecs returned %d handles", len(out))
	}
	for _, h := range out {
		if _, err := gsh.Parse(h); err != nil {
			t.Errorf("getAllExecs returned malformed GSH %q", h)
		}
	}

	// getExecs: subset matching attribute=value.
	out, err = app.Invoke(OpGetExecs, []string{"numprocesses", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("getExecs(numprocesses,2) = %v", out)
	}

	// No match: empty array, not an error.
	out, err = app.Invoke(OpGetExecs, []string{"numprocesses", "777"})
	if err != nil || len(out) != 0 {
		t.Errorf("no-match getExecs: %v, %v", out, err)
	}

	if _, err := app.Invoke("bogus", nil); !errors.Is(err, ogsi.ErrUnknownOperation) {
		t.Errorf("unknown op: %v", err)
	}
}

// TestExecutionPortType verifies Table 2 semantics over a live wrapper.
func TestExecutionPortType(t *testing.T) {
	pt := ExecutionPortType()
	wantOps := []string{OpGetInfo, OpGetFoci, OpGetMetrics, OpGetTypes, OpGetTimeStartEnd, OpGetPR}
	have := map[string]bool{}
	for _, op := range pt.Operations {
		have[op.Name] = true
		if op.Doc == "" {
			t.Errorf("operation %s missing semantics documentation", op.Name)
		}
	}
	for _, op := range wantOps {
		if !have[op] {
			t.Errorf("Execution PortType missing %s", op)
		}
	}

	d := datagen.PrestaRMA(datagen.RMAConfig{Executions: 2, MessageSizes: 4, Seed: 22})
	w := mapping.NewMemory(d)
	ew, err := w.ExecutionWrapper("1")
	if err != nil {
		t.Fatal(err)
	}
	svc := NewExecutionService("1", ew, NewCache(0), nil)

	// getInfo: name|value pairs including the ID.
	out, err := svc.Invoke(OpGetInfo, nil)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := perfdata.ParseKVs(out)
	if err != nil || kvs[0].Name != "id" || kvs[0].Value != "1" {
		t.Errorf("getInfo = %v (%v)", out, err)
	}

	// Discovery sets: sorted, unique.
	for op, check := range map[string]func([]string) bool{
		OpGetFoci:    func(v []string) bool { return len(v) == 4*len(datagen.RMAOps) },
		OpGetMetrics: func(v []string) bool { return reflect.DeepEqual(v, []string{"bandwidth", "latency"}) },
		OpGetTypes:   func(v []string) bool { return reflect.DeepEqual(v, []string{"presta"}) },
	} {
		vals, err := svc.Invoke(op, nil)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !sort.StringsAreSorted(vals) {
			t.Errorf("%s not sorted: %v", op, vals)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] == vals[i-1] {
				t.Errorf("%s has duplicates: %v", op, vals)
			}
		}
		if !check(vals) {
			t.Errorf("%s = %v", op, vals)
		}
	}

	// getTimeStartEnd: two values.
	out, err = svc.Invoke(OpGetTimeStartEnd, nil)
	if err != nil || len(out) != 2 {
		t.Fatalf("getTimeStartEnd = %v, %v", out, err)
	}
	start, err1 := strconv.ParseFloat(out[0], 64)
	end, err2 := strconv.ParseFloat(out[1], 64)
	if err1 != nil || err2 != nil || end <= start {
		t.Errorf("getTimeStartEnd values: %v", out)
	}

	// getPR with [metric, start, end, type, foci...].
	out, err = svc.Invoke(OpGetPR, []string{"bandwidth", out[0], out[1], "presta"})
	if err != nil {
		t.Fatal(err)
	}
	results, err := perfdata.ParseResults(out)
	if err != nil {
		t.Fatalf("getPR rows unparseable: %v", err)
	}
	if len(results) != 4*len(datagen.RMAOps) {
		t.Errorf("getPR returned %d results", len(results))
	}

	// Malformed getPR params.
	if _, err := svc.Invoke(OpGetPR, []string{"m", "x", "1", "t"}); err == nil {
		t.Error("bad start time accepted")
	}
	if _, err := svc.Invoke(OpGetPR, []string{"m"}); err == nil {
		t.Error("short params accepted")
	}
	if _, err := svc.Invoke("bogus", nil); !errors.Is(err, ogsi.ErrUnknownOperation) {
		t.Errorf("unknown op: %v", err)
	}
}

func TestExecutionServiceCaching(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 23})
	w := mapping.NewMemory(d)
	ew, _ := w.ExecutionWrapper("100")
	cache := NewCache(0)
	svc := NewExecutionService("100", ew, cache, nil)
	tr, _ := svc.TimeStartEnd()
	q := perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"}

	first, err := svc.PerformanceResults(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.PerformanceResults(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached result differs")
	}
	s := cache.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Logically identical query with reordered foci also hits.
	q2 := q
	q2.Foci = []string{"/"}
	_, _ = svc.PerformanceResults(q2) // different key (explicit focus)
	if got := svc.CacheStats(); got.Misses != 2 {
		t.Errorf("distinct query should miss: %+v", got)
	}
}

func TestExecutionServiceNoCache(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 24})
	w := mapping.NewMemory(d)
	ew, _ := w.ExecutionWrapper("100")
	svc := NewExecutionService("100", ew, nil, nil)
	tr, _ := svc.TimeStartEnd()
	q := perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"}
	if _, err := svc.PerformanceResults(q); err != nil {
		t.Fatal(err)
	}
	if got := svc.CacheStats(); got != (CacheStats{}) {
		t.Errorf("no-cache stats = %+v", got)
	}
}

func TestExecutionServiceDataElements(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 25})
	w := mapping.NewMemory(d)
	ew, _ := w.ExecutionWrapper("100")
	svc := NewExecutionService("100", ew, NewCache(0), nil)
	sd := svc.ServiceData()
	if sd["executionID"][0] != "100" || sd["caching"][0] != "true" {
		t.Errorf("service data: %v", sd)
	}
	if !reflect.DeepEqual(sd["metrics"], []string{"gflops", "residual", "runtimesec"}) {
		t.Errorf("metrics SDE = %v", sd["metrics"])
	}
}

func TestNotifyUpdateInvalidates(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 26})
	mem := mapping.NewMemory(d)
	ew, _ := mem.ExecutionWrapper("100")
	cache := NewCache(0)
	svc := NewExecutionService("100", ew, cache, ogsi.NewNotificationHub(nil))

	tr, _ := svc.TimeStartEnd()
	q := perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"}
	_, _ = svc.PerformanceResults(q)
	if svc.CacheStats().Misses != 1 {
		t.Fatal("prime failed")
	}
	svc.NotifyUpdate("new data")
	_, _ = svc.PerformanceResults(q)
	// After invalidation the same query misses again; stats are
	// cumulative across updates (the cache is purged, not replaced).
	if svc.CacheStats().Misses != 2 {
		t.Errorf("post-invalidate stats = %+v", svc.CacheStats())
	}
}

func TestManagerCachesInstances(t *testing.T) {
	f := &fakeFactory{host: "a:1"}
	m, err := NewManager(f)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.ExecutionHandles([]string{"1", "2", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if f.count() != 3 {
		t.Errorf("created %d instances", f.count())
	}
	second, err := m.ExecutionHandles([]string{"3", "2", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if f.count() != 3 {
		t.Errorf("re-request created more instances: %d", f.count())
	}
	// Same handles, order matching request order.
	if second[0] != first[2] || second[2] != first[0] {
		t.Errorf("cached handles misordered: %v vs %v", second, first)
	}
	if m.CachedCount() != 3 {
		t.Errorf("CachedCount = %d", m.CachedCount())
	}
}

func TestManagerInterleavesAcrossReplicas(t *testing.T) {
	a := &fakeFactory{host: "a:1"}
	b := &fakeFactory{host: "b:1"}
	m, _ := NewManager(a, b)
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = fmt.Sprintf("%d", i+1)
	}
	if _, err := m.ExecutionHandles(ids); err != nil {
		t.Fatal(err)
	}
	// Paper: 16 instances on one host and 16 on the other, interleaved.
	if a.count() != 16 || b.count() != 16 {
		t.Errorf("distribution = %d/%d, want 16/16", a.count(), b.count())
	}
	if a.made[0] != "1" || b.made[0] != "2" || a.made[1] != "3" {
		t.Errorf("not interleaved: a=%v b=%v", a.made[:2], b.made[:2])
	}
	counts := m.PerHostCounts()
	if counts["a:1"] != 16 || counts["b:1"] != 16 {
		t.Errorf("PerHostCounts = %v", counts)
	}

	// Every cold batch restarts at replica 0: the i-th new ID of a batch
	// goes to replica i mod N, whatever earlier batches placed, and cached
	// IDs take no slot. Two odd batches on three replicas pin this: a
	// cursor carried across batches would start the second batch at b,
	// and counting the cached "5" would put "9" on c.
	hosts := []*fakeFactory{{host: "a:1"}, {host: "b:1"}, {host: "c:1"}}
	m3, _ := NewManager(hosts[0], hosts[1], hosts[2])
	for _, batch := range [][]string{
		{"1", "2", "3", "4", "5", "6", "7"},
		{"8", "5", "9", "10", "11", "12"},
	} {
		if _, err := m3.ExecutionHandles(batch); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{
		"1": "a:1", "2": "b:1", "3": "c:1", "4": "a:1", "5": "b:1", "6": "c:1", "7": "a:1",
		"8": "a:1", "9": "b:1", "10": "c:1", "11": "a:1", "12": "b:1",
	}
	for id, host := range want {
		hs, err := m3.ExecutionHandles([]string{id})
		if err != nil {
			t.Fatal(err)
		}
		h, err := gsh.Parse(hs[0])
		if err != nil {
			t.Fatal(err)
		}
		if h.Host != host {
			t.Errorf("execution %s placed on %s, want %s", id, h.Host, host)
		}
	}
	if got := m3.PerHostCounts(); got["a:1"] != 5 || got["b:1"] != 4 || got["c:1"] != 3 {
		t.Errorf("3-replica PerHostCounts = %v, want a=5 b=4 c=3", got)
	}
}

func TestManagerFactoryFailure(t *testing.T) {
	f := &fakeFactory{host: "a:1", fail: true}
	m, _ := NewManager(f)
	if _, err := m.ExecutionHandles([]string{"1"}); err == nil {
		t.Error("factory failure not propagated")
	}
}

func TestManagerForget(t *testing.T) {
	f := &fakeFactory{host: "a:1"}
	m, _ := NewManager(f)
	hs, _ := m.ExecutionHandles([]string{"1"})
	m.Forget("1", gsh.New("a:1", ExecutionType, "other").String())
	_, _ = m.ExecutionHandles([]string{"1"})
	if f.count() != 1 {
		t.Errorf("Forget of a handle the Manager never handed out forced re-creation: %d", f.count())
	}
	m.Forget("1", hs[0])
	_, _ = m.ExecutionHandles([]string{"1"})
	if f.count() != 2 {
		t.Errorf("Forget did not force re-creation: %d", f.count())
	}
}

func TestManagerRequiresFactory(t *testing.T) {
	if _, err := NewManager(); err == nil {
		t.Error("no factories: want error")
	}
}

func TestManagerWireProtocol(t *testing.T) {
	f := &fakeFactory{host: "a:1"}
	m, _ := NewManager(f)
	out, err := m.Invoke(OpGetExecutions, []string{"7", "8"})
	if err != nil || len(out) != 2 {
		t.Fatalf("getExecutions: %v, %v", out, err)
	}
	if _, err := m.Invoke("bogus", nil); !errors.Is(err, ogsi.ErrUnknownOperation) {
		t.Errorf("unknown op: %v", err)
	}
	sd := m.ServiceData()
	if sd["cachedCount"][0] != "2" || sd["replicaCount"][0] != "1" {
		t.Errorf("service data: %v", sd)
	}
}

func TestManagerConcurrent(t *testing.T) {
	a := &fakeFactory{host: "a:1"}
	b := &fakeFactory{host: "b:1"}
	m, _ := NewManager(a, b)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, 20)
			for i := range ids {
				ids[i] = fmt.Sprintf("%d", i)
			}
			if _, err := m.ExecutionHandles(ids); err != nil {
				t.Errorf("handles: %v", err)
			}
		}()
	}
	wg.Wait()
	// Each unique ID created exactly once despite 8 concurrent batches.
	if total := a.count() + b.count(); total != 20 {
		t.Errorf("created %d instances for 20 unique IDs", total)
	}
}

func TestAsyncOutcomeRoundTrip(t *testing.T) {
	rs := []perfdata.Result{
		{Metric: "gflops", Focus: "/", Type: "hpl", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: 2.5},
		{Metric: "gflops", Focus: "/", Type: "hpl", Time: perfdata.TimeRange{Start: 1, End: 2}, Value: 2.7},
	}
	id, got, err := DecodeAsyncOutcome(EncodeAsyncOutcome("req-7", rs, nil))
	if err != nil || id != "req-7" {
		t.Fatalf("decode: %q, %v", id, err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Errorf("results = %+v", got)
	}
	// Error outcome.
	id, got, err = DecodeAsyncOutcome(EncodeAsyncOutcome("req-8", nil, errors.New("store\noffline")))
	if id != "req-8" || err == nil || got != nil {
		t.Errorf("error outcome: %q, %v, %v", id, got, err)
	}
	if strings.Contains(err.Error(), "\n") == false && !strings.Contains(err.Error(), "offline") {
		t.Errorf("error text lost: %v", err)
	}
	// Malformed messages.
	for _, msg := range []string{"", "justone", "id\nbogus-status"} {
		if _, _, err := DecodeAsyncOutcome(msg); err == nil {
			t.Errorf("DecodeAsyncOutcome(%q): want error", msg)
		}
	}
}

func TestGetPRAsyncWithFakeDialer(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 27})
	w := mapping.NewMemory(d)
	ew, _ := w.ExecutionWrapper("100")
	svc := NewExecutionService("100", ew, nil, nil)

	// Without a dialer the operation is rejected.
	if _, err := svc.Invoke(OpGetPRAsync, []string{"r1", "http://h:1/ogsa/services/Sink/1", "gflops", "0", "1e9", "hpl"}); err == nil {
		t.Fatal("no dialer: want error")
	}

	delivered := make(chan string, 1)
	svc.SetSinkDialer(func(h gsh.Handle) ogsi.Sink {
		return ogsi.SinkFunc(func(topic, msg string) error {
			delivered <- topic + "\x00" + msg
			return nil
		})
	})
	out, err := svc.Invoke(OpGetPRAsync, []string{"r1", "http://h:1/ogsa/services/Sink/1", "gflops", "0", "1e9", "hpl"})
	if err != nil || out[0] != "accepted" {
		t.Fatalf("getPRAsync: %v, %v", out, err)
	}
	svc.FlushAsync()
	msg := <-delivered
	topic, body, _ := strings.Cut(msg, "\x00")
	if topic != AsyncPRTopic {
		t.Errorf("topic = %q", topic)
	}
	id, rs, err := DecodeAsyncOutcome(body)
	if err != nil || id != "r1" || len(rs) != 1 || rs[0].Metric != "gflops" {
		t.Errorf("outcome: %q %v %v", id, rs, err)
	}

	// Validation failures are synchronous.
	bad := [][]string{
		{"r2", "junk-handle", "gflops", "0", "1", "hpl"},                     // bad sink
		{"", "http://h:1/ogsa/services/Sink/1", "gflops", "0", "1", "hpl"},   // empty ID
		{"r3", "http://h:1/ogsa/services/Sink/1", "gflops", "x", "1", "hpl"}, // bad time
		{"r4", "http://h:1/ogsa/services/Sink/1"},                            // short
	}
	for _, params := range bad {
		if _, err := svc.Invoke(OpGetPRAsync, params); err == nil {
			t.Errorf("getPRAsync(%v): want error", params)
		}
	}
}
