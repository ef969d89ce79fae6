package container

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/soap"
	"pperfgrid/internal/wsdl"
)

// gateService blocks every "block" invocation until the gate closes, so
// tests can hold the worker pool saturated deterministically. "count"
// increments an invocation counter — the probe for "this request never
// reached the service".
type gateService struct {
	entered chan struct{}
	gate    chan struct{}
	counted atomic.Int64
}

func newGateService() *gateService {
	return &gateService{entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gateService) Invoke(op string, params []string) ([]string, error) {
	switch op {
	case "block":
		g.entered <- struct{}{}
		<-g.gate
		return []string{"done"}, nil
	case "count":
		g.counted.Add(1)
		return []string{"counted"}, nil
	}
	return nil, fmt.Errorf("gate: unknown op %q", op)
}

func gateDef() *wsdl.Definition {
	return wsdl.New("Gate", wsdl.PortType{Name: "Gate", Operations: []wsdl.Operation{
		wsdl.Op("block", "Blocks until the test opens the gate.", wsdl.PRep("arg")),
		wsdl.Op("count", "Counts invocations.", wsdl.PRep("arg")),
	}})
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionShedsExactCount saturates a 1-worker container (one
// executing request, a full 2-deep queue) and pins that every further
// request is shed with the typed overload fault — HTTP 503, Retry-After
// set, soap.AsOverload recoverable — without consuming the worker slot,
// and that the shed count is exact. The queued requests complete
// untouched once the gate opens.
func TestAdmissionShedsExactCount(t *testing.T) {
	c := startContainer(t, Options{Workers: 1, QueueDepth: 2})
	svc := newGateService()
	in, err := c.Hosting().DeployPersistent("Gate", svc, gateDef())
	if err != nil {
		t.Fatal(err)
	}
	stub := Dial(in.Handle())

	// One request holds the worker, two fill the queue.
	var wg sync.WaitGroup
	results := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = stub.Call("block", fmt.Sprint(i))
		}(i)
	}
	<-svc.entered // the executing request is inside the service
	waitUntil(t, "queue to fill", func() bool { return c.Queued() == 2 })
	if got := c.Executing(); got != 1 {
		t.Errorf("executing = %d, want 1", got)
	}

	// Every further request sheds, immediately and countably.
	const extra = 5
	for i := 0; i < extra; i++ {
		_, err := stub.Call("block", "extra")
		hint, ok := soap.AsOverload(err)
		if !ok {
			t.Fatalf("saturated call %d: %v, want overload fault", i, err)
		}
		if hint <= 0 {
			t.Errorf("saturated call %d: Retry-After hint %v, want > 0", i, hint)
		}
	}
	if got := c.Sheds(); got != extra {
		t.Errorf("sheds = %d, want %d", got, extra)
	}
	if got := c.Faults(); got != 0 {
		t.Errorf("faults = %d, want 0 (sheds are backpressure, not faults)", got)
	}
	if got := c.Queued(); got != 2 {
		t.Errorf("queued = %d after sheds, want 2 (sheds never queue)", got)
	}
	if got := c.Executing(); got != 1 {
		t.Errorf("executing = %d after sheds, want 1 (sheds never take the worker)", got)
	}
	if lats := c.ShedLatenciesNs(); len(lats) != extra {
		t.Errorf("shed latency samples = %d, want %d", len(lats), extra)
	}

	// The raw wire shape of a shed: HTTP 503 with a Retry-After header.
	req, err := soap.EncodeRequest("block", nil, []string{"raw"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(in.Handle().URL(), soap.ContentType, bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("shed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	if !bytes.Contains(body, []byte(soap.FaultOverloaded)) {
		t.Errorf("shed body missing %s fault code: %s", soap.FaultOverloaded, body)
	}

	// The saturating requests were never disturbed: open the gate and all
	// three complete successfully.
	close(svc.gate)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Errorf("queued request %d: %v", i, err)
		}
	}
	waitUntil(t, "container to go idle", func() bool {
		return c.Queued() == 0 && c.Executing() == 0
	})
	if got := c.Sheds(); got != extra+1 {
		t.Errorf("final sheds = %d, want %d", got, extra+1)
	}
}

// TestQueueWaitBudgetSheds pins the second shed trigger: a request
// admitted to the queue is shed with the overload fault once its
// queue-wait budget expires, instead of waiting forever for the worker.
func TestQueueWaitBudgetSheds(t *testing.T) {
	c := startContainer(t, Options{Workers: 1, QueueDepth: 8, QueueWait: 30 * time.Millisecond})
	svc := newGateService()
	in, _ := c.Hosting().DeployPersistent("Gate", svc, gateDef())
	stub := Dial(in.Handle())

	var wg sync.WaitGroup
	wg.Add(1)
	var blockErr error
	go func() {
		defer wg.Done()
		_, blockErr = stub.Call("block", "holder")
	}()
	<-svc.entered

	start := time.Now()
	_, err := stub.Call("count", "queued-past-budget")
	elapsed := time.Since(start)
	if _, ok := soap.AsOverload(err); !ok {
		t.Fatalf("queued call: %v, want overload fault after wait budget", err)
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("shed after %v, before the 30ms budget", elapsed)
	}
	if got := svc.counted.Load(); got != 0 {
		t.Errorf("count invocations = %d, want 0 (shed request must not run)", got)
	}
	if got := c.Sheds(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}

	close(svc.gate)
	wg.Wait()
	if blockErr != nil {
		t.Errorf("holder request: %v", blockErr)
	}
}

// TestDeadlineExpiredWhileQueuedNeverInvokes pins deadline propagation at
// the front door: a request whose ppg-deadline budget expires while it
// waits for the worker is turned away with a client fault and never
// reaches the service implementation.
func TestDeadlineExpiredWhileQueuedNeverInvokes(t *testing.T) {
	c := startContainer(t, Options{Workers: 1, QueueDepth: 8})
	svc := newGateService()
	in, _ := c.Hosting().DeployPersistent("Gate", svc, gateDef())
	stub := Dial(in.Handle())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = stub.Call("block", "holder")
	}()
	<-svc.entered

	// The stub turns the context deadline into the ppg-deadline header;
	// the container folds it into the request context, and the queued
	// request exits via ctx.Done while the worker is still held.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := stub.Serve(ctx, ogsi.Call{Op: "count", Params: []string{"doomed"}}, nil)
	if err == nil {
		t.Fatal("deadline-expired queued call succeeded, want failure")
	}
	if _, ok := soap.AsOverload(err); ok {
		t.Errorf("deadline expiry classified as overload: %v", err)
	}
	if got := svc.counted.Load(); got != 0 {
		t.Errorf("count invocations = %d, want 0 (expired request must not dispatch)", got)
	}
	// The client gives up marginally before the server-side budget (the
	// header rounds the remaining budget up); wait for the server to
	// reject the queued request before freeing the worker, or the two
	// races and the doomed request could still dispatch.
	waitUntil(t, "doomed request to leave the queue", func() bool { return c.Queued() == 0 })

	close(svc.gate)
	wg.Wait()

	// The service is intact: a fresh in-budget call dispatches.
	if _, err := stub.Call("count", "alive"); err != nil {
		t.Fatalf("post-expiry call: %v", err)
	}
	if got := svc.counted.Load(); got != 1 {
		t.Errorf("count invocations = %d, want 1", got)
	}
}

// TestStubPropagatesDeadlineHeader pins the request every call shape
// sends: the exact SOAP header-entry list, in order — the header
// provider's entries, then ppg-pageSize and ppg-cursor exactly when the
// call is paged (the cursor only on a continuation), then ppg-deadline
// exactly when the context has a deadline. It also pins the end-to-end
// deadline budget: the container folds ppg-deadline into the context Serve
// sees, with the remaining budget intact.
func TestStubPropagatesDeadlineHeader(t *testing.T) {
	var (
		mu  sync.Mutex
		got []soap.HeaderEntry
	)
	record := func(req *soap.Request, _ gsh.Handle) error {
		mu.Lock()
		defer mu.Unlock()
		got = append([]soap.HeaderEntry(nil), req.Headers...)
		return nil
	}
	c := startContainer(t, Options{Interceptors: []Interceptor{record}})
	probe, _, stub := deployFake(t, c, 9)
	stub.SetHeaderProvider(func(op string, _ []string) []soap.HeaderEntry {
		return []soap.HeaderEntry{{Name: "sig", Value: op}}
	})

	const budget = 500 * time.Millisecond
	const anyBudget = "(0, budget]" // ppg-deadline's value depends on timing
	sig := func(op string) soap.HeaderEntry { return soap.HeaderEntry{Name: "sig", Value: op} }
	pageSize := func(v string) soap.HeaderEntry { return soap.HeaderEntry{Name: ogsi.HeaderPageSize, Value: v} }
	cursor := soap.HeaderEntry{Name: ogsi.HeaderCursor, Value: "c4"}
	deadline := soap.HeaderEntry{Name: ogsi.HeaderDeadline, Value: anyBudget}
	// The fake names a cursor after its page's end offset: each paged
	// open below (9 values, default limit 4) leaves "c4" live for the
	// continuations that follow it.
	cases := []struct {
		name     string
		deadline bool
		call     ogsi.Call
		want     []soap.HeaderEntry
	}{
		{name: "plain", call: ogsi.Call{Op: "probe", Params: []string{"x"}},
			want: []soap.HeaderEntry{sig("probe")}},
		{name: "paged, limit 0", call: ogsi.Call{Op: "list", Params: []string{"f"}, Paged: true},
			want: []soap.HeaderEntry{sig("list"), pageSize("0")}},
		{name: "continuation", call: ogsi.Call{Op: "list", Params: []string{"f"}, Paged: true, Cursor: "c4", Limit: 2},
			want: []soap.HeaderEntry{sig("list"), pageSize("2"), cursor}},
		{name: "paged, negative limit", call: ogsi.Call{Op: "list", Params: []string{"f"}, Paged: true, Limit: -3},
			want: []soap.HeaderEntry{sig("list"), pageSize("0")}},
		{name: "deadline", deadline: true, call: ogsi.Call{Op: "probe", Params: []string{"x"}},
			want: []soap.HeaderEntry{sig("probe"), deadline}},
		{name: "continuation under a deadline", deadline: true, call: ogsi.Call{Op: "list", Params: []string{"f"}, Paged: true, Cursor: "c4", Limit: 1},
			want: []soap.HeaderEntry{sig("list"), pageSize("1"), cursor, deadline}},
	}
	for _, tc := range cases {
		ctx := context.Background()
		if tc.deadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		if _, err := stub.Serve(ctx, tc.call, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mu.Lock()
		sent := got
		mu.Unlock()
		if len(sent) != len(tc.want) {
			t.Errorf("%s: headers = %+v, want %+v", tc.name, sent, tc.want)
			continue
		}
		for i, w := range tc.want {
			if w.Value != anyBudget {
				if sent[i] != w {
					t.Errorf("%s: header %d = %+v, want %+v", tc.name, i, sent[i], w)
				}
				continue
			}
			ms, err := strconv.Atoi(sent[i].Value)
			if sent[i].Name != w.Name || err != nil || ms <= 0 || ms > int(budget/time.Millisecond) {
				t.Errorf("%s: header %d = %+v, want %s in %s ms", tc.name, i, sent[i], w.Name, anyBudget)
			}
		}
	}

	probe.mu.Lock()
	remaining := probe.remaining
	probe.mu.Unlock()
	if remaining <= 0 || remaining > budget+50*time.Millisecond {
		t.Errorf("observed remaining budget %v, want in (0, ~%v]", remaining, budget)
	}

	// Without a client deadline, the service must see none.
	out, err := stub.Call("probe", "y")
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "none" {
		t.Error("service saw a deadline on a deadline-less call")
	}
}

// TestDrainingShedsThenDrainCompletes pins the drain lifecycle: a
// draining container sheds new work with the overload fault while
// in-flight requests run to completion, and Drain leaves the instance
// table empty.
func TestDrainingShedsThenDrainCompletes(t *testing.T) {
	c := startContainer(t, Options{Workers: 1})
	svc := newGateService()
	in, _ := c.Hosting().DeployPersistent("Gate", svc, gateDef())
	stub := Dial(in.Handle())

	var wg sync.WaitGroup
	wg.Add(1)
	var inflightErr error
	go func() {
		defer wg.Done()
		_, inflightErr = stub.Call("block", "inflight")
	}()
	<-svc.entered

	// Flip the drain flag directly (Drain itself also stops the listener,
	// which would race this test's fresh connections).
	c.draining.Store(true)
	_, err := stub.Call("count", "late")
	if _, ok := soap.AsOverload(err); !ok {
		t.Fatalf("call on draining container: %v, want overload fault", err)
	}
	if got := svc.counted.Load(); got != 0 {
		t.Errorf("count invocations = %d, want 0 during drain", got)
	}

	// Full drain: the in-flight request finishes, instances are destroyed.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- c.Drain(ctx)
	}()
	time.Sleep(10 * time.Millisecond) // let Shutdown begin with the request in flight
	close(svc.gate)
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if inflightErr != nil {
		t.Errorf("in-flight request during drain: %v", inflightErr)
	}
	if n := c.Hosting().NumInstances(); n != 0 {
		t.Errorf("instances after drain = %d, want 0", n)
	}
	if !c.Draining() {
		t.Error("Draining() = false after Drain")
	}
}

// TestDrainClosesSilentConnections: a connection that never sends a
// request must not hold Drain for http.Server's 5 s new-connection grace
// — a client transport leaves such a connection behind whenever a
// speculative dial loses the race to an idle one.
func TestDrainClosesSilentConnections(t *testing.T) {
	c := startContainer(t, Options{})
	in, _ := c.Hosting().DeployPersistent("Gate", newGateService(), gateDef())
	stub := Dial(in.Handle())
	if _, err := stub.Call("count", "warm"); err != nil { // one kept-alive connection too
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", c.Host())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v after %v", err, time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("Drain took %v with one silent connection open", elapsed)
	}
	// The server closed the silent connection: a read sees EOF, not a
	// deadline.
	_ = silent.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("silent connection read = %v, want EOF", err)
	}
}
