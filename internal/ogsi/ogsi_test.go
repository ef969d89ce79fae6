package ogsi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pperfgrid/internal/gsh"
	"pperfgrid/internal/wsdl"
)

// echoService echoes its operation and params, for plumbing tests.
type echoService struct {
	destroyed bool
	mu        sync.Mutex
}

func (e *echoService) Invoke(op string, params []string) ([]string, error) {
	return append([]string{op}, params...), nil
}

func (e *echoService) OnDestroy(gsh.Handle) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.destroyed = true
}

func (e *echoService) wasDestroyed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.destroyed
}

func echoDef() *wsdl.Definition {
	return wsdl.New("Echo", wsdl.PortType{Name: "Echo", Operations: []wsdl.Operation{
		wsdl.Op("ping", "Echo back.", wsdl.PRep("arg")),
	}})
}

func newTestHosting() *Hosting { return NewHosting("testhost:1") }

func TestDeployPersistentAndInvoke(t *testing.T) {
	h := newTestHosting()
	in, err := h.DeployPersistent("Echo", &echoService{}, echoDef())
	if err != nil {
		t.Fatal(err)
	}
	if !in.Handle().IsPersistent() {
		t.Error("persistent deploy got transient handle")
	}
	if in.Handle().ServiceType != "Echo" || in.Handle().Host != "testhost:1" {
		t.Errorf("handle = %s", in.Handle())
	}
	out, err := in.Invoke("ping", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []string{"ping", "a", "b"}) {
		t.Errorf("got %v", out)
	}
}

func TestCreateInstanceUniqueHandles(t *testing.T) {
	h := newTestHosting()
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		in, err := h.CreateInstance("Echo", &echoService{}, echoDef())
		if err != nil {
			t.Fatal(err)
		}
		s := in.Handle().String()
		if seen[s] {
			t.Fatalf("duplicate handle %s", s)
		}
		seen[s] = true
	}
	if h.NumInstances() != 50 {
		t.Errorf("instances = %d", h.NumInstances())
	}
}

func TestDuplicatePersistentDeployFails(t *testing.T) {
	h := newTestHosting()
	if _, err := h.DeployPersistent("Echo", &echoService{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.DeployPersistent("Echo", &echoService{}, nil); err == nil {
		t.Error("duplicate deploy: want error")
	}
}

func TestDeployValidation(t *testing.T) {
	h := newTestHosting()
	if _, err := h.DeployPersistent("", &echoService{}, nil); err == nil {
		t.Error("empty type: want error")
	}
	if _, err := h.DeployPersistent("X", nil, nil); err == nil {
		t.Error("nil impl: want error")
	}
}

func TestInvokeValidatesAgainstDefinition(t *testing.T) {
	h := newTestHosting()
	in, _ := h.DeployPersistent("Echo", &echoService{}, echoDef())
	if _, err := in.Invoke("bogus", nil); !errors.Is(err, ErrUnknownOperation) {
		t.Errorf("unknown op: got %v", err)
	}
}

func TestDestroyRemovesAndBlocks(t *testing.T) {
	h := newTestHosting()
	impl := &echoService{}
	in, _ := h.CreateInstance("Echo", impl, echoDef())
	if _, err := in.Invoke(OpDestroy, nil); err != nil {
		t.Fatal(err)
	}
	if !impl.wasDestroyed() {
		t.Error("OnDestroy hook not called")
	}
	if h.NumInstances() != 0 {
		t.Error("instance still in hosting table")
	}
	if _, err := in.Invoke("ping", nil); !errors.Is(err, ErrDestroyed) {
		t.Errorf("post-destroy invoke: got %v", err)
	}
	// Idempotent.
	if err := in.Destroy(); err != nil {
		t.Errorf("second destroy: %v", err)
	}
}

func TestFindServiceDataStandardElements(t *testing.T) {
	h := newTestHosting()
	in, _ := h.DeployPersistent("Echo", &echoService{}, echoDef())
	for _, q := range []string{"handle", "serviceType", "instanceID", "createdAt", "terminationTime"} {
		vals, err := in.Invoke(OpFindServiceData, []string{q})
		if err != nil {
			t.Errorf("FindServiceData(%s): %v", q, err)
			continue
		}
		if len(vals) != 1 || vals[0] == "" {
			t.Errorf("FindServiceData(%s) = %v", q, vals)
		}
	}
	vals, _ := in.Invoke(OpFindServiceData, []string{"handle"})
	if vals[0] != in.Handle().String() {
		t.Errorf("handle SDE = %q", vals[0])
	}
	if _, err := in.Invoke(OpFindServiceData, []string{"missing"}); !errors.Is(err, ErrNoSuchData) {
		t.Errorf("missing SDE: got %v", err)
	}
}

func TestCustomAndProviderServiceData(t *testing.T) {
	h := newTestHosting()
	in, _ := h.DeployPersistent("F", NewFactory(h, "Widget", nil, func(p []string) (Service, *wsdl.Definition, error) {
		return &echoService{}, nil, nil
	}), nil)
	// Factory provides productType via ServiceDataProvider.
	vals, err := in.Invoke(OpFindServiceData, []string{"productType"})
	if err != nil || len(vals) != 1 || vals[0] != "Widget" {
		t.Errorf("productType SDE = %v, %v", vals, err)
	}
	in.SetServiceData("metrics", "gflops", "runtimesec")
	vals, err = in.Invoke(OpFindServiceData, []string{"metrics"})
	if err != nil || !reflect.DeepEqual(vals, []string{"gflops", "runtimesec"}) {
		t.Errorf("metrics SDE = %v, %v", vals, err)
	}
}

func TestServiceDataPathQueries(t *testing.T) {
	h := newTestHosting()
	in, _ := h.DeployPersistent("Echo", &echoService{}, echoDef())
	in.SetServiceData("metrics", "gflops", "runtimesec", "residual")

	cases := []struct {
		query string
		want  []string
	}{
		{"/metrics", []string{"gflops", "runtimesec", "residual"}},
		{"/metrics[2]", []string{"runtimesec"}},
		{"/metrics[value=residual]", []string{"residual"}},
		{"/metrics[value=nope]", nil},
		{"/metrics/count()", []string{"3"}},
	}
	for _, c := range cases {
		got, err := in.Invoke(OpFindServiceData, []string{c.query})
		if err != nil {
			t.Errorf("%s: %v", c.query, err)
			continue
		}
		if len(c.want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.query, got, c.want)
		}
	}
	// /* lists all names.
	names, err := in.Invoke(OpFindServiceData, []string{"/*"})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"handle", "metrics", "serviceType"} {
		if !strings.Contains(joined, want) {
			t.Errorf("/* missing %s: %v", want, names)
		}
	}
	// Errors.
	for _, q := range []string{"/missing", "/metrics[0]", "/metrics[99]", "/metrics[bad", "/missing/count()"} {
		if _, err := in.Invoke(OpFindServiceData, []string{q}); err == nil {
			t.Errorf("%s: want error", q)
		}
	}
}

func TestSetTerminationTimeAndSweep(t *testing.T) {
	h := newTestHosting()
	clock := time.Date(2004, 6, 1, 12, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	h.SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return clock })
	impl := &echoService{}
	in, _ := h.CreateInstance("Echo", impl, echoDef())

	// Absolute RFC3339.
	at := clock.Add(30 * time.Second).Format(time.RFC3339Nano)
	out, err := in.Invoke(OpSetTerminationTime, []string{at})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != at {
		t.Errorf("returned termination %q, want %q", out[0], at)
	}
	if h.Sweep() != 0 {
		t.Error("swept unexpired instance")
	}
	mu.Lock()
	clock = clock.Add(31 * time.Second)
	mu.Unlock()
	if h.Sweep() != 1 {
		t.Error("expired instance not swept")
	}
	if !impl.wasDestroyed() {
		t.Error("sweeper did not run OnDestroy")
	}
}

func TestSetTerminationRelativeAndNone(t *testing.T) {
	h := newTestHosting()
	in, _ := h.CreateInstance("Echo", &echoService{}, echoDef())
	if _, err := in.Invoke(OpSetTerminationTime, []string{"+3600"}); err != nil {
		t.Fatal(err)
	}
	if in.TerminationTime().IsZero() {
		t.Error("relative termination not set")
	}
	out, err := in.Invoke(OpSetTerminationTime, []string{TerminationNone})
	if err != nil || out[0] != TerminationNone {
		t.Errorf("cancel: %v %v", out, err)
	}
	if !in.TerminationTime().IsZero() {
		t.Error("termination not cancelled")
	}
	if _, err := in.Invoke(OpSetTerminationTime, []string{"garbage"}); err == nil {
		t.Error("bad time: want error")
	}
}

func TestGetServiceDefinition(t *testing.T) {
	h := newTestHosting()
	in, _ := h.DeployPersistent("Echo", &echoService{}, echoDef())
	out, err := in.Invoke(OpGetServiceDefinition, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := wsdl.Parse([]byte(out[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The definition must include both the app PortType and GridService.
	if _, err := def.Lookup("ping"); err != nil {
		t.Error("definition missing app operation")
	}
	if _, err := def.Lookup(OpFindServiceData); err != nil {
		t.Error("definition missing GridService PortType")
	}
	if def.Endpoint != in.Handle().URL() {
		t.Errorf("endpoint = %q", def.Endpoint)
	}
}

func TestFactoryCreateService(t *testing.T) {
	h := newTestHosting()
	created := 0
	f := NewFactory(h, "Widget", echoDef(), func(params []string) (Service, *wsdl.Definition, error) {
		created++
		if len(params) > 0 && params[0] == "fail" {
			return nil, nil, errors.New("constructor refused")
		}
		return &echoService{}, nil, nil
	})
	fin, err := f.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if fin.Handle().ServiceType != "WidgetFactory" {
		t.Errorf("factory type = %s", fin.Handle().ServiceType)
	}
	out, err := fin.Invoke(OpCreateService, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	handle := gsh.MustParse(out[0])
	if handle.ServiceType != "Widget" || handle.IsPersistent() {
		t.Errorf("product handle = %s", handle)
	}
	if _, ok := h.LookupHandle(handle); !ok {
		t.Error("product instance not in hosting table")
	}
	// Product inherits the factory's product definition.
	prod, _ := h.LookupHandle(handle)
	if _, err := prod.Definition().Lookup("ping"); err != nil {
		t.Error("product definition missing ping")
	}
	if _, err := fin.Invoke(OpCreateService, []string{"fail"}); err == nil {
		t.Error("constructor failure not propagated")
	}
	if _, err := fin.Invoke("other", nil); err == nil {
		t.Error("unknown factory op: want error")
	}
	if created != 2 {
		t.Errorf("constructor ran %d times, want 2", created)
	}
}

func TestFactoryCreateServices(t *testing.T) {
	h := newTestHosting()
	var got []string
	f := NewFactory(h, "Widget", echoDef(), func(params []string) (Service, *wsdl.Definition, error) {
		got = append(got, params...)
		if params[0] == "fail" {
			return nil, nil, errors.New("constructor refused")
		}
		return &echoService{}, nil, nil
	})
	fin, err := f.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	// Plural creation: one GSH per parameter, in order, each instance
	// constructed with its single parameter.
	out, err := fin.Invoke(OpCreateServices, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("CreateServices returned %d handles", len(out))
	}
	seen := map[string]bool{}
	for _, hs := range out {
		handle := gsh.MustParse(hs)
		if handle.ServiceType != "Widget" {
			t.Errorf("product handle = %s", handle)
		}
		if seen[hs] {
			t.Errorf("duplicate handle %s", hs)
		}
		seen[hs] = true
		if _, ok := h.LookupHandle(handle); !ok {
			t.Errorf("product %s not in hosting table", hs)
		}
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("constructor params = %v, want %v", got, want)
	}
	// A failing constructor fails the whole plural call.
	if _, err := fin.Invoke(OpCreateServices, []string{"fail"}); err == nil {
		t.Error("constructor failure not propagated through CreateServices")
	}
	// The plural op is published in the Factory PortType.
	found := false
	for _, op := range FactoryPortType().Operations {
		if op.Name == OpCreateServices && op.Doc != "" {
			found = true
		}
	}
	if !found {
		t.Error("Factory PortType missing documented CreateServices")
	}
}

func TestHandleMap(t *testing.T) {
	h := newTestHosting()
	m := NewHandleMap(h)
	min, err := m.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	in, _ := h.CreateInstance("Echo", &echoService{}, echoDef())

	out, err := min.Invoke(OpFindByHandle, []string{in.Handle().String()})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != in.Handle().URL() || out[1] != "alive" {
		t.Errorf("got %v", out)
	}
	gone := gsh.New(h.Host(), "Echo", "9999")
	out, err = min.Invoke(OpFindByHandle, []string{gone.String()})
	if err != nil || out[1] != "unknown" {
		t.Errorf("dead handle: %v %v", out, err)
	}
	if _, err := min.Invoke(OpFindByHandle, []string{"junk"}); err == nil {
		t.Error("bad handle: want error")
	}
	if _, err := min.Invoke(OpFindByHandle, nil); err == nil {
		t.Error("no params: want error")
	}
}

func TestLookupHandleWrongHost(t *testing.T) {
	h := newTestHosting()
	in, _ := h.CreateInstance("Echo", &echoService{}, echoDef())
	other := in.Handle()
	other.Host = "elsewhere:9"
	if _, ok := h.LookupHandle(other); ok {
		t.Error("matched handle from another host")
	}
}

func TestSetHostRules(t *testing.T) {
	h := newTestHosting()
	if err := h.SetHost("real:8080"); err != nil {
		t.Fatal(err)
	}
	if h.Host() != "real:8080" {
		t.Errorf("Host = %q", h.Host())
	}
	_, _ = h.CreateInstance("Echo", &echoService{}, echoDef())
	if err := h.SetHost("another:1"); err == nil {
		t.Error("SetHost with live instances: want error")
	}
}

func TestDestroyAll(t *testing.T) {
	h := newTestHosting()
	for i := 0; i < 5; i++ {
		_, _ = h.CreateInstance("Echo", &echoService{}, echoDef())
	}
	h.DestroyAll()
	if h.NumInstances() != 0 {
		t.Errorf("instances = %d after DestroyAll", h.NumInstances())
	}
}

func TestStartSweeper(t *testing.T) {
	h := newTestHosting()
	in, _ := h.CreateInstance("Echo", &echoService{}, echoDef())
	if _, err := in.Invoke(OpSetTerminationTime, []string{"+0.001"}); err != nil {
		t.Fatal(err)
	}
	stop := h.StartSweeper(2 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for h.NumInstances() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.NumInstances() != 0 {
		t.Error("sweeper never destroyed expired instance")
	}
	stop() // double-stop is safe
}

// BenchmarkSweep1000 is the cost of one Hosting.Sweep that finds nothing
// to destroy among 1000 live instances (cold-getpr's instance count): the
// idle work each host's once-a-second sweeper adds to a site.
func BenchmarkSweep1000(b *testing.B) {
	h := newTestHosting()
	for i := 0; i < 1000; i++ {
		if _, err := h.CreateInstance("Echo", &echoService{}, echoDef()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := h.Sweep(); n != 0 {
			b.Fatalf("swept %d live instances", n)
		}
	}
}

func TestNotificationHubLocal(t *testing.T) {
	hub := NewNotificationHub(nil)
	var mu sync.Mutex
	var got []string
	hub.Subscribe("updates", SinkFunc(func(topic, msg string) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, topic+":"+msg)
		return nil
	}))
	if n := hub.Notify("updates", "hello"); n != 1 {
		t.Errorf("targets = %d", n)
	}
	hub.Notify("other", "ignored")
	hub.Flush()
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, []string{"updates:hello"}) {
		t.Errorf("got %v", got)
	}
}

func TestNotificationHubDropsFailingSinks(t *testing.T) {
	hub := NewNotificationHub(nil)
	hub.Subscribe("t", SinkFunc(func(string, string) error { return errors.New("down") }))
	for i := 0; i < maxFailures; i++ {
		hub.Notify("t", "m")
		hub.Flush()
	}
	if n := hub.Subscribers("t"); n != 0 {
		t.Errorf("failing sink still subscribed: %d", n)
	}
}

func TestNotificationHubRemote(t *testing.T) {
	var mu sync.Mutex
	delivered := map[string]string{}
	hub := NewNotificationHub(func(h gsh.Handle) Sink {
		return SinkFunc(func(topic, msg string) error {
			mu.Lock()
			defer mu.Unlock()
			delivered[h.String()] = topic + ":" + msg
			return nil
		})
	})
	sink := gsh.New("client:1", "Sink", "1")
	out, err := hub.HandleSubscribe([]string{"updates", sink.String()})
	if err != nil || out[0] != "subscribed" {
		t.Fatalf("subscribe: %v %v", out, err)
	}
	hub.Notify("updates", "data changed")
	hub.Flush()
	mu.Lock()
	defer mu.Unlock()
	if delivered[sink.String()] != "updates:data changed" {
		t.Errorf("delivered = %v", delivered)
	}
}

func TestNotificationHubSubscribeErrors(t *testing.T) {
	hub := NewNotificationHub(nil)
	if _, err := hub.HandleSubscribe([]string{"t"}); err == nil {
		t.Error("short params: want error")
	}
	if _, err := hub.HandleSubscribe([]string{"t", "junk"}); err == nil {
		t.Error("bad handle: want error")
	}
	good := gsh.New("h:1", "Sink", "1").String()
	if _, err := hub.HandleSubscribe([]string{"t", good}); err == nil {
		t.Error("no dialer: want error")
	}
}

func TestConcurrentCreateAndDestroy(t *testing.T) {
	h := newTestHosting()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in, err := h.CreateInstance("Echo", &echoService{}, echoDef())
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if _, err := in.Invoke("ping", []string{fmt.Sprint(i)}); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if err := in.Destroy(); err != nil {
					t.Errorf("destroy: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if h.NumInstances() != 0 {
		t.Errorf("leaked %d instances", h.NumInstances())
	}
}

// TestOGSAPortTypes verifies Table 3: every OGSA PortType is published
// with its standard operations.
func TestOGSAPortTypes(t *testing.T) {
	cases := []struct {
		pt  wsdl.PortType
		ops []string
	}{
		{GridServicePortType(), []string{OpFindServiceData, OpSetTerminationTime, OpDestroy}},
		{FactoryPortType(), []string{OpCreateService}},
		{HandleMapPortType(), []string{OpFindByHandle}},
		{NotificationSourcePortType(), []string{OpSubscribe}},
		{NotificationSinkPortType(), []string{OpDeliverNotification}},
	}
	for _, c := range cases {
		have := map[string]bool{}
		for _, op := range c.pt.Operations {
			have[op.Name] = true
			if op.Doc == "" {
				t.Errorf("%s.%s missing documentation", c.pt.Name, op.Name)
			}
		}
		for _, op := range c.ops {
			if !have[op] {
				t.Errorf("PortType %s missing operation %s", c.pt.Name, op)
			}
		}
	}
}
