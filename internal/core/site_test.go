package core

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
)

func startHPLSite(t *testing.T, execs, replicas int) *Site {
	t.Helper()
	d := datagen.HPL(datagen.HPLConfig{Executions: execs, Seed: 31})
	wrappers := make([]mapping.ApplicationWrapper, replicas)
	for i := range wrappers {
		w, err := mapping.NewWideTable(d)
		if err != nil {
			t.Fatal(err)
		}
		wrappers[i] = w
	}
	site, err := StartSite(SiteConfig{AppName: "HPL", Wrappers: wrappers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site
}

// TestSiteFigure3Flow walks the paper's Figure 3 component-interaction
// sequence over real SOAP: bind to the Application factory (2a), create an
// Application instance (2b, 2c), query it for Executions (3a–3i), bind to
// the Execution instances and query Performance Results (4a–4f).
func TestSiteFigure3Flow(t *testing.T) {
	site := startHPLSite(t, 10, 1)

	// 2a–2c: create an Application service instance through the factory.
	factory := container.Dial(site.ApplicationFactoryHandle())
	app, err := factory.CreateService()
	if err != nil {
		t.Fatal(err)
	}

	// 3a: query the Application for Executions matching an attribute.
	handles, err := app.Call(OpGetExecs, "numprocesses", "2")
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) == 0 {
		t.Fatal("no executions matched")
	}

	// 4a–4f: bind to an Execution instance and query Performance Results.
	exec, err := container.DialString(handles[0])
	if err != nil {
		t.Fatal(err)
	}
	tse, err := exec.Call(OpGetTimeStartEnd)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Call(OpGetPR, "gflops", tse[0], tse[1], "hpl")
	if err != nil {
		t.Fatal(err)
	}
	results, err := perfdata.ParseResults(out)
	if err != nil || len(results) != 1 {
		t.Fatalf("results = %v (%v)", out, err)
	}
	if results[0].Metric != "gflops" {
		t.Errorf("metric = %q", results[0].Metric)
	}

	// The Manager cached the instances: re-querying returns identical
	// handles without new instance creation.
	before := site.Manager().CachedCount()
	handles2, err := app.Call(OpGetExecs, "numprocesses", "2")
	if err != nil {
		t.Fatal(err)
	}
	if handles2[0] != handles[0] {
		t.Error("re-query returned a different instance handle")
	}
	if site.Manager().CachedCount() != before {
		t.Error("re-query created new instances")
	}
}

func TestSiteGetAllExecsAndInfo(t *testing.T) {
	site := startHPLSite(t, 5, 1)
	factory := container.Dial(site.ApplicationFactoryHandle())
	app, err := factory.CreateService()
	if err != nil {
		t.Fatal(err)
	}
	n, err := app.Call(OpGetNumExecs)
	if err != nil || n[0] != "5" {
		t.Fatalf("getNumExecs = %v, %v", n, err)
	}
	handles, err := app.Call(OpGetAllExecs)
	if err != nil || len(handles) != 5 {
		t.Fatalf("getAllExecs = %d handles, %v", len(handles), err)
	}
	exec, err := container.DialString(handles[0])
	if err != nil {
		t.Fatal(err)
	}
	info, err := exec.Call(OpGetInfo)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := perfdata.ParseKVs(info)
	if err != nil || kvs[0].Name != "id" {
		t.Errorf("getInfo = %v (%v)", info, err)
	}
}

func TestSiteReplicaDistribution(t *testing.T) {
	site := startHPLSite(t, 8, 2)
	factory := container.Dial(site.ApplicationFactoryHandle())
	app, err := factory.CreateService()
	if err != nil {
		t.Fatal(err)
	}
	handles, err := app.Call(OpGetAllExecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 8 {
		t.Fatalf("handles = %d", len(handles))
	}
	counts := site.Manager().PerHostCounts()
	hosts := site.Hosts()
	if counts[hosts[0]] != 4 || counts[hosts[1]] != 4 {
		t.Errorf("distribution = %v, want 4/4 across %v", counts, hosts)
	}
	// Each handle is callable on whichever replica hosts it.
	for _, h := range handles {
		exec, err := container.DialString(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Call(OpGetMetrics); err != nil {
			t.Errorf("call on %s: %v", h, err)
		}
	}
}

func TestSiteCachingToggles(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 2, Seed: 32})
	w, err := mapping.NewWideTable(d)
	if err != nil {
		t.Fatal(err)
	}
	site, err := StartSite(SiteConfig{AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}, CachingOff: true})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	factory := container.Dial(site.ApplicationFactoryHandle())
	app, _ := factory.CreateService()
	handles, err := app.Call(OpGetAllExecs)
	if err != nil {
		t.Fatal(err)
	}
	exec, _ := container.DialString(handles[0])
	// The caching SDE reflects the configuration.
	caching, err := exec.Call(ogsi.OpFindServiceData, "caching")
	if err != nil || caching[0] != "false" {
		t.Errorf("caching SDE = %v, %v", caching, err)
	}
}

func TestSiteServiceDataPathQueryOverWire(t *testing.T) {
	site := startHPLSite(t, 2, 1)
	factory := container.Dial(site.ApplicationFactoryHandle())
	app, _ := factory.CreateService()
	handles, _ := app.Call(OpGetAllExecs)
	exec, _ := container.DialString(handles[0])

	// Future-work XPath-style query of service data elements.
	metrics, err := exec.Call(ogsi.OpFindServiceData, "/metrics")
	if err != nil || len(metrics) != 3 {
		t.Fatalf("/metrics = %v, %v", metrics, err)
	}
	count, err := exec.Call(ogsi.OpFindServiceData, "/metrics/count()")
	if err != nil || count[0] != "3" {
		t.Errorf("/metrics/count() = %v, %v", count, err)
	}
	probe, err := exec.Call(ogsi.OpFindServiceData, "/metrics[value=gflops]")
	if err != nil || len(probe) != 1 {
		t.Errorf("/metrics[value=gflops] = %v, %v", probe, err)
	}
}

func TestSiteNotifications(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 33})
	w, err := mapping.NewWideTable(d)
	if err != nil {
		t.Fatal(err)
	}
	site, err := StartSite(SiteConfig{
		AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}, Notifications: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()

	factory := container.Dial(site.ApplicationFactoryHandle())
	app, _ := factory.CreateService()
	handles, _ := app.Call(OpGetAllExecs)
	exec, _ := container.DialString(handles[0])

	// The client hosts a sink in its own container.
	clientCont := container.New(ogsi.NewHosting("x:0"), container.Options{})
	if err := clientCont.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer clientCont.Close()
	got := make(chan string, 1)
	sinkIn, err := container.DeploySink(clientCont.Hosting(), ogsi.SinkFunc(func(topic, msg string) error {
		got <- topic + "|" + msg
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Call(ogsi.OpSubscribe, UpdatesTopic, sinkIn.Handle().String()); err != nil {
		t.Fatal(err)
	}

	site.NotifyUpdate("100", "run extended")
	select {
	case msg := <-got:
		if msg != UpdatesTopic+"|run extended" {
			t.Errorf("got %q", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update notification never arrived")
	}
}

func TestSiteLifetimeManagement(t *testing.T) {
	site := startHPLSite(t, 2, 1)
	factory := container.Dial(site.ApplicationFactoryHandle())
	app, _ := factory.CreateService()
	handles, _ := app.Call(OpGetAllExecs)
	exec, _ := container.DialString(handles[0])

	// Client sets a termination time and destroys early — the OGSI
	// lifetime model over the wire.
	if _, err := exec.Call(ogsi.OpSetTerminationTime, "+3600"); err != nil {
		t.Fatal(err)
	}
	if err := exec.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Call(OpGetMetrics); err == nil {
		t.Error("destroyed instance still answering")
	}
}

func TestSiteValidation(t *testing.T) {
	if _, err := StartSite(SiteConfig{AppName: "X"}); err == nil {
		t.Error("no wrappers: want error")
	}
	if _, err := StartSite(SiteConfig{Wrappers: []mapping.ApplicationWrapper{&mapping.Memory{}}}); err == nil {
		t.Error("no name: want error")
	}
}

func TestSiteExecutionFactoryValidatesParams(t *testing.T) {
	site := startHPLSite(t, 2, 1)
	// Calling the Execution factory directly with bad params faults.
	ref := NewRemoteFactoryRef(site.PrimaryHost())
	if _, err := ref.CreateExecutions([]string{""}); err == nil {
		t.Error("empty execution ID accepted")
	}
	if _, err := ref.CreateExecutions([]string{"does-not-exist"}); err == nil {
		t.Error("unknown execution ID accepted")
	}
	if _, err := ref.CreateExecutions([]string{"100"}); err != nil {
		t.Errorf("valid ID rejected: %v", err)
	}
}

func TestRemoteManagerRef(t *testing.T) {
	site := startHPLSite(t, 3, 1)
	// Reach the Manager as a grid service, the way a remote Application
	// instance would.
	mgrStub := container.Dial(gsh.Persistent(site.PrimaryHost(), ManagerType))
	ref := &RemoteManagerRef{Call: mgrStub.Call}
	handles, err := ref.ExecutionHandles([]string{"100", "101"})
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 2 {
		t.Errorf("handles = %v", handles)
	}
	if strconv.Itoa(site.Manager().CachedCount()) != "2" {
		t.Errorf("cached = %d", site.Manager().CachedCount())
	}
}

// TestCacheKeyCanonicalizationOverWire reorders the foci of a logically
// identical getPR and requires the second call to hit the instance cache —
// the query-key canonicalization working through the full SOAP stack.
func TestCacheKeyCanonicalizationOverWire(t *testing.T) {
	d := datagen.SMG98(datagen.SMG98Config{Executions: 1, Processes: 2, TimeBins: 2, Seed: 34})
	w, err := mapping.NewStar(d)
	if err != nil {
		t.Fatal(err)
	}
	site, err := StartSite(SiteConfig{AppName: "SMG98", Wrappers: []mapping.ApplicationWrapper{w}})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	factory := container.Dial(site.ApplicationFactoryHandle())
	app, _ := factory.CreateService()
	handles, err := app.Call(OpGetAllExecs)
	if err != nil {
		t.Fatal(err)
	}
	exec, _ := container.DialString(handles[0])

	fociA := []string{"/Process/0", "/Process/1"}
	fociB := []string{"/Process/1", "/Process/0"}
	call := func(foci []string) []string {
		params := append([]string{"func_calls", "0", "1000", "vampir"}, foci...)
		out, err := exec.Call(OpGetPR, params...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := call(fociA)
	second := call(fociB)
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("result sizes differ: %d vs %d", len(first), len(second))
	}
	svcs := site.ExecutionServices(d.Execs[0].ID)
	if len(svcs) != 1 {
		t.Fatalf("services = %d", len(svcs))
	}
	stats := svcs[0].CacheStats()
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit + 1 miss (reordered foci share a key)", stats)
	}
}

// failPublishApp decorates one replica's wrapper so every publish to any
// of its executions fails.
type failPublishApp struct{ mapping.ApplicationWrapper }

func (a failPublishApp) ExecutionWrapper(id string) (mapping.ExecutionWrapper, error) {
	ew, err := a.ApplicationWrapper.ExecutionWrapper(id)
	if err != nil {
		return nil, err
	}
	return failPublishExec{ew}, nil
}

type failPublishExec struct{ mapping.ExecutionWrapper }

func (failPublishExec) PublishResults([]perfdata.Result) error {
	return errors.New("replica down")
}

// TestSitePublishPartialFailureRetiresCache: when a site publish fails on
// replica 1 after replica 0 applied it, the call reports the failure, but
// the instance on replica 0 must not keep serving its pre-write answer
// over post-write data.
func TestSitePublishPartialFailureRetiresCache(t *testing.T) {
	smg := datagen.SMG98(datagen.SMG98Config{Executions: 1, Processes: 2, TimeBins: 2, Seed: 33})
	var wrappers []mapping.ApplicationWrapper
	for i := 0; i < 2; i++ {
		w, err := mapping.NewStar(smg)
		if err != nil {
			t.Fatal(err)
		}
		wrappers = append(wrappers, w)
	}
	wrappers[1] = failPublishApp{wrappers[1]}
	site, err := StartSite(SiteConfig{AppName: "SMG98", Wrappers: wrappers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)

	id := smg.Execs[0].ID
	if _, err := site.Manager().ExecutionHandles([]string{id}); err != nil {
		t.Fatal(err)
	}
	svcs := site.ExecutionServices(id)
	if len(svcs) != 1 {
		t.Fatalf("%d live instances, want 1", len(svcs))
	}
	q := perfdata.Query{Metric: "func_calls", Foci: []string{"/Process/9"}, Time: perfdata.TimeRange{Start: 0, End: 60}, Type: perfdata.UndefinedType}
	if rs, err := svcs[0].PerformanceResults(q); err != nil || len(rs) != 0 {
		t.Fatalf("pre-publish read: %v, %v", rs, err)
	}

	add := []perfdata.Result{{
		Metric: "func_calls", Focus: "/Process/9/Code/MPI/MPI_Barrier", Type: "vampir",
		Time: perfdata.TimeRange{Start: 0, End: 1}, Value: 3,
	}}
	if err := site.PublishResults(id, add); err == nil {
		t.Fatal("publish failing on replica 1 reported success")
	}
	ew, err := wrappers[0].ExecutionWrapper(id)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := ew.PerformanceResults(q); err != nil || len(rs) != 1 {
		t.Fatalf("replica 0 store: %v, %v; want the published row", rs, err)
	}
	if svcs[0].Epoch() != 1 {
		t.Errorf("instance epoch %d after a partly applied publish, want 1", svcs[0].Epoch())
	}
	if rs, err := svcs[0].PerformanceResults(q); err != nil || len(rs) != 1 {
		t.Errorf("instance serves %v, %v after a partly applied publish; want the published row", rs, err)
	}
}
