// Integration tests exercising whole-system behaviour across packages:
// multi-site federation, cross-format consistency over the wire, failure
// injection, and lifetime management under live clients. Unit and per-
// package integration tests live next to their packages; these cover the
// seams between them.
package pperfgrid_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/compare"
	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/registry"
	"pperfgrid/internal/soap"
)

// startRegistry stands up a registry container and returns its host plus a
// publisher client.
func startRegistry(t *testing.T) (string, *registry.Client) {
	t.Helper()
	cont := container.New(ogsi.NewHosting("pending:0"), container.Options{})
	if err := cont.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cont.Close() })
	if _, err := registry.Deploy(cont.Hosting(), registry.New()); err != nil {
		t.Fatal(err)
	}
	return cont.Host(), registry.Connect(cont.Host())
}

func publish(t *testing.T, pub *registry.Client, org string, site *core.Site, name string) {
	t.Helper()
	if err := pub.PublishOrganization(registry.Organization{Name: org, Contact: org + "@example.org"}); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishService(registry.ServiceEntry{
		Organization: org, Name: name, FactoryHandle: site.ApplicationFactoryHandle().String(),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFederationConcurrentClients runs the full data grid — registry plus
// three heterogeneous sites — under eight concurrent analyst sessions.
func TestFederationConcurrentClients(t *testing.T) {
	regHost, pub := startRegistry(t)

	hplW, err := mapping.NewWideTable(datagen.HPL(datagen.HPLConfig{Executions: 12, Seed: 71}))
	if err != nil {
		t.Fatal(err)
	}
	rmaW, err := mapping.NewFlatFile(datagen.PrestaRMA(datagen.RMAConfig{Executions: 4, MessageSizes: 6, Seed: 71}))
	if err != nil {
		t.Fatal(err)
	}
	smgW, err := mapping.NewStar(datagen.SMG98(datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 4, Seed: 71}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		org, name string
		w         mapping.ApplicationWrapper
	}{
		{"PSU", "HPL", hplW}, {"LLNL", "RMA", rmaW}, {"UO", "SMG98", smgW},
	} {
		site, err := core.StartSite(core.SiteConfig{AppName: s.name, Wrappers: []mapping.ApplicationWrapper{s.w}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(site.Close)
		publish(t, pub, s.org, site, s.name)
	}

	headline := map[string]perfdata.Query{
		"HPL":   {Metric: "gflops", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "hpl"},
		"RMA":   {Metric: "bandwidth", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "presta"},
		"SMG98": {Metric: "func_calls", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "vampir"},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(regHost)
			orgs, err := c.DiscoverOrganizations("")
			if err != nil || len(orgs) != 3 {
				t.Errorf("worker %d: orgs = %d, %v", w, len(orgs), err)
				return
			}
			for _, o := range orgs {
				svcs, err := c.DiscoverServices(o.Name)
				if err != nil || len(svcs) != 1 {
					t.Errorf("worker %d: services of %s: %v", w, o.Name, err)
					return
				}
				b, err := c.Bind(svcs[0])
				if err != nil {
					t.Errorf("worker %d: bind %s: %v", w, svcs[0].Name, err)
					return
				}
				execs, err := b.QueryExecutions(nil)
				if err != nil || len(execs) == 0 {
					t.Errorf("worker %d: executions of %s: %v", w, svcs[0].Name, err)
					return
				}
				results := client.QueryPerformanceResults(execs, headline[svcs[0].Name], client.ParallelOptions{})
				for _, r := range results {
					if r.Err != nil {
						t.Errorf("worker %d: getPR %s: %v", w, svcs[0].Name, r.Err)
						return
					}
					if len(r.Results) == 0 {
						t.Errorf("worker %d: empty results from %s", w, svcs[0].Name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCrossFormatConsistencyOverWire serves the same dataset from three
// store formats through three live sites and requires byte-identical getPR
// answers at the client.
func TestCrossFormatConsistencyOverWire(t *testing.T) {
	d := datagen.PrestaRMA(datagen.RMAConfig{Executions: 3, MessageSizes: 5, Seed: 72})
	flatW, err := mapping.NewFlatFile(d)
	if err != nil {
		t.Fatal(err)
	}
	xmlW, err := mapping.NewXML(d)
	if err != nil {
		t.Fatal(err)
	}
	starW, err := mapping.NewStar(d)
	if err != nil {
		t.Fatal(err)
	}

	answers := map[string][]string{}
	for name, w := range map[string]mapping.ApplicationWrapper{"flat": flatW, "xml": xmlW, "star": starW} {
		site, err := core.StartSite(core.SiteConfig{AppName: "RMA-" + name, Wrappers: []mapping.ApplicationWrapper{w}})
		if err != nil {
			t.Fatal(err)
		}
		c := client.NewWithoutRegistry()
		b, err := c.BindFactory(name, site.ApplicationFactoryHandle())
		if err != nil {
			t.Fatal(err)
		}
		execs, err := b.QueryExecutions([]client.AttrQuery{{Attribute: "numprocesses", Value: "2"}})
		if err != nil || len(execs) == 0 {
			t.Fatalf("%s: executions: %v", name, err)
		}
		rs, err := execs[0].PerformanceResults(perfdata.Query{
			Metric: "latency", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "presta",
		})
		if err != nil {
			t.Fatalf("%s: getPR: %v", name, err)
		}
		enc := perfdata.EncodeResults(rs)
		sort.Strings(enc)
		answers[name] = enc
		site.Close()
	}
	if !reflect.DeepEqual(answers["flat"], answers["xml"]) {
		t.Error("flat and xml answers differ")
	}
	if !reflect.DeepEqual(answers["flat"], answers["star"]) {
		t.Error("flat and star answers differ")
	}
	if len(answers["flat"]) == 0 {
		t.Error("empty answers")
	}
}

// TestSiteFailureSurfacesToClient kills a site mid-session: in-flight
// bindings fail with transport errors, the registry entry can be retired,
// and the remaining grid keeps serving.
func TestSiteFailureSurfacesToClient(t *testing.T) {
	regHost, pub := startRegistry(t)
	mk := func(name string, seed int64) *core.Site {
		w, err := mapping.NewWideTable(datagen.HPL(datagen.HPLConfig{Executions: 4, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		site, err := core.StartSite(core.SiteConfig{AppName: name, Wrappers: []mapping.ApplicationWrapper{w}})
		if err != nil {
			t.Fatal(err)
		}
		return site
	}
	doomed := mk("HPL-doomed", 73)
	survivor := mk("HPL-live", 74)
	t.Cleanup(survivor.Close)
	publish(t, pub, "doomed", doomed, "HPL-doomed")
	publish(t, pub, "live", survivor, "HPL-live")

	c := client.New(regHost)
	svcs, err := c.DiscoverServices("doomed")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Bind(svcs[0])
	if err != nil {
		t.Fatal(err)
	}
	execs, err := b.QueryExecutions(nil)
	if err != nil {
		t.Fatal(err)
	}

	doomed.Close() // the site goes away

	// In-flight references now fail with transport errors, not hangs.
	if _, err := execs[0].Metrics(); err == nil {
		t.Error("call to dead site succeeded")
	}
	if _, err := b.NumExecs(); err == nil {
		t.Error("binding to dead site succeeded")
	}

	// The grid operator retires the entry; discovery now shows one site.
	if err := pub.RemoveOrganization("doomed"); err != nil {
		t.Fatal(err)
	}
	orgs, err := c.DiscoverOrganizations("")
	if err != nil || len(orgs) != 1 || orgs[0].Name != "live" {
		t.Fatalf("after retirement: %+v, %v", orgs, err)
	}

	// The survivor still answers.
	svcs, _ = c.DiscoverServices("live")
	lb, err := c.Bind(svcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n, err := lb.NumExecs(); err != nil || n != 4 {
		t.Errorf("survivor NumExecs = %d, %v", n, err)
	}
}

// TestLifetimeExpiryUnderClient exercises OGSI soft-state lifetime end to
// end: a client sets a short termination time, the site's own sweeper
// destroys the instance (the test starts none), subsequent calls fault,
// and a re-query through the Manager yields a fresh instance that answers
// getPR.
func TestLifetimeExpiryUnderClient(t *testing.T) {
	w, err := mapping.NewWideTable(datagen.HPL(datagen.HPLConfig{Executions: 2, Seed: 75}))
	if err != nil {
		t.Fatal(err)
	}
	site, err := core.StartSite(core.SiteConfig{AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)

	c := client.NewWithoutRegistry()
	b, err := c.BindFactory("HPL", site.ApplicationFactoryHandle())
	if err != nil {
		t.Fatal(err)
	}
	execs, err := b.QueryExecutions(nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := execs[0]
	if _, err := exec.Call(ogsi.OpSetTerminationTime, "+0.01"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := exec.Metrics(); err != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = exec.Metrics()
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("expired instance: want fault, got %v", err)
	}

	// The destroy dropped the dead handle from the Manager, so a re-query
	// yields a fresh live instance in its place.
	execs2, err := b.QueryExecutions(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := execs2[0]
	if fresh.Handle == exec.Handle {
		t.Fatalf("re-query handed out the dead handle %s", exec.Handle)
	}
	tr, err := fresh.TimeStartEnd()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.PerformanceResults(perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"}); err != nil {
		t.Fatalf("getPR on the fresh instance: %v", err)
	}
}

// TestCompareAcrossSites runs the analysis layer over executions drawn
// from two different sites — comparative profiling across organizations.
func TestCompareAcrossSites(t *testing.T) {
	mkSite := func(seed int64) (*core.Site, *client.Binding) {
		w, err := mapping.NewWideTable(datagen.HPL(datagen.HPLConfig{Executions: 6, Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		site, err := core.StartSite(core.SiteConfig{AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(site.Close)
		c := client.NewWithoutRegistry()
		b, err := c.BindFactory(fmt.Sprintf("site-%d", seed), site.ApplicationFactoryHandle())
		if err != nil {
			t.Fatal(err)
		}
		return site, b
	}
	_, b1 := mkSite(76)
	_, b2 := mkSite(77)

	var all []*client.ExecutionRef
	for _, b := range []*client.Binding{b1, b2} {
		execs, err := b.QueryExecutions(nil)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, execs...)
	}
	q := perfdata.Query{Metric: "gflops", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "hpl"}
	obs, err := compare.Collect(all, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 12 {
		t.Fatalf("observations = %d", len(obs))
	}
	sources := map[string]int{}
	for _, o := range obs {
		sources[o.Source]++
	}
	if len(sources) != 2 {
		t.Errorf("sources = %v", sources)
	}
	points, err := compare.ScalingStudy(obs, "numprocesses", compare.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Errorf("points = %+v", points)
	}
}

// TestRegistryHandlesSurviveRestart snapshots a populated registry,
// simulates a restart via Restore, and verifies a client can still bind
// through the restored entries.
func TestRegistryHandlesSurviveRestart(t *testing.T) {
	w, err := mapping.NewWideTable(datagen.HPL(datagen.HPLConfig{Executions: 2, Seed: 78}))
	if err != nil {
		t.Fatal(err)
	}
	site, err := core.StartSite(core.SiteConfig{AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)

	first := registry.New()
	if err := first.PublishOrganization(registry.Organization{Name: "PSU"}); err != nil {
		t.Fatal(err)
	}
	if err := first.PublishService(registry.ServiceEntry{
		Organization: "PSU", Name: "HPL", FactoryHandle: site.ApplicationFactoryHandle().String(),
	}); err != nil {
		t.Fatal(err)
	}
	data, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := registry.Restore(data)
	if err != nil {
		t.Fatal(err)
	}

	// Host the restored registry in a fresh container ("after restart").
	cont := container.New(ogsi.NewHosting("pending:0"), container.Options{})
	if err := cont.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cont.Close() })
	if _, err := registry.Deploy(cont.Hosting(), restored); err != nil {
		t.Fatal(err)
	}

	c := client.New(cont.Host())
	svcs, err := c.DiscoverServices("PSU")
	if err != nil || len(svcs) != 1 {
		t.Fatalf("services: %v, %v", svcs, err)
	}
	b, err := c.Bind(svcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.NumExecs(); err != nil || n != 2 {
		t.Errorf("NumExecs through restored registry = %d, %v", n, err)
	}
}

// TestWSDLIntrospectionOverWire fetches a live Execution instance's
// definition and verifies the client can validate calls against it — the
// WSDL2Java-stub role of the Services Layer.
func TestWSDLIntrospectionOverWire(t *testing.T) {
	w, err := mapping.NewWideTable(datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 79}))
	if err != nil {
		t.Fatal(err)
	}
	site, err := core.StartSite(core.SiteConfig{AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)

	c := client.NewWithoutRegistry()
	b, err := c.BindFactory("HPL", site.ApplicationFactoryHandle())
	if err != nil {
		t.Fatal(err)
	}
	execs, err := b.QueryExecutions(nil)
	if err != nil {
		t.Fatal(err)
	}
	stub := container.Dial(execs[0].Handle)
	def, err := stub.Definition()
	if err != nil {
		t.Fatal(err)
	}
	// Table 2 semantics text made it across the wire.
	op, err := def.Lookup("getPR")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(op.Doc, "Performance Results") {
		t.Errorf("getPR doc = %q", op.Doc)
	}
	if err := def.Validate("getFoci", []string{"unexpected-arg"}); err == nil {
		t.Error("definition accepted bad arity for getFoci")
	} else if err := def.Validate("getPR", []string{"m", "0", "1", "t", "/f"}); err != nil {
		t.Errorf("definition rejected valid getPR: %v", err)
	}
}
