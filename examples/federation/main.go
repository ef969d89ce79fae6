// Federation: the paper's core scenario — three organizations publish
// parallel-performance datasets stored in completely different formats
// (single-table RDBMS, flat ASCII text files, five-table star schema), and
// one analyst compares them through the uniform, virtual view that the
// Application/Execution grid services provide. Data heterogeneity, system
// heterogeneity, and location are all invisible at the client.
//
// Act two then re-runs the scenario the way a real grid behaves: through
// the scatter-gather engine, with one site blackholed and another turned
// into a straggler by the seeded chaos transport — and the analysis
// still completes, with explicit per-site annotations instead of a hang
// or an all-or-nothing failure.
//
// Run with:
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/compare"
	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/federation"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/registry"
	"pperfgrid/internal/viz"
)

func main() {
	// The data grid's registry — one per virtual organization.
	regCont := container.New(ogsi.NewHosting("pending:0"), container.Options{})
	if err := regCont.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer regCont.Close()
	if _, err := registry.Deploy(regCont.Hosting(), registry.New()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registry at %s\n\n", regCont.Host())

	// Three sites, three organizations, three storage formats.
	sites := []struct {
		org, contact, desc string
		wrapper            mapping.ApplicationWrapper
		name               string
	}{}
	hpl, err := mapping.NewWideTable(datagen.HPL(datagen.HPLConfig{Executions: 16, Seed: 3}))
	if err != nil {
		log.Fatal(err)
	}
	rma, err := mapping.NewFlatFile(datagen.PrestaRMA(datagen.RMAConfig{Executions: 8, MessageSizes: 12, Seed: 3}))
	if err != nil {
		log.Fatal(err)
	}
	smg, err := mapping.NewStar(datagen.SMG98(datagen.SMG98Config{Executions: 4, Processes: 4, TimeBins: 8, Seed: 3}))
	if err != nil {
		log.Fatal(err)
	}
	sites = append(sites,
		struct {
			org, contact, desc string
			wrapper            mapping.ApplicationWrapper
			name               string
		}{"PSU", "pperfgrid@pdx.edu", "Linpack runs in a single-table PostgreSQL-style store", hpl, "HPL"},
		struct {
			org, contact, desc string
			wrapper            mapping.ApplicationWrapper
			name               string
		}{"LLNL", "presta@llnl.gov", "Presta RMA benchmark output as flat ASCII text files", rma, "PRESTA-RMA"},
		struct {
			org, contact, desc string
			wrapper            mapping.ApplicationWrapper
			name               string
		}{"UOregon", "vampir@cs.uoregon.edu", "SMG98 Vampir traces in a five-table star schema", smg, "SMG98"},
	)

	pub := registry.Connect(regCont.Host())
	for _, s := range sites {
		site, err := core.StartSite(core.SiteConfig{AppName: s.name, Wrappers: []mapping.ApplicationWrapper{s.wrapper}})
		if err != nil {
			log.Fatal(err)
		}
		defer site.Close()
		if err := pub.PublishOrganization(registry.Organization{Name: s.org, Contact: s.contact}); err != nil {
			log.Fatal(err)
		}
		if err := pub.PublishService(registry.ServiceEntry{
			Organization: s.org, Name: s.name, Description: s.desc,
			FactoryHandle: site.ApplicationFactoryHandle().String(),
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s published %-10s at %s\n", s.org, s.name, site.PrimaryHost())
	}

	// The analyst discovers every site and binds to all of them.
	c := client.New(regCont.Host())
	orgs, err := c.DiscoverOrganizations("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiscovered %d organizations\n", len(orgs))
	for _, o := range orgs {
		svcs, err := c.DiscoverServices(o.Name)
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range svcs {
			if _, err := c.Bind(s); err != nil {
				log.Fatal(err)
			}
		}
	}

	// One uniform walk over heterogeneous stores: for every binding, list
	// metadata and compute the mean of its headline metric across runs.
	headline := map[string]struct{ metric, typ string }{
		"HPL":        {"gflops", "hpl"},
		"PRESTA-RMA": {"bandwidth", "presta"},
		"SMG98":      {"excl_time", "vampir"},
	}
	var labels []string
	var values []float64
	for _, b := range c.Bindings() {
		info, err := b.AppInfo()
		if err != nil {
			log.Fatal(err)
		}
		n, err := b.NumExecs()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s — %d executions\n", b.Key(), n)
		for _, kv := range info {
			if kv.Name == "description" {
				fmt.Printf("  %s\n", kv.Value)
			}
		}
		execs, err := b.QueryExecutions(nil)
		if err != nil {
			log.Fatal(err)
		}
		h := headline[b.Entry.Name]
		q := perfdata.Query{Metric: h.metric, Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: h.typ}
		results := client.QueryPerformanceResults(execs, q, client.ParallelOptions{})
		sum, count := 0.0, 0
		for _, r := range results {
			if r.Err != nil {
				log.Fatal(r.Err)
			}
			for _, res := range r.Results {
				sum += res.Value
				count++
			}
		}
		mean := 0.0
		if count > 0 {
			mean = sum / float64(count)
		}
		fmt.Printf("  mean %s over %d results: %.3f\n", h.metric, count, mean)
		labels = append(labels, fmt.Sprintf("%s %s", b.Entry.Name, h.metric))
		values = append(values, mean)
	}

	fmt.Println()
	fmt.Print(viz.BarChart("headline metric per federated site (mixed units)", labels, values, 40))
	fmt.Println("\nthree formats, three locations, one interface — the PPerfGrid virtual view")

	// ----- Act two: the same fleet through the scatter-gather engine. -----
	//
	// The walk above queried each site in turn and died on the first error.
	// A real grid loses sites mid-analysis, so route the fan-out through
	// internal/federation instead: concurrent per-site deadlines, retries
	// from a shared budget, hedged requests, and a circuit breaker — with a
	// Report that names exactly which sites answered and why the rest
	// didn't.
	fmt.Println("\n--- act two: scatter-gather with injected faults ---")

	transport, names, unbound, err := federation.Discover(c, "")
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range unbound {
		fmt.Printf("registered but unreachable: %s — %v\n", o.Site, o.Err)
	}
	chaos := federation.NewChaosTransport(transport, 42)
	engine := federation.New(chaos, federation.Config{PerSiteTimeout: 300 * time.Millisecond})

	// Presta bandwidth is published by every RMA execution; the other two
	// sites simply report zero observations for it — a federated query is
	// allowed to be sparse.
	q := perfdata.Query{Metric: "bandwidth", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "presta"}

	healthy := engine.Query(context.Background(), names, q)
	fmt.Printf("fault-free: %s\n", healthy.Summary())

	// Now blackhole one site and turn another into a straggler. The
	// federated query still returns, inside the deadline, with the healthy
	// answers intact and the casualties annotated.
	var dead, slow string
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "LLNL/"):
			dead = n
		case strings.HasPrefix(n, "UOregon/"):
			slow = n
		}
	}
	chaos.SetSiteFaults(dead, federation.SiteFaults{BlackholeRate: 1})
	chaos.SetSiteFaults(slow, federation.SiteFaults{Latency: 40 * time.Millisecond, LatencyJitter: 20 * time.Millisecond})
	fmt.Printf("\ninjected: %s blackholed, %s lagging ~40ms\n", dead, slow)

	report := engine.Query(context.Background(), names, q)
	fmt.Printf("faulted:    %s\n", report.Summary())
	for _, o := range report.Outcomes {
		note := ""
		if o.Err != nil {
			note = " — " + o.Err.Error()
		}
		fmt.Printf("  %-20s %-8s attempts=%d hedged=%v%s\n", o.Site, o.Status, o.Attempts, o.Hedged, note)
	}

	// The analysis layer rides the same engine: CollectFederated harvests
	// every observation the surviving sites produced and returns typed
	// per-site errors for the rest, instead of all-or-nothing.
	obs, oerrs, _ := compare.CollectFederated(context.Background(), engine, names, q)
	fmt.Printf("\ncompare.CollectFederated: %d observations harvested, %d site errors\n", len(obs), len(oerrs))
	for _, oe := range oerrs {
		fmt.Printf("  lost %s: retryable=%v timeout=%v\n", oe.Site, oe.Retryable, oe.Timeout)
	}
	fmt.Println("\npartial failure is an annotated answer, not a hang — the PPerfGrid federation layer")
}
