// Command pperfgrid-server runs one PPerfGrid site: a synthetic
// performance data store behind its Mapping-Layer wrapper, exposed as
// Application and Execution grid services, optionally replicated across
// in-process hosts and published to a registry.
//
// With -registry, the site keeps its registry entry alive by republishing
// it every third of the registry's 30 s lease, and removes it when it
// drains. A site that dies without draining drops out of discovery once
// its lease lapses; restarted, it takes its name back as soon as the old
// lease has lapsed (until then its publish is refused, logged, and
// retried). Every host destroys instances whose termination time has
// passed (SetTerminationTime) within about a second.
//
// Usage:
//
//	pperfgrid-server -dataset hpl  -store wide -addr 127.0.0.1:9001 \
//	                 -registry 127.0.0.1:9000 -org PSU
//	pperfgrid-server -dataset rma  -store flat
//	pperfgrid-server -dataset smg98 -store star -replicas 2 -workers 1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/registry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:0", "primary host listen address")
		dataset   = flag.String("dataset", "hpl", "dataset to generate: hpl | rma | smg98")
		store     = flag.String("store", "", "store format: wide | star | flat | xml (default: the paper's format for the dataset)")
		regHost   = flag.String("registry", "", "registry host:port to publish to (optional)")
		org       = flag.String("org", "PSU", "organization name for registry publication")
		contact   = flag.String("contact", "pperfgrid@pdx.edu", "organization contact")
		replicas  = flag.Int("replicas", 1, "number of replica hosts")
		workers   = flag.Int("workers", 0, "simulated CPUs per host (0 = unbounded)")
		cacheOff  = flag.Bool("cache-off", false, "disable the Performance Results cache")
		cacheCap  = flag.Int("cache-capacity", 0, "LRU cache capacity in entries (0 = unbounded)")
		notify    = flag.Bool("notifications", false, "enable Execution update notifications")
		seed      = flag.Int64("seed", 1, "dataset generator seed")
		execs     = flag.Int("executions", 0, "override execution count (0 = dataset default)")
		queue     = flag.Int("queue-depth", 0, "admission queue depth per host (0 = unbounded, no shedding)")
		queueWait = flag.Duration("queue-wait", 0, "queue-wait budget before a request is shed (0 = none)")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "graceful drain bound on SIGINT/SIGTERM before force close")
		dataDir   = flag.String("data-dir", "", "directory for disk-resident SQL stores (wide/star only; empty = in-memory)")
		cacheByte = flag.Int64("page-cache-bytes", 0, "block page-cache budget per replica (0 = engine default, <0 = disabled)")
	)
	flag.Parse()

	d, defaultStore, err := makeDataset(*dataset, *seed, *execs)
	if err != nil {
		log.Fatalf("pperfgrid-server: %v", err)
	}
	if *store == "" {
		*store = defaultStore
	}

	wrappers := make([]mapping.ApplicationWrapper, *replicas)
	for i := range wrappers {
		// Each replica owns its own segment directory: the disk engine is
		// single-writer, so replicas recover and serve independent copies.
		opts := minidb.Options{PageCacheBytes: *cacheByte}
		if *dataDir != "" {
			opts.Dir = filepath.Join(*dataDir, fmt.Sprintf("replica-%d", i))
		}
		w, err := makeWrapper(*store, d, opts)
		if err != nil {
			log.Fatalf("pperfgrid-server: %v", err)
		}
		wrappers[i] = w
	}

	site, err := core.StartSite(core.SiteConfig{
		AppName:       d.Name,
		Wrappers:      wrappers,
		Workers:       *workers,
		QueueDepth:    *queue,
		QueueWait:     *queueWait,
		CachingOff:    *cacheOff,
		CacheCapacity: *cacheCap,
		Notifications: *notify,
		Addr:          *addr,
	})
	if err != nil {
		log.Fatalf("pperfgrid-server: %v", err)
	}
	defer site.Close()

	fmt.Printf("PPerfGrid site %q (%s store) serving %d executions\n", d.Name, *store, len(d.Execs))
	for i, h := range site.Hosts() {
		role := "replica"
		if i == 0 {
			role = "primary"
		}
		fmt.Printf("  host %d (%s): %s\n", i, role, h)
	}
	fmt.Printf("Application factory: %s\n", site.ApplicationFactoryHandle())

	unpublish := func() {}
	if *regHost != "" {
		pub := registry.Connect(*regHost)
		if err := pub.PublishOrganization(registry.Organization{Name: *org, Contact: *contact}); err != nil {
			log.Fatalf("pperfgrid-server: publish organization: %v", err)
		}
		entry := registry.ServiceEntry{
			Organization:  *org,
			Name:          d.Name,
			Description:   fmt.Sprintf("%s dataset in a %s store (%d executions)", d.Name, *store, len(d.Execs)),
			FactoryHandle: site.ApplicationFactoryHandle().String(),
		}
		ctx, cancel := context.WithCancel(context.Background())
		unpublished := make(chan error, 1)
		go func() { unpublished <- pub.KeepPublished(ctx, entry) }()
		unpublish = func() {
			cancel()
			if err := <-unpublished; err != nil {
				fmt.Printf("unpublish: %v\n", err)
			}
		}
		fmt.Printf("publishing as %s/%s in registry %s\n", *org, d.Name, *regHost)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Leave the registry first, so no new client discovers a draining site.
	unpublish()
	// Graceful drain: stop accepting, shed new work on live connections,
	// let in-flight requests finish within the drain budget, then close.
	// A second signal force-closes immediately.
	fmt.Printf("draining (up to %v; signal again to force close)\n", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()
	if err := site.Drain(ctx); err != nil {
		fmt.Printf("drain incomplete: %v\n", err)
	}
	fmt.Println("shut down")
}

func makeDataset(name string, seed int64, execs int) (*datagen.Dataset, string, error) {
	switch strings.ToLower(name) {
	case "hpl":
		cfg := datagen.HPLConfig{Executions: execs, Seed: seed}
		return datagen.HPL(cfg), "wide", nil
	case "rma":
		cfg := datagen.RMAConfig{Executions: execs, Seed: seed}
		return datagen.PrestaRMA(cfg), "flat", nil
	case "smg98":
		cfg := datagen.DefaultSMG98
		cfg.Seed = seed
		if execs > 0 {
			cfg.Executions = execs
		}
		return datagen.SMG98(cfg), "star", nil
	}
	return nil, "", fmt.Errorf("unknown dataset %q (want hpl, rma, or smg98)", name)
}

func makeWrapper(store string, d *datagen.Dataset, opts minidb.Options) (mapping.ApplicationWrapper, error) {
	switch strings.ToLower(store) {
	case "wide":
		return mapping.NewWideTableWithOptions(d, opts)
	case "star":
		return mapping.NewStarWithOptions(d, opts)
	case "flat":
		if opts.Dir != "" {
			return nil, fmt.Errorf("store %q does not support -data-dir (disk engine is SQL-only)", store)
		}
		return mapping.NewFlatFile(d)
	case "xml":
		if opts.Dir != "" {
			return nil, fmt.Errorf("store %q does not support -data-dir (disk engine is SQL-only)", store)
		}
		return mapping.NewXML(d)
	}
	return nil, fmt.Errorf("unknown store %q (want wide, star, flat, or xml)", store)
}
