package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/wsdl"
)

// SiteConfig describes one PPerfGrid site: a performance data store
// (behind its Mapping-Layer wrapper), optionally replicated across several
// hosts, exposed through Application and Execution grid services.
type SiteConfig struct {
	// AppName names the published application (e.g. "HPL").
	AppName string
	// Wrappers holds one Mapping-Layer wrapper per replica host; the
	// first is the primary, which also hosts the Application factory and
	// the Manager. At least one is required.
	Wrappers []mapping.ApplicationWrapper
	// Workers bounds concurrent invocations per host (0 = unbounded).
	// One worker models the paper's single-CPU hosts.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot per host;
	// past it the container sheds with a typed overload fault. 0 means
	// unbounded (no admission control). See container.Options.
	QueueDepth int
	// QueueWait bounds how long an admitted request may wait for a
	// worker slot before being shed. 0 means no budget.
	QueueWait time.Duration
	// CachingOff disables the Performance Results cache, as in the
	// paper's Table 5 baseline runs.
	CachingOff bool
	// CacheCapacity bounds each LRU cache in entries; 0 means unbounded.
	CacheCapacity int
	// Interceptors (e.g. a GSI verifier) run on every host.
	Interceptors []container.Interceptor
	// Notifications enables per-Execution update notification hubs.
	Notifications bool
	// Addr is the listen address for the primary host; additional
	// replicas always bind "127.0.0.1:0". Empty means "127.0.0.1:0".
	Addr string
}

// sweepInterval is how often each host destroys the instances whose
// termination time has passed.
const sweepInterval = time.Second

// Site is a running PPerfGrid site.
type Site struct {
	cfg        SiteConfig
	containers []*container.Container
	stopSweeps []func() // one lifetime sweeper per container
	manager    *Manager

	appFactory *ogsi.Instance

	mu     sync.Mutex
	groups map[string]*execGroup // execID -> its replica group, kept for the site's life
}

// StartSite stands up the site's containers, deploys an Execution factory
// on every replica host, and deploys the Application factory and Manager
// on the primary host. Every host runs a lifetime sweeper, so an instance
// whose termination time passes is destroyed.
func StartSite(cfg SiteConfig) (*Site, error) {
	if len(cfg.Wrappers) == 0 {
		return nil, fmt.Errorf("core: site %q has no wrappers", cfg.AppName)
	}
	if cfg.AppName == "" {
		return nil, fmt.Errorf("core: site has no application name")
	}
	s := &Site{cfg: cfg, groups: make(map[string]*execGroup)}

	var refs []ExecutionFactoryRef
	for i := range cfg.Wrappers {
		hosting := ogsi.NewHosting("pending:0")
		cont := container.New(hosting, container.Options{
			Workers:      cfg.Workers,
			QueueDepth:   cfg.QueueDepth,
			QueueWait:    cfg.QueueWait,
			Interceptors: cfg.Interceptors,
		})
		addr := "127.0.0.1:0"
		if i == 0 && cfg.Addr != "" {
			addr = cfg.Addr
		}
		if err := cont.Start(addr); err != nil {
			s.Close()
			return nil, err
		}
		s.containers = append(s.containers, cont)
		s.stopSweeps = append(s.stopSweeps, hosting.StartSweeper(sweepInterval))

		execFactory := ogsi.NewFactory(hosting, ExecutionType, ExecutionDefinition(), s.executionConstructor(i))
		if _, err := execFactory.Deploy(); err != nil {
			s.Close()
			return nil, err
		}
		if _, err := ogsi.NewHandleMap(hosting).Deploy(); err != nil {
			s.Close()
			return nil, err
		}
		refs = append(refs, &LocalFactoryRef{Factory: execFactory, HostID: cont.Host()})
	}

	manager, err := NewManager(refs...)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.mu.Lock()
	s.manager = manager
	s.mu.Unlock()
	primary := s.containers[0].Hosting()
	if _, err := primary.DeployPersistent(ManagerType, manager, ManagerDefinition()); err != nil {
		s.Close()
		return nil, err
	}

	appFactory := ogsi.NewFactory(primary, ApplicationType, ApplicationDefinition(),
		func(params []string) (ogsi.Service, *wsdl.Definition, error) {
			return NewApplicationService(cfg.Wrappers[0], manager), nil, nil
		})
	fin, err := appFactory.Deploy()
	if err != nil {
		s.Close()
		return nil, err
	}
	s.appFactory = fin
	return s, nil
}

// executionConstructor builds the Execution factory constructor for
// replica r. Each instance reads through replica r and joins its
// execution's group; it gets its own Performance Results cache, per
// section 5.3.2.3.
func (s *Site) executionConstructor(r int) ogsi.Constructor {
	return func(params []string) (ogsi.Service, *wsdl.Definition, error) {
		if len(params) != 1 || params[0] == "" {
			return nil, nil, fmt.Errorf("core: Execution factory requires [executionID], got %v", params)
		}
		var cache *Cache
		if !s.cfg.CachingOff {
			cache = NewCache(s.cfg.CacheCapacity)
		}
		var hub *ogsi.NotificationHub
		if s.cfg.Notifications {
			hub = ogsi.NewNotificationHub(container.SOAPSinkDialer())
		}
		svc, err := s.group(params[0]).join(r, cache, hub)
		if err != nil {
			return nil, nil, err
		}
		svc.SetSinkDialer(container.SOAPSinkDialer())
		def := ExecutionDefinition()
		if s.cfg.Notifications {
			def = def.Merge(ogsi.NotificationSourcePortType())
		}
		return svc, def, nil
	}
}

// Close stops the site's sweepers and shuts down every container.
func (s *Site) Close() {
	s.stopSweepers()
	for _, c := range s.containers {
		_ = c.Close()
	}
}

func (s *Site) stopSweepers() {
	for _, stop := range s.stopSweeps {
		stop()
	}
}

// Drain gracefully shuts the site down: the sweepers stop, and every
// container stops accepting, sheds new work, and lets in-flight requests
// finish (or deadline out at ctx). Containers drain concurrently, so the
// site's drain time is the slowest host's, not the sum. Returns the first
// container's error, if any.
func (s *Site) Drain(ctx context.Context) error {
	s.stopSweepers()
	errs := make(chan error, len(s.containers))
	for _, c := range s.containers {
		go func() { errs <- c.Drain(ctx) }()
	}
	var first error
	for range s.containers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Hosts returns the site's replica host addresses; element 0 is the
// primary.
func (s *Site) Hosts() []string {
	out := make([]string, len(s.containers))
	for i, c := range s.containers {
		out[i] = c.Host()
	}
	return out
}

// PrimaryHost returns the primary host address.
func (s *Site) PrimaryHost() string { return s.containers[0].Host() }

// ApplicationFactoryHandle returns the GSH of the site's Application
// factory — the handle published to the registry.
func (s *Site) ApplicationFactoryHandle() gsh.Handle { return s.appFactory.Handle() }

// Manager returns the site's Manager.
func (s *Site) Manager() *Manager { return s.manager }

// Containers exposes the site's containers, e.g. for request counting in
// experiments.
func (s *Site) Containers() []*container.Container { return s.containers }

// LocalWrapper returns the primary wrapper for co-located clients — the
// paper's future-work "local bypass" optimization: a client on the same
// host accesses the data store directly through its wrapper, skipping the
// Services Layer.
func (s *Site) LocalWrapper() mapping.ApplicationWrapper { return s.cfg.Wrappers[0] }

// group returns an execution's replica group, creating it on first use.
func (s *Site) group(execID string) *execGroup {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[execID]
	if g == nil {
		g = &execGroup{id: execID, site: s, replicas: make([]mapping.ExecutionWrapper, len(s.cfg.Wrappers))}
		s.groups[execID] = g
	}
	return g
}

// ExecutionServices returns the live (not destroyed) Execution service
// implementations of an execution ID, on any replica host.
func (s *Site) ExecutionServices(execID string) []*ExecutionService {
	s.mu.Lock()
	g := s.groups[execID]
	s.mu.Unlock()
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.live)
}

// NotifyUpdate announces a data-store update for one execution to every
// live instance (retiring memoized state and cached results) and their
// subscribers.
func (s *Site) NotifyUpdate(execID, message string) {
	for _, svc := range s.ExecutionServices(execID) {
		svc.NotifyUpdate(message)
	}
}

// PublishResults ingests Performance Results for one execution across the
// whole site, through the same write path as publishPR on any of the
// execution's instances (see execGroup.publish).
func (s *Site) PublishResults(execID string, rs []perfdata.Result) error {
	return s.group(execID).publish(rs)
}

// execGroup is one execution's replica group and its one write path:
// every publish to the execution, from publishPR on any of its instances
// or from Site.PublishResults, runs through publish. An ExecutionService
// built outside a site gets a private one-replica group.
type execGroup struct {
	id   string
	site *Site // opens the replicas and forgets destroyed instances; nil for a private group

	// mu orders the execution's publishes, so every replica applies them
	// in the same order, and guards the fields below.
	mu       sync.Mutex
	replicas []mapping.ExecutionWrapper // replica r's wrapper, opened once on first use
	live     []*ExecutionService        // live instances on any replica
}

// replicaLocked returns replica r's wrapper, opening it on first use (a
// private group's one replica is open from the start).
func (g *execGroup) replicaLocked(r int) (mapping.ExecutionWrapper, error) {
	if g.replicas[r] == nil {
		ew, err := g.site.cfg.Wrappers[r].ExecutionWrapper(g.id)
		if err != nil {
			return nil, err
		}
		g.replicas[r] = ew
	}
	return g.replicas[r], nil
}

// join builds a live instance that reads through replica r.
func (g *execGroup) join(r int, cache *Cache, hub *ogsi.NotificationHub) (*ExecutionService, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ew, err := g.replicaLocked(r)
	if err != nil {
		return nil, err
	}
	e := &ExecutionService{id: g.id, wrapper: ew, cache: cache, hub: hub, group: g}
	g.live = append(g.live, e)
	return e, nil
}

// leave drops a destroyed instance, releasing its cache, and makes the
// site's Manager forget the instance's handle (if it is the one the
// Manager hands out) so the next request creates a fresh instance instead
// of handing out a dead one.
func (g *execGroup) leave(e *ExecutionService, handle string) {
	g.mu.Lock()
	g.live = slices.DeleteFunc(g.live, func(x *ExecutionService) bool { return x == e })
	g.mu.Unlock()
	if g.site != nil {
		g.site.mu.Lock()
		m := g.site.manager // nil while the site starts
		g.site.mu.Unlock()
		if m != nil {
			m.Forget(g.id, handle)
		}
	}
}

// publish writes rs to every replica in order, the only code that writes
// a store, once every replica is known writable, and then applies
// noteWrite to every live instance. That also happens when a replica
// fails after the first write started (a failed call may have applied
// part of the batch), so no instance serves its pre-write answer over
// post-write data; the error is still returned.
func (g *execGroup) publish(rs []perfdata.Result) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	ws := make([]mapping.ResultWriter, len(g.replicas))
	for r := range ws {
		ew, err := g.replicaLocked(r)
		if err != nil {
			return err
		}
		w, ok := ew.(mapping.ResultWriter)
		if !ok {
			return fmt.Errorf("core: execution %s: %w", g.id, mapping.ErrNotWritable)
		}
		ws[r] = w
	}
	if len(rs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("published %d results", len(rs))
	defer func() {
		for _, e := range g.live {
			e.noteWrite(msg)
		}
	}()
	for _, w := range ws {
		if err := w.PublishResults(rs); err != nil {
			return err
		}
	}
	return nil
}
