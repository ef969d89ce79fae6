package core

import (
	"context"
	"fmt"
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

// Site is a running PPerfGrid site.
type Site struct {
	cfg        SiteConfig
	containers []*container.Container
	manager    *Manager

	appFactory *ogsi.Instance

	mu        sync.Mutex
	instances map[string][]*ExecutionService // execID -> live services (one per replica that created it)
}

// StartSite stands up the site's containers, deploys an Execution factory
// on every replica host, and deploys the Application factory and Manager
// on the primary host.
func StartSite(cfg SiteConfig) (*Site, error) {
	if len(cfg.Wrappers) == 0 {
		return nil, fmt.Errorf("core: site %q has no wrappers", cfg.AppName)
	}
	if cfg.AppName == "" {
		return nil, fmt.Errorf("core: site has no application name")
	}
	s := &Site{cfg: cfg, instances: make(map[string][]*ExecutionService)}

	var refs []ExecutionFactoryRef
	for i, w := range cfg.Wrappers {
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

		execFactory := ogsi.NewFactory(hosting, ExecutionType, ExecutionDefinition(), s.executionConstructor(w))
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
	s.manager = manager
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

// executionConstructor builds the Execution factory constructor for one
// replica's wrapper. Each instance gets its own Performance Results cache,
// per section 5.3.2.3.
func (s *Site) executionConstructor(w mapping.ApplicationWrapper) ogsi.Constructor {
	return func(params []string) (ogsi.Service, *wsdl.Definition, error) {
		if len(params) != 1 || params[0] == "" {
			return nil, nil, fmt.Errorf("core: Execution factory requires [executionID], got %v", params)
		}
		id := params[0]
		ew, err := w.ExecutionWrapper(id)
		if err != nil {
			return nil, nil, err
		}
		var cache *Cache
		if !s.cfg.CachingOff {
			cache = NewCache(s.cfg.CacheCapacity)
		}
		var hub *ogsi.NotificationHub
		if s.cfg.Notifications {
			hub = ogsi.NewNotificationHub(container.SOAPSinkDialer())
		}
		svc := NewExecutionService(id, ew, cache, hub)
		svc.SetSinkDialer(container.SOAPSinkDialer())
		s.mu.Lock()
		s.instances[id] = append(s.instances[id], svc)
		s.mu.Unlock()
		def := ExecutionDefinition()
		if s.cfg.Notifications {
			def = def.Merge(ogsi.NotificationSourcePortType())
		}
		return svc, def, nil
	}
}

// Close shuts down every container of the site.
func (s *Site) Close() {
	for _, c := range s.containers {
		_ = c.Close()
	}
}

// Drain gracefully shuts the site down: every container stops accepting,
// sheds new work, and lets in-flight requests finish (or deadline out at
// ctx). Containers drain concurrently, so the site's drain time is the
// slowest host's, not the sum. Returns the first container's error, if
// any.
func (s *Site) Drain(ctx context.Context) error {
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

// ExecutionServices returns the live Execution service implementations
// created for an execution ID (one per replica host that instantiated it).
func (s *Site) ExecutionServices(execID string) []*ExecutionService {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*ExecutionService, len(s.instances[execID]))
	copy(out, s.instances[execID])
	return out
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
// whole site: each replica wraps its own copy of the data store, so the
// write lands on every replica's wrapper (or replicas would diverge), and
// every live Execution instance for the ID then applies its
// write-visibility sequence (epoch bump, cache purge, subscriber
// notification). A publish that fails part way still runs that sequence
// once any replica has been written to — a failed wrapper call may also
// have applied part of the batch — so no instance serves its pre-write
// answer over post-write data; the error is still returned. A publishPR
// call on a single instance, by contrast, writes only that replica's
// store — single-replica sites (the common test topology) can use either
// path interchangeably.
func (s *Site) PublishResults(execID string, rs []perfdata.Result) error {
	if len(rs) == 0 {
		return nil
	}
	written := false
	defer func() {
		if written {
			for _, svc := range s.ExecutionServices(execID) {
				svc.noteWrite(fmt.Sprintf("published %d results", len(rs)))
			}
		}
	}()
	for _, w := range s.cfg.Wrappers {
		ew, err := w.ExecutionWrapper(execID)
		if err != nil {
			return err
		}
		rw, ok := ew.(mapping.ResultWriter)
		if !ok {
			return fmt.Errorf("core: site %s execution %s: %w", s.cfg.AppName, execID, mapping.ErrNotWritable)
		}
		written = true
		if err := rw.PublishResults(rs); err != nil {
			return err
		}
	}
	return nil
}
