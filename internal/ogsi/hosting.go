package ogsi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pperfgrid/internal/gsh"
	"pperfgrid/internal/wsdl"
)

// Hosting is the table of grid service instances living in one hosting
// environment (one container). It enforces GSH uniqueness, allocates
// instance IDs, and runs soft-state lifetime management: instances whose
// termination time passes are destroyed by the sweeper, exactly as OGSI's
// lifetime model prescribes.
type Hosting struct {
	host string

	alloc gsh.Allocator
	nowFn func() time.Time

	mu        sync.RWMutex
	instances map[string]*Instance // key: serviceType + "/" + instanceID
}

// NewHosting creates an empty hosting environment. The host (host:port)
// names the HTTP endpoint instances advertise in their GSHs; it may be
// re-set by the container once a listener is bound.
func NewHosting(host string) *Hosting {
	return &Hosting{
		host:      host,
		nowFn:     time.Now,
		instances: make(map[string]*Instance),
	}
}

// SetClock replaces the time source, for deterministic lifetime tests.
func (h *Hosting) SetClock(now func() time.Time) { h.nowFn = now }

func (h *Hosting) now() time.Time { return h.nowFn() }

// SetHost updates the advertised host after the listener is bound.
// It must be called before any instances are deployed.
func (h *Hosting) SetHost(host string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.instances) > 0 {
		return errors.New("ogsi: cannot change host with live instances")
	}
	h.host = host
	return nil
}

// Host returns the advertised host:port.
func (h *Hosting) Host() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.host
}

func key(serviceType, id string) string { return serviceType + "/" + id }

// DeployPersistent deploys a persistent (non-transient) service under
// instance ID "0" — factories, the Manager, and the registry use this.
// The definition gains the GridService PortType automatically.
func (h *Hosting) DeployPersistent(serviceType string, impl Service, def *wsdl.Definition) (*Instance, error) {
	return h.deploy(serviceType, gsh.PersistentID, impl, def)
}

// CreateInstance creates a transient instance of the given service type
// with a freshly allocated unique ID.
func (h *Hosting) CreateInstance(serviceType string, impl Service, def *wsdl.Definition) (*Instance, error) {
	return h.deploy(serviceType, h.alloc.Next(), impl, def)
}

func (h *Hosting) deploy(serviceType, id string, impl Service, def *wsdl.Definition) (*Instance, error) {
	if serviceType == "" {
		return nil, errors.New("ogsi: empty service type")
	}
	if impl == nil {
		return nil, errors.New("ogsi: nil service implementation")
	}
	if def == nil {
		def = wsdl.New(serviceType)
	}
	def = def.Merge(GridServicePortType())

	h.mu.Lock()
	defer h.mu.Unlock()
	handle := gsh.New(h.host, serviceType, id)
	k := key(serviceType, id)
	if _, exists := h.instances[k]; exists {
		return nil, fmt.Errorf("ogsi: handle %s already in use", handle)
	}
	def.Endpoint = handle.URL()
	in := newInstance(handle, impl, def, h, h.nowFn())
	h.instances[k] = in
	return in, nil
}

// Lookup finds a live instance by service type and instance ID.
func (h *Hosting) Lookup(serviceType, id string) (*Instance, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	in, ok := h.instances[key(serviceType, id)]
	return in, ok
}

// LookupHandle finds a live instance by its GSH, verifying the host
// matches this hosting environment.
func (h *Hosting) LookupHandle(handle gsh.Handle) (*Instance, bool) {
	if handle.Host != h.Host() {
		return nil, false
	}
	return h.Lookup(handle.ServiceType, handle.InstanceID)
}

// remove deletes a destroyed instance from the table.
func (h *Hosting) remove(handle gsh.Handle) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.instances, key(handle.ServiceType, handle.InstanceID))
}

// Instances returns a snapshot of all live instances.
func (h *Hosting) Instances() []*Instance {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Instance, 0, len(h.instances))
	for _, in := range h.instances {
		out = append(out, in)
	}
	return out
}

// NumInstances returns the number of live instances.
func (h *Hosting) NumInstances() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.instances)
}

// Sweep destroys every instance whose termination time has passed,
// returning how many were destroyed.
func (h *Hosting) Sweep() int {
	now := h.nowFn()
	var expired []*Instance
	h.mu.RLock()
	for _, in := range h.instances {
		if in.expired(now) {
			expired = append(expired, in)
		}
	}
	h.mu.RUnlock()
	for _, in := range expired {
		_ = in.Destroy()
	}
	return len(expired)
}

// StartSweeper runs Sweep every interval until the returned stop function
// is called. stop may be called more than once; it returns once the
// sweeper goroutine has exited.
func (h *Hosting) StartSweeper(interval time.Duration) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	var once sync.Once
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.Sweep()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// DestroyAll destroys every live instance, for orderly shutdown.
func (h *Hosting) DestroyAll() {
	for _, in := range h.Instances() {
		_ = in.Destroy()
	}
}
