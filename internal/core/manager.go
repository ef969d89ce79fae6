package core

import (
	"fmt"
	"strconv"
	"sync"

	"pperfgrid/internal/container"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
)

// ExecutionFactoryRef abstracts one replica host's Execution factory: the
// Manager uses it to create Execution service instances for unique IDs.
// Local (same-process) and remote (SOAP) adapters are provided.
type ExecutionFactoryRef interface {
	// CreateExecutions instantiates one Execution service per ID and
	// returns their GSH strings in order — one SOAP round trip per
	// replica, not one per instance.
	CreateExecutions(execIDs []string) ([]string, error)
	// Host names the replica, for fairness accounting and reports.
	Host() string
}

// LocalFactoryRef adapts an in-process ogsi.Factory.
type LocalFactoryRef struct {
	Factory *ogsi.Factory
	HostID  string
}

// CreateExecutions implements ExecutionFactoryRef (in-process, so "one
// round trip" is free — this keeps the local and remote paths symmetric).
func (l *LocalFactoryRef) CreateExecutions(execIDs []string) ([]string, error) {
	ins, err := l.Factory.CreateBatch(execIDs)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.Handle().String()
	}
	return out, nil
}

// Host implements ExecutionFactoryRef.
func (l *LocalFactoryRef) Host() string { return l.HostID }

// RemoteFactoryRef adapts an Execution factory on another host, reached
// through its SOAP stub — the Manager "accessing the Execution Grid
// service factory as a client" (section 5.3.1.4).
type RemoteFactoryRef struct {
	Stub *container.Stub
}

// NewRemoteFactoryRef dials the ExecutionFactory on a host.
func NewRemoteFactoryRef(host string) *RemoteFactoryRef {
	return &RemoteFactoryRef{Stub: container.Dial(gsh.Persistent(host, ExecutionType+"Factory"))}
}

// CreateExecutions implements ExecutionFactoryRef: the whole group costs
// one SOAP round trip (the factory's plural CreateServices operation).
func (r *RemoteFactoryRef) CreateExecutions(execIDs []string) ([]string, error) {
	out, err := r.Stub.Call(ogsi.OpCreateServices, execIDs...)
	if err != nil {
		return nil, err
	}
	if len(out) != len(execIDs) {
		return nil, fmt.Errorf("core: CreateServices returned %d values for %d IDs", len(out), len(execIDs))
	}
	return out, nil
}

// Host implements ExecutionFactoryRef.
func (r *RemoteFactoryRef) Host() string { return r.Stub.Handle().Host }

// pendingCreate is the in-flight marker for one execution ID whose
// instance is being created: duplicate requests wait on done instead of
// re-creating.
type pendingCreate struct {
	done chan struct{} // closed when gsh/err are set
	gsh  string
	err  error
}

// Manager is the PPerfGrid Manager (section 5.3.1.4): a non-transient,
// internal grid service that caches Execution service instances. Creation
// of a grid service instance is relatively expensive, so instances are
// created only on first reference; the GSH of a previously created
// instance is returned from the hash table thereafter. When the data
// source is replicated on multiple hosts, the Manager interleaves
// instantiations across them "to ensure as much fairness as possible for
// future requests": within each cold batch, the i-th new ID goes to
// replica i mod N, so ID 1 lands on host A, ID 2 on host B, and so on.
//
// A cold batch is created in parallel: missing IDs are grouped by
// replica, each group goes out as one plural CreateServices call, and the
// groups run concurrently. The Manager's mutex is never held across the
// wire — cached-handle lookups proceed while creations are in flight, and
// in-flight markers make duplicate requests wait for the first creation
// instead of re-creating.
type Manager struct {
	factories []ExecutionFactoryRef

	mu       sync.Mutex
	cache    map[string]string         // execution ID -> GSH
	inflight map[string]*pendingCreate // execution ID -> in-flight creation
	perHost  map[string]int            // replica host -> instances created
}

// NewManager builds a Manager over the given replica factories.
func NewManager(factories ...ExecutionFactoryRef) (*Manager, error) {
	if len(factories) == 0 {
		return nil, fmt.Errorf("core: manager needs at least one execution factory")
	}
	return &Manager{
		factories: factories,
		cache:     make(map[string]string),
		inflight:  make(map[string]*pendingCreate),
		perHost:   make(map[string]int),
	}, nil
}

// ExecutionHandles returns one GSH per execution ID, creating instances
// for IDs seen for the first time and serving the rest from the cache.
// Uncached IDs are interleaved across the replica factories and created
// concurrently, one plural factory call per replica; IDs whose
// creation another request already started are waited on, not
// re-created. On any creation failure the whole request reports the first
// error (handles created before the failure stay cached); failed IDs are
// released for retry.
func (m *Manager) ExecutionHandles(ids []string) ([]string, error) {
	out := make([]string, len(ids))

	m.mu.Lock()
	var newIDs []string
	newPending := make(map[string]*pendingCreate)
	waiters := make(map[*pendingCreate][]int)
	for i, id := range ids {
		if h, ok := m.cache[id]; ok {
			out[i] = h
			continue
		}
		p, ok := m.inflight[id]
		if !ok {
			p = &pendingCreate{done: make(chan struct{})}
			m.inflight[id] = p
			newPending[id] = p
			newIDs = append(newIDs, id)
		}
		waiters[p] = append(waiters[p], i)
	}
	m.mu.Unlock()

	// Interleave the new IDs (the i-th to replica i mod N) and create each
	// replica's group concurrently, no lock held over the wire.
	n := len(m.factories)
	for r := 0; r < n && r < len(newIDs); r++ {
		group := make([]string, 0, (len(newIDs)-r+n-1)/n)
		for j := r; j < len(newIDs); j += n {
			group = append(group, newIDs[j])
		}
		go m.createOn(r, group, newPending)
	}

	// Collect: both our own creations and ones other requests started.
	var firstErr error
	for p, idxs := range waiters {
		<-p.done
		if p.err != nil {
			if firstErr == nil {
				firstErr = p.err
			}
			continue
		}
		for _, i := range idxs {
			out[i] = p.gsh
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// createOn instantiates one replica's group of IDs with a single plural
// call, then publishes the outcome to the cache and every waiter.
func (m *Manager) createOn(r int, group []string, pending map[string]*pendingCreate) {
	f := m.factories[r]
	handles, err := f.CreateExecutions(group)
	if err == nil && len(handles) != len(group) {
		err = fmt.Errorf("%d handles for %d IDs", len(handles), len(group))
	}

	m.mu.Lock()
	for i, id := range group {
		p := pending[id]
		if err != nil {
			p.err = fmt.Errorf("core: create execution %q on %s: %w", id, f.Host(), err)
		} else {
			p.gsh = handles[i]
			m.cache[id] = handles[i]
			m.perHost[f.Host()]++
		}
		delete(m.inflight, id)
	}
	m.mu.Unlock()
	for _, id := range group {
		close(pending[id].done)
	}
}

// CachedCount returns the number of cached Execution instances.
func (m *Manager) CachedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}

// PerHostCounts returns a copy of the per-replica creation counts.
func (m *Manager) PerHostCounts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.perHost))
	for k, v := range m.perHost {
		out[k] = v
	}
	return out
}

// Forget drops the execution's cached instance handle if it is handle, so
// the next request for the execution creates a fresh instance. A Site
// calls it whenever an instance of the execution is destroyed, by a client
// Destroy or by lifetime management; the destroyed instance may be one the
// Manager never handed out, and then its own handle stays.
func (m *Manager) Forget(execID, handle string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cache[execID] == handle {
		delete(m.cache, execID)
	}
}

// Invoke implements the Manager PortType wire protocol.
func (m *Manager) Invoke(op string, params []string) ([]string, error) {
	switch op {
	case OpGetExecutions:
		return m.ExecutionHandles(params)
	}
	return nil, fmt.Errorf("%w: %q on Manager", ogsi.ErrUnknownOperation, op)
}

// ServiceData publishes Manager statistics.
func (m *Manager) ServiceData() map[string][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	hosts := make([]string, 0, len(m.factories))
	for _, f := range m.factories {
		hosts = append(hosts, f.Host())
	}
	return map[string][]string{
		"replicaHosts": hosts,
		"cachedCount":  {strconv.Itoa(len(m.cache))},
		"replicaCount": {strconv.Itoa(len(m.factories))},
	}
}
