package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
)

// ExecutionFactoryRef abstracts one replica host's Execution factory: the
// Manager uses it to create Execution service instances for unique IDs.
// Local (same-process) and remote (SOAP) adapters are provided.
type ExecutionFactoryRef interface {
	// CreateExecution instantiates an Execution service for the ID and
	// returns its GSH string.
	CreateExecution(execID string) (string, error)
	// Host names the replica, for fairness accounting and reports.
	Host() string
}

// BatchFactoryRef is an optional ExecutionFactoryRef extension: one call
// instantiates a whole group of IDs — one SOAP round trip per replica
// instead of one per instance. Refs without it fall back to per-ID
// creation (still grouped and run concurrently across replicas).
type BatchFactoryRef interface {
	ExecutionFactoryRef
	// CreateExecutions instantiates one Execution service per ID and
	// returns their GSH strings in order.
	CreateExecutions(execIDs []string) ([]string, error)
}

// HostLoad snapshots one replica host's load for load-aware policies.
type HostLoad struct {
	// Created counts Execution instances the Manager has placed on the
	// replica (including ones whose creation is still in flight).
	Created int
	// InFlight counts requests currently executing or queued on the host
	// — per-host worker-pool feedback when the ref can see its container.
	InFlight int
	// Queued and Executing split InFlight into its components: requests
	// waiting for a worker slot versus requests holding one. Shedding
	// decisions and ServiceData reporting read the split; InFlight stays
	// the policies' aggregate signal.
	Queued    int
	Executing int
	// LatencyMs is an exponential moving average of recent service time
	// on the host (0 until a sample exists).
	LatencyMs float64
}

// LoadReporter is an optional ExecutionFactoryRef extension exposing live
// host load to the Manager's load-aware policies.
type LoadReporter interface {
	Load() HostLoad
}

// LocalFactoryRef adapts an in-process ogsi.Factory.
type LocalFactoryRef struct {
	Factory *ogsi.Factory
	HostID  string
	// LoadFn, when set, reports the host container's live load (in-flight
	// requests, service-time EWMA) for load-aware replica policies.
	LoadFn func() HostLoad
}

// CreateExecution implements ExecutionFactoryRef.
func (l *LocalFactoryRef) CreateExecution(execID string) (string, error) {
	in, err := l.Factory.Create([]string{execID})
	if err != nil {
		return "", err
	}
	return in.Handle().String(), nil
}

// CreateExecutions implements BatchFactoryRef (in-process, so "one round
// trip" is free — this keeps the local and remote paths symmetric).
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

// Load implements LoadReporter.
func (l *LocalFactoryRef) Load() HostLoad {
	if l.LoadFn == nil {
		return HostLoad{}
	}
	return l.LoadFn()
}

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

// CreateExecution implements ExecutionFactoryRef.
func (r *RemoteFactoryRef) CreateExecution(execID string) (string, error) {
	out, err := r.Stub.Call(ogsi.OpCreateService, execID)
	if err != nil {
		return "", err
	}
	if len(out) != 1 {
		return "", fmt.Errorf("core: CreateService returned %d values", len(out))
	}
	return out[0], nil
}

// CreateExecutions implements BatchFactoryRef: the whole group costs one
// SOAP round trip (the factory's plural CreateServices operation).
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

// ReplicaPolicy decides which replica host instantiates each uncached
// execution in a batch. ids are the uncached execution IDs in request
// order; the result assigns each a replica index in [0, replicas).
type ReplicaPolicy interface {
	Name() string
	Assign(ids []string, replicas int) []int
}

// LoadAwarePolicy is a ReplicaPolicy that wants live per-replica load.
// The Manager calls AssignLoaded with one HostLoad per replica (index-
// aligned with the factories) instead of Assign.
type LoadAwarePolicy interface {
	ReplicaPolicy
	AssignLoaded(ids []string, loads []HostLoad) []int
}

// InterleavePolicy is the paper's policy: round-robin interleaving (ID 1
// on host A, ID 2 on host B, ...) "to ensure as much fairness as possible
// for future requests".
type InterleavePolicy struct{}

// Name implements ReplicaPolicy.
func (InterleavePolicy) Name() string { return "interleave" }

// Assign implements ReplicaPolicy.
func (InterleavePolicy) Assign(ids []string, replicas int) []int {
	out := make([]int, len(ids))
	for i := range ids {
		out[i] = i % replicas
	}
	return out
}

// BlockPolicy assigns contiguous blocks of the batch to each replica —
// the natural alternative the ablation benchmarks compare against.
type BlockPolicy struct{}

// Name implements ReplicaPolicy.
func (BlockPolicy) Name() string { return "block" }

// Assign implements ReplicaPolicy.
func (BlockPolicy) Assign(ids []string, replicas int) []int {
	out := make([]int, len(ids))
	for i := range ids {
		out[i] = i * replicas / len(ids)
	}
	return out
}

// HashPolicy assigns each ID by hash rank: IDs are ordered by their FNV
// hash and dealt round-robin starting from an offset derived from the
// batch's combined hash. Placement is independent of batch order (the
// same set always lands the same way) and balanced within one even for
// adversarial ID sets — a plain hash-mod placement skews under small
// replica counts. The hash-derived starting offset keeps incremental
// workloads spread out too: a single-ID batch lands on hash(id) mod
// replicas (the classic stable placement), not always on replica 0.
type HashPolicy struct{}

// Name implements ReplicaPolicy.
func (HashPolicy) Name() string { return "hash" }

// Assign implements ReplicaPolicy.
func (HashPolicy) Assign(ids []string, replicas int) []int {
	type ranked struct {
		hash uint32
		idx  int
	}
	rs := make([]ranked, len(ids))
	var combined uint32
	for i, id := range ids {
		h := fnv.New32a()
		h.Write([]byte(id))
		rs[i] = ranked{hash: h.Sum32(), idx: i}
		combined ^= rs[i].hash // XOR: order-independent
	}
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].hash != rs[b].hash {
			return rs[a].hash < rs[b].hash
		}
		return ids[rs[a].idx] < ids[rs[b].idx] // deterministic tie-break
	})
	offset := int(combined % uint32(replicas))
	out := make([]int, len(ids))
	for rank, r := range rs {
		out[r.idx] = (offset + rank) % replicas
	}
	return out
}

// LeastLoadedPolicy assigns each ID greedily to the replica with the
// fewest instances (created + in-flight creations + batch assignments so
// far) — load-aware placement from the Manager's own accounting. Without
// load information it degrades to interleaving.
type LeastLoadedPolicy struct{}

// Name implements ReplicaPolicy.
func (LeastLoadedPolicy) Name() string { return "least-loaded" }

// Assign implements ReplicaPolicy (no load feedback: round-robin).
func (LeastLoadedPolicy) Assign(ids []string, replicas int) []int {
	return InterleavePolicy{}.Assign(ids, replicas)
}

// AssignLoaded implements LoadAwarePolicy.
func (LeastLoadedPolicy) AssignLoaded(ids []string, loads []HostLoad) []int {
	score := make([]float64, len(loads))
	for r, l := range loads {
		score[r] = float64(l.Created + l.InFlight)
	}
	return greedyMin(ids, score, func(r int) float64 { return 1 })
}

// AdaptivePolicy weights each replica's queue depth by its observed
// service latency (container worker-pool feedback): a replica twice as
// slow receives half the new instances. With uniform latencies it behaves
// like LeastLoadedPolicy.
type AdaptivePolicy struct{}

// Name implements ReplicaPolicy.
func (AdaptivePolicy) Name() string { return "adaptive" }

// Assign implements ReplicaPolicy (no load feedback: round-robin).
func (AdaptivePolicy) Assign(ids []string, replicas int) []int {
	return InterleavePolicy{}.Assign(ids, replicas)
}

// AssignLoaded implements LoadAwarePolicy. Weights are relative: each
// host's latency is divided by the fleet mean (hosts without a sample get
// weight 1), so uniform fleets stay balanced and only genuinely slower
// hosts shed load.
func (AdaptivePolicy) AssignLoaded(ids []string, loads []HostLoad) []int {
	var sum float64
	var sampled int
	for _, l := range loads {
		if l.LatencyMs > 0 {
			sum += l.LatencyMs
			sampled++
		}
	}
	mean := 1.0
	if sampled > 0 {
		mean = sum / float64(sampled)
	}
	score := make([]float64, len(loads))
	weight := make([]float64, len(loads))
	for r, l := range loads {
		w := 1.0
		if l.LatencyMs > 0 {
			w = l.LatencyMs / mean
		}
		weight[r] = w
		score[r] = float64(l.Created+l.InFlight) * w
	}
	return greedyMin(ids, score, func(r int) float64 { return weight[r] })
}

// greedyMin assigns each ID to the replica with the lowest score, then
// bumps that replica's score by step(r) so subsequent IDs spread out.
// Ties break toward the lowest index, keeping placement deterministic.
func greedyMin(ids []string, score []float64, step func(r int) float64) []int {
	out := make([]int, len(ids))
	for i := range ids {
		best := 0
		for r := 1; r < len(score); r++ {
			if score[r] < score[best] {
				best = r
			}
		}
		out[i] = best
		score[best] += step(best)
	}
	return out
}

// AllPolicyNames lists the selectable replica policies.
var AllPolicyNames = []string{"interleave", "block", "hash", "least-loaded", "adaptive"}

// PolicyByName returns the named replica policy; empty means the paper's
// interleaving.
func PolicyByName(name string) (ReplicaPolicy, error) {
	switch name {
	case "", "interleave":
		return InterleavePolicy{}, nil
	case "block":
		return BlockPolicy{}, nil
	case "hash":
		return HashPolicy{}, nil
	case "least-loaded":
		return LeastLoadedPolicy{}, nil
	case "adaptive":
		return AdaptivePolicy{}, nil
	}
	return nil, fmt.Errorf("core: unknown replica policy %q (have %v)", name, AllPolicyNames)
}

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
// source is replicated on multiple hosts, the Manager distributes
// instantiations across them under its ReplicaPolicy.
//
// A cold batch is created in parallel: missing IDs are grouped by
// assigned replica, each group goes out as one plural CreateServices
// call (for BatchFactoryRefs), and the groups run concurrently. The
// Manager's mutex is never held across the wire — cached-handle lookups
// proceed while creations are in flight, and in-flight markers make
// duplicate requests wait for the first creation instead of re-creating.
type Manager struct {
	policy    ReplicaPolicy
	factories []ExecutionFactoryRef

	mu       sync.Mutex
	cache    map[string]string         // execution ID -> GSH
	inflight map[string]*pendingCreate // execution ID -> in-flight creation
	perHost  map[string]int            // replica host -> instances created
	creating []int                     // per-replica in-flight creation counts
	createMs []float64                 // per-replica EWMA of per-instance creation ms
}

// NewManager builds a Manager over the given replica factories. A nil
// policy defaults to the paper's interleaving.
func NewManager(policy ReplicaPolicy, factories ...ExecutionFactoryRef) (*Manager, error) {
	if len(factories) == 0 {
		return nil, fmt.Errorf("core: manager needs at least one execution factory")
	}
	if policy == nil {
		policy = InterleavePolicy{}
	}
	return &Manager{
		policy:    policy,
		factories: factories,
		cache:     make(map[string]string),
		inflight:  make(map[string]*pendingCreate),
		perHost:   make(map[string]int),
		creating:  make([]int, len(factories)),
		createMs:  make([]float64, len(factories)),
	}, nil
}

// ExecutionHandles returns one GSH per execution ID, creating instances
// for IDs seen for the first time and serving the rest from the cache.
// Uncached IDs are distributed across the replica factories by the policy
// and created concurrently, one (batched) factory call per replica; IDs
// whose creation another request already started are waited on, not
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
	var groups [][]string
	if len(newIDs) > 0 {
		assign := m.assignLocked(newIDs)
		groups = make([][]string, len(m.factories))
		for j, id := range newIDs {
			groups[assign[j]] = append(groups[assign[j]], id)
		}
		for r, group := range groups {
			m.creating[r] += len(group)
		}
	}
	m.mu.Unlock()

	// Create the new groups concurrently across replicas, no lock held
	// over the wire.
	for r, group := range groups {
		if len(group) == 0 {
			continue
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

// assignLocked distributes new IDs across replicas under the policy,
// feeding load-aware policies a per-replica HostLoad snapshot (Manager
// accounting merged with container worker-pool feedback when the factory
// ref exposes it). Caller holds m.mu.
func (m *Manager) assignLocked(ids []string) []int {
	la, ok := m.policy.(LoadAwarePolicy)
	if !ok {
		return m.policy.Assign(ids, len(m.factories))
	}
	loads := make([]HostLoad, len(m.factories))
	for r, f := range m.factories {
		l := HostLoad{
			Created:   m.perHost[f.Host()] + m.creating[r],
			LatencyMs: m.createMs[r],
		}
		if lr, ok := f.(LoadReporter); ok {
			live := lr.Load()
			l.InFlight = live.InFlight
			l.Queued, l.Executing = live.Queued, live.Executing
			if live.LatencyMs > 0 {
				l.LatencyMs = live.LatencyMs
			}
		}
		loads[r] = l
	}
	return la.AssignLoaded(ids, loads)
}

// createOn instantiates one replica's group of IDs — a single plural call
// when the factory ref is a BatchFactoryRef, per-ID calls otherwise — then
// publishes the outcome to the cache and every waiter.
func (m *Manager) createOn(r int, group []string, pending map[string]*pendingCreate) {
	f := m.factories[r]
	start := time.Now()
	var handles []string // created prefix of group
	var err error
	if bf, ok := f.(BatchFactoryRef); ok {
		handles, err = bf.CreateExecutions(group)
		if err != nil {
			handles = nil // plural call is all-or-nothing
		}
	} else {
		handles = make([]string, 0, len(group))
		for _, id := range group {
			h, cerr := f.CreateExecution(id)
			if cerr != nil {
				err = cerr
				break
			}
			handles = append(handles, h)
		}
	}
	elapsed := time.Since(start)

	m.mu.Lock()
	m.creating[r] -= len(group)
	if n := len(handles); n > 0 {
		perMs := float64(elapsed) / float64(time.Millisecond) / float64(n)
		if m.createMs[r] == 0 {
			m.createMs[r] = perMs
		} else {
			m.createMs[r] = 0.8*m.createMs[r] + 0.2*perMs
		}
	}
	for i, id := range group {
		p := pending[id]
		if i < len(handles) {
			p.gsh = handles[i]
			m.cache[id] = handles[i]
			m.perHost[f.Host()]++
		} else {
			p.err = fmt.Errorf("core: create execution %q on %s: %w", id, f.Host(), err)
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

// Forget drops one cached instance handle, e.g. after its instance is
// destroyed by lifetime management.
func (m *Manager) Forget(execID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cache, execID)
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
	loads := make([]string, 0, len(m.factories))
	for _, f := range m.factories {
		hosts = append(hosts, f.Host())
		var l HostLoad
		if lr, ok := f.(LoadReporter); ok {
			l = lr.Load()
		}
		loads = append(loads, fmt.Sprintf("host=%s|queued=%d|executing=%d|latencyMs=%.3f",
			f.Host(), l.Queued, l.Executing, l.LatencyMs))
	}
	return map[string][]string{
		"policy":       {m.policy.Name()},
		"replicaHosts": hosts,
		"replicaLoads": loads,
		"cachedCount":  {strconv.Itoa(len(m.cache))},
		"replicaCount": {strconv.Itoa(len(m.factories))},
	}
}
