// Package mapping implements PPerfGrid's Mapping Layer: wrapper modules
// that translate the semantic-layer operations of Tables 1 and 2 into each
// data store's native query mechanism, and translate the results back into
// the PPerfGrid formats (Figure 4 of the paper).
//
// Four wrapper families are provided, covering the paper's data sources:
//
//   - WideTableWrapper — single-table relational store (the HPL layout),
//     queried with SQL text against a minidb database.
//   - StarWrapper — five-table relational star schema (the SMG98 layout),
//     queried with dimension lookups plus a fact-table join per getPR.
//   - FlatFileWrapper — flat ASCII text files (the Presta RMA layout),
//     re-parsed per query by the custom parser in package flatfile.
//   - XMLWrapper — a native-XML store, re-decoded per query.
//
// Every wrapper answers getPR through one read method,
// ExecutionWrapper.AppendPerformanceResults.
//
// The Latency decorator adds a configurable per-query delay to any
// wrapper, calibrating the mapping-layer cost to the paper's 2004-era
// testbed (440 MHz UltraSPARC hosts and PostgreSQL 7.4.1) so the Table 4
// overhead ratios are reproducible on modern hardware; README.md
// documents this substitution.
package mapping

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pperfgrid/internal/perfdata"
)

// ApplicationWrapper is the mapping-layer contract behind an Application
// semantic object. Its operations correspond one-to-one with the
// Application PortType (Table 1); the semantic layer adds Grid service
// instance management on top.
type ApplicationWrapper interface {
	// AppInfo returns general application metadata (name, version, ...).
	AppInfo() ([]perfdata.KV, error)
	// NumExecs returns the number of unique executions available.
	NumExecs() (int, error)
	// ExecQueryParams returns the attributes that describe executions,
	// each with its set of unique values.
	ExecQueryParams() ([]perfdata.Attribute, error)
	// AllExecIDs returns every unique execution ID.
	AllExecIDs() ([]string, error)
	// ExecIDs returns the IDs of executions whose attribute equals value.
	ExecIDs(attr, value string) ([]string, error)
	// ExecutionWrapper opens the execution-level wrapper for one ID.
	ExecutionWrapper(id string) (ExecutionWrapper, error)
}

// ExecutionWrapper is the mapping-layer contract behind an Execution
// semantic object, mirroring the Execution PortType (Table 2).
//
// getPR has one read method, AppendPerformanceResults (see
// ResultAppender): the Semantic Layer calls nothing else to fetch
// results. PerformanceResults is the same query materialized into a fresh
// slice, a convenience for direct callers.
type ExecutionWrapper interface {
	// Info returns general execution metadata.
	Info() ([]perfdata.KV, error)
	// Foci returns the unique focus values, sorted, no duplicates.
	Foci() ([]string, error)
	// Metrics returns the unique metric names, sorted, no duplicates.
	Metrics() ([]string, error)
	// Types returns the unique collector types, sorted, no duplicates.
	Types() ([]string, error)
	// TimeStartEnd returns the execution's start and end times.
	TimeStartEnd() (perfdata.TimeRange, error)
	// PerformanceResults returns the results matching the query:
	// AppendPerformanceResults(q, nil), or nil and the error.
	PerformanceResults(q perfdata.Query) ([]perfdata.Result, error)
	ResultAppender
}

// ErrNoSuchExecution reports a query for an execution ID the store does
// not contain.
var ErrNoSuchExecution = errors.New("mapping: no such execution")

// ErrNotWritable reports a publish against a wrapper whose store has no
// write path (the read-only XML store, or a decorator over one).
var ErrNotWritable = errors.New("mapping: store does not support publishing")

// ResultWriter is the write-path extension of ExecutionWrapper: live
// ingestion of new performance results into an existing execution. The
// star, wide-table, flat-file, and Memory wrappers implement it; the XML
// wrapper does not (its store is a read-only document).
//
// Contract:
//
//   - PublishResults appends rs to the execution's result set in argument
//     order. On a nil error return the results are durable in the store
//     and visible to every subsequent read through any wrapper over it —
//     a store rebuilt from scratch with the extended dataset must answer
//     every query identically (the differential write-oracle the tests
//     pin).
//   - The wrapper copies what it retains; the caller keeps ownership of
//     rs and its backing array.
//   - Calls for the same store may run concurrently with reads and with
//     each other; the wrapper serializes internally as needed. Results
//     of a failed call may be partially applied (matching minidb INSERT's
//     partial-progress semantics) but never torn within one result.
//   - Invalidation is the caller's job: the Semantic Layer's one write
//     path (the execution's replica group in package core, behind both
//     publishPR and core.Site.PublishResults) writes every replica's
//     wrapper and then bumps the epoch and purges the cache of every
//     live instance; wrappers only make the store itself consistent
//     (indexes maintained, ordered indexes re-marked stale).
type ResultWriter interface {
	PublishResults(rs []perfdata.Result) error
}

// ResultAppender is the getPR read method every ExecutionWrapper has.
// AppendPerformanceResults appends every result matching q to dst
// (growing it as needed) and returns the extended slice, in the store's
// native order. The relational wrappers decode minidb's column-oriented
// ValueBatches straight into dst, the flat-file wrapper filters records
// during its byte-level re-parse, and the XML wrapper filters its
// re-decoded document.
//
// Ownership: the returned slice (and its backing array, which may have
// been reallocated away from dst's) belongs to the caller; the wrapper
// retains no reference. Callers that recycle dst through the arena pool
// below therefore know the backing array is theirs to reuse.
type ResultAppender interface {
	AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error)
}

// collect materializes an appending query into a fresh slice: the body of
// every wrapper's PerformanceResults.
func collect(a ResultAppender, q perfdata.Query) ([]perfdata.Result, error) {
	rs, err := a.AppendPerformanceResults(q, nil)
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// resultArenaPool recycles []perfdata.Result backing arrays for result
// sets whose lifetime ends inside one request — the cache-off cold wire
// path, which decodes a result set, encodes it into the response
// envelope, and drops it. Pooling the arrays stops that steady-state
// workload from allocating one arena per query.
var resultArenaPool = sync.Pool{New: func() any { return new([]perfdata.Result) }}

// GetResultArena hands out a pooled arena with empty-slice contents and
// capacity at least hint. The pointer box travels with the arena: append
// through `*p`, write the grown slice back into `*p`, and hand the same
// pointer to PutResultArena — no per-cycle box allocation. Pool only
// when nothing retains the slice (never for results handed to a cache
// or a caller).
func GetResultArena(hint int) *[]perfdata.Result {
	p := resultArenaPool.Get().(*[]perfdata.Result)
	if cap(*p) < hint {
		*p = make([]perfdata.Result, 0, hint)
	}
	*p = (*p)[:0]
	return p
}

// PutResultArena clears the arena (dropping its string references so the
// pool pins no store data) and recycles it.
func PutResultArena(p *[]perfdata.Result) {
	rs := (*p)[:cap(*p)]
	clear(rs)
	*p = rs[:0]
	resultArenaPool.Put(p)
}

// Latency decorates an ApplicationWrapper with a fixed per-operation
// delay, modelling the paper's slower testbed. Execution wrappers opened
// through it inherit the delay.
type Latency struct {
	Wrapped ApplicationWrapper
	// PerQuery is added to every wrapper operation.
	PerQuery time.Duration
	// PerResult is added per returned performance result, modelling
	// row-fetch cost.
	PerResult time.Duration
}

// WithLatency wraps w with per-query and per-result delays.
func WithLatency(w ApplicationWrapper, perQuery, perResult time.Duration) *Latency {
	return &Latency{Wrapped: w, PerQuery: perQuery, PerResult: perResult}
}

func (l *Latency) pause() {
	if l.PerQuery > 0 {
		time.Sleep(l.PerQuery)
	}
}

// AppInfo implements ApplicationWrapper.
func (l *Latency) AppInfo() ([]perfdata.KV, error) { l.pause(); return l.Wrapped.AppInfo() }

// NumExecs implements ApplicationWrapper.
func (l *Latency) NumExecs() (int, error) { l.pause(); return l.Wrapped.NumExecs() }

// ExecQueryParams implements ApplicationWrapper.
func (l *Latency) ExecQueryParams() ([]perfdata.Attribute, error) {
	l.pause()
	return l.Wrapped.ExecQueryParams()
}

// AllExecIDs implements ApplicationWrapper.
func (l *Latency) AllExecIDs() ([]string, error) { l.pause(); return l.Wrapped.AllExecIDs() }

// ExecIDs implements ApplicationWrapper.
func (l *Latency) ExecIDs(attr, value string) ([]string, error) {
	l.pause()
	return l.Wrapped.ExecIDs(attr, value)
}

// ExecutionWrapper implements ApplicationWrapper.
func (l *Latency) ExecutionWrapper(id string) (ExecutionWrapper, error) {
	ew, err := l.Wrapped.ExecutionWrapper(id)
	if err != nil {
		return nil, err
	}
	return &latencyExec{wrapped: ew, l: l}, nil
}

type latencyExec struct {
	wrapped ExecutionWrapper
	l       *Latency
}

func (e *latencyExec) Info() ([]perfdata.KV, error) { e.l.pause(); return e.wrapped.Info() }
func (e *latencyExec) Foci() ([]string, error)      { e.l.pause(); return e.wrapped.Foci() }
func (e *latencyExec) Metrics() ([]string, error)   { e.l.pause(); return e.wrapped.Metrics() }
func (e *latencyExec) Types() ([]string, error)     { e.l.pause(); return e.wrapped.Types() }
func (e *latencyExec) TimeStartEnd() (perfdata.TimeRange, error) {
	e.l.pause()
	return e.wrapped.TimeStartEnd()
}

func (e *latencyExec) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	return collect(e, q)
}

// AppendPerformanceResults forwards to the wrapped wrapper. The
// per-result delay is charged in aggregate after the underlying query
// returns (and has released the store's read lock): sleeping per row
// would hold minidb's read lock for the whole calibrated latency and
// serialize every concurrent query on the store.
func (e *latencyExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	e.l.pause()
	before := len(dst)
	dst, err := e.wrapped.AppendPerformanceResults(q, dst)
	if err != nil {
		return dst, err
	}
	if n := len(dst) - before; e.l.PerResult > 0 && n > 0 {
		time.Sleep(time.Duration(n) * e.l.PerResult)
	}
	return dst, nil
}

// PublishResults implements ResultWriter, forwarding to the wrapped
// execution wrapper's writer after the per-operation pause (a write costs
// a store round trip just like a query on the calibrated testbed).
func (e *latencyExec) PublishResults(rs []perfdata.Result) error {
	w, ok := e.wrapped.(ResultWriter)
	if !ok {
		return fmt.Errorf("%w: %T", ErrNotWritable, e.wrapped)
	}
	e.l.pause()
	return w.PublishResults(rs)
}

// memoryExec is the generic in-memory execution representation shared by
// the file-backed wrappers and the Memory reference wrapper.
type memoryExec struct {
	id      string
	attrs   map[string]string
	time    perfdata.TimeRange
	results []perfdata.Result
}

func (e *memoryExec) Info() ([]perfdata.KV, error) {
	ex := perfdata.Execution{ID: e.id, Attrs: e.attrs}
	return ex.Info(), nil
}

func (e *memoryExec) Foci() ([]string, error) {
	vals := make([]string, len(e.results))
	for i, r := range e.results {
		vals[i] = r.Focus
	}
	return perfdata.UniqueSorted(vals), nil
}

func (e *memoryExec) Metrics() ([]string, error) {
	vals := make([]string, len(e.results))
	for i, r := range e.results {
		vals[i] = r.Metric
	}
	return perfdata.UniqueSorted(vals), nil
}

func (e *memoryExec) Types() ([]string, error) {
	vals := make([]string, len(e.results))
	for i, r := range e.results {
		vals[i] = r.Type
	}
	return perfdata.UniqueSorted(vals), nil
}

func (e *memoryExec) TimeStartEnd() (perfdata.TimeRange, error) { return e.time, nil }

func (e *memoryExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	for _, r := range e.results {
		if q.Matches(r) {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// snapshotExec is an execution wrapper that answers every operation from
// a freshly loaded snapshot: the XML wrapper and Memory use it as is, and
// the flat-file wrapper overrides the operations its store answers more
// cheaply.
type snapshotExec func() (*memoryExec, error)

// viaSnapshot loads a snapshot and runs one operation on it.
func viaSnapshot[T any](load snapshotExec, op func(*memoryExec) (T, error)) (T, error) {
	m, err := load()
	if err != nil {
		var zero T
		return zero, err
	}
	return op(m)
}

func (load snapshotExec) Info() ([]perfdata.KV, error) { return viaSnapshot(load, (*memoryExec).Info) }
func (load snapshotExec) Foci() ([]string, error)      { return viaSnapshot(load, (*memoryExec).Foci) }
func (load snapshotExec) Metrics() ([]string, error)   { return viaSnapshot(load, (*memoryExec).Metrics) }
func (load snapshotExec) Types() ([]string, error)     { return viaSnapshot(load, (*memoryExec).Types) }
func (load snapshotExec) TimeStartEnd() (perfdata.TimeRange, error) {
	return viaSnapshot(load, (*memoryExec).TimeStartEnd)
}
func (load snapshotExec) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	return collect(load, q)
}
func (load snapshotExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	m, err := load()
	if err != nil {
		return dst, err
	}
	return m.AppendPerformanceResults(q, dst)
}

// execAttrs walks a store's executions in order, handing each one's ID
// and attributes to visit: the one loop behind every wrapper's
// ExecQueryParams and ExecIDs outside the relational stores.
type execAttrs func(visit func(id string, attrs map[string]string)) error

// queryParams implements ExecQueryParams: every attribute name, sorted,
// with its unique values.
func (each execAttrs) queryParams() ([]perfdata.Attribute, error) {
	byName := map[string][]string{}
	err := each(func(_ string, attrs map[string]string) {
		for n, v := range attrs {
			byName[n] = append(byName[n], v)
		}
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]perfdata.Attribute, len(names))
	for i, n := range names {
		out[i] = perfdata.Attribute{Name: n, Values: perfdata.UniqueSorted(byName[n])}
	}
	return out, nil
}

// matching implements ExecIDs: the IDs of executions whose attr equals
// value, in store order.
func (each execAttrs) matching(attr, value string) ([]string, error) {
	var out []string
	err := each(func(id string, attrs map[string]string) {
		if v, ok := attrs[attr]; ok && v == value {
			out = append(out, id)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Memory is the in-memory reference wrapper: the simplest correct
// implementation of the mapping contract, used as a behavioural oracle in
// cross-wrapper tests and for small ad-hoc datasets.
type Memory struct {
	Name  string
	Meta  []perfdata.KV
	Execs []MemoryExecution

	// mu guards each execution's Results slice header: PublishResults
	// swaps it under the write lock, live views copy it under the read
	// lock. Element storage needs no guard — readers only index below
	// the length their header snapshot carries, and appends never write
	// below it.
	mu sync.RWMutex
}

// MemoryExecution is one execution of a Memory wrapper.
type MemoryExecution struct {
	ID      string
	Attrs   map[string]string
	Time    perfdata.TimeRange
	Results []perfdata.Result
}

// AppInfo implements ApplicationWrapper.
func (m *Memory) AppInfo() ([]perfdata.KV, error) {
	out := make([]perfdata.KV, len(m.Meta))
	copy(out, m.Meta)
	return out, nil
}

// NumExecs implements ApplicationWrapper.
func (m *Memory) NumExecs() (int, error) { return len(m.Execs), nil }

// attrs walks the executions' attributes.
func (m *Memory) attrs(visit func(id string, attrs map[string]string)) error {
	for _, e := range m.Execs {
		visit(e.ID, e.Attrs)
	}
	return nil
}

// ExecQueryParams implements ApplicationWrapper.
func (m *Memory) ExecQueryParams() ([]perfdata.Attribute, error) {
	return execAttrs(m.attrs).queryParams()
}

// AllExecIDs implements ApplicationWrapper.
func (m *Memory) AllExecIDs() ([]string, error) {
	out := make([]string, len(m.Execs))
	for i, e := range m.Execs {
		out[i] = e.ID
	}
	return out, nil
}

// ExecIDs implements ApplicationWrapper.
func (m *Memory) ExecIDs(attr, value string) ([]string, error) {
	return execAttrs(m.attrs).matching(attr, value)
}

// ExecutionWrapper implements ApplicationWrapper. The returned wrapper
// reads through to the live MemoryExecution on every call, so stores that
// are appended to while being served (the paper's streamed-from-a-running-
// application case) expose fresh data after each update notification.
func (m *Memory) ExecutionWrapper(id string) (ExecutionWrapper, error) {
	for i := range m.Execs {
		if m.Execs[i].ID == id {
			e := &m.Execs[i]
			return &liveMemoryExec{snapshotExec: func() (*memoryExec, error) {
				m.mu.RLock()
				results := e.Results
				m.mu.RUnlock()
				return &memoryExec{id: e.ID, attrs: e.Attrs, time: e.Time, results: results}, nil
			}, m: m, e: e}, nil
		}
	}
	return nil, fmt.Errorf("%w: %q in %s", ErrNoSuchExecution, id, m.Name)
}

// liveMemoryExec views a MemoryExecution through a pointer, snapshotting
// its results per call.
type liveMemoryExec struct {
	snapshotExec
	m *Memory
	e *MemoryExecution
}

// PublishResults implements ResultWriter by appending to the live
// execution. Snapshots taken before the publish keep serving their old
// length; snapshots taken after it see the new results.
func (l *liveMemoryExec) PublishResults(rs []perfdata.Result) error {
	l.m.mu.Lock()
	l.e.Results = append(l.e.Results, rs...)
	l.m.mu.Unlock()
	return nil
}
