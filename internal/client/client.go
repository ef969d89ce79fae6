// Package client implements PPerfGrid's Virtualization Layer: the consumer
// side of the system (section 5.5 of the paper). It provides programmatic
// equivalents of the PPerfGrid client's four GUI panels:
//
//   - Service publishing and discovery against the UDDI registry
//     (Figure 8) — Discover* and Bind*.
//   - The Application Query Panel (Figure 9) — attribute discovery and
//     batched execution queries, each attribute/value pair a separate
//     query OR'd together.
//   - The Execution Query Panel (Figure 10) — metric/foci/type/time
//     discovery and parallel Performance Result queries, one goroutine per
//     Execution instance like the paper's one-thread-per-query client.
//   - Visualization (Figure 11) — package viz renders the results.
//
// A Binding presents a remote Application Grid service as a local object;
// the same interface covers the paper's future-work "local bypass", where
// a co-located client skips the Services Layer entirely. Both are reached
// through one contract, ogsi.Server: a remote instance through its
// container.Stub, a co-located one as the *ogsi.Instance itself. The
// client always passes a nil buffer, so every reply is string values.
//
// Dialing is idempotent: a session keeps one stub per Grid Service
// Handle, so repeated discovery and querying share the pooled persistent
// HTTP connections underneath. Large getPR result sets can be consumed
// incrementally through PerformanceResultsPaged, a Rows-style iterator
// over the paged wire protocol; QueryPerformanceResults accepts a
// PageSize option to route a whole parallel batch through it.
package client

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/registry"
)

// Client is a PPerfGrid consumer session.
type Client struct {
	reg *registry.Client

	mu        sync.Mutex
	headers   container.HeaderProvider
	bindings  map[string]*Binding        // key: org/name
	stubs     map[string]*container.Stub // key: GSH string; dialing is idempotent
	callbacks *callbackHub               // non-nil once EnableCallbacks succeeds
}

// New creates a client session against the registry at host:port.
func New(registryHost string) *Client {
	return &Client{
		reg:      registry.Connect(registryHost),
		bindings: make(map[string]*Binding),
		stubs:    make(map[string]*container.Stub),
	}
}

// NewWithoutRegistry creates a client session for direct binding (no
// registry discovery), e.g. when factory handles are known out of band.
func NewWithoutRegistry() *Client {
	return &Client{bindings: make(map[string]*Binding), stubs: make(map[string]*container.Stub)}
}

// SetCredential installs a SOAP header provider (e.g. a gsi credential's
// HeaderProvider) applied to every remote call made by this client —
// including calls through stubs the session has already dialed.
func (c *Client) SetCredential(p container.HeaderProvider) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.headers = p
	for _, s := range c.stubs {
		s.SetHeaderProvider(p)
	}
}

// DiscoverOrganizations queries the registry by name substring; empty
// returns all (the Figure 8 search box).
func (c *Client) DiscoverOrganizations(query string) ([]registry.Organization, error) {
	if c.reg == nil {
		return nil, fmt.Errorf("client: no registry configured")
	}
	return c.reg.FindOrganizations(query)
}

// DiscoverServices lists an organization's published services.
func (c *Client) DiscoverServices(org string) ([]registry.ServiceEntry, error) {
	if c.reg == nil {
		return nil, fmt.Errorf("client: no registry configured")
	}
	return c.reg.Services(org)
}

// maxCachedStubs bounds the session's stub cache. Every transient
// Execution instance has a unique GSH, so a long-lived session that keeps
// discovering instances would otherwise accumulate stubs forever; past
// the bound the cache restarts empty (stubs are cheap to redial, and the
// persistent connections live in the shared transport, not the stub).
const maxCachedStubs = 1024

// newStub returns the session's stub for a handle, dialing on first use.
// Dialing is idempotent: repeated resolutions of the same GSH share one
// stub (and therefore the pooled persistent HTTP connections behind it)
// instead of building a fresh stub per call.
func (c *Client) newStub(h gsh.Handle) *container.Stub {
	key := h.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.stubs[key]; ok {
		return s
	}
	if len(c.stubs) >= maxCachedStubs {
		c.stubs = make(map[string]*container.Stub)
	}
	s := container.Dial(h)
	if c.headers != nil {
		s.SetHeaderProvider(c.headers)
	}
	c.stubs[key] = s
	return s
}

// remoteResolver resolves handles to credentialed SOAP stubs.
func (c *Client) remoteResolver(handle string) (ogsi.Server, error) {
	h, err := gsh.Parse(handle)
	if err != nil {
		return nil, err
	}
	return c.newStub(h), nil
}

// Bind binds to a discovered service: it dials the Application factory,
// calls CreateService, and adds the resulting Application instance to the
// client's current bindings (the Figure 8 "Current Bindings" list).
func (c *Client) Bind(entry registry.ServiceEntry) (*Binding, error) {
	h, err := gsh.Parse(entry.FactoryHandle)
	if err != nil {
		return nil, fmt.Errorf("client: bind %s: %w", entry.Name, err)
	}
	factory := c.newStub(h)
	app, err := factory.CreateService()
	if err != nil {
		return nil, fmt.Errorf("client: bind %s: %w", entry.Name, err)
	}
	b := &Binding{
		Entry:   entry,
		app:     app,
		resolve: c.remoteResolver,
	}
	c.addBinding(b)
	return b, nil
}

// BindFactory binds directly to an Application factory handle, without
// registry discovery.
func (c *Client) BindFactory(name string, factory gsh.Handle) (*Binding, error) {
	return c.Bind(registry.ServiceEntry{Name: name, FactoryHandle: factory.String()})
}

// BindLocal binds to a co-located site, skipping the Services Layer — the
// paper's future-work local-bypass optimization. Operations are served by
// the site's *ogsi.Instance values in-process, with no SOAP marshalling.
func (c *Client) BindLocal(name string, site *core.Site) (*Binding, error) {
	hosting := site.Containers()[0].Hosting()
	resolve := func(handle string) (ogsi.Server, error) {
		h, err := gsh.Parse(handle)
		if err != nil {
			return nil, err
		}
		for _, cont := range site.Containers() {
			if in, ok := cont.Hosting().LookupHandle(h); ok {
				return in, nil
			}
		}
		return nil, fmt.Errorf("client: handle %s not hosted by local site", handle)
	}
	// Create the Application instance through the local factory.
	fin, ok := hosting.LookupHandle(site.ApplicationFactoryHandle())
	if !ok {
		return nil, fmt.Errorf("client: local site has no application factory")
	}
	out, err := fin.Invoke(ogsi.OpCreateService, nil)
	if err != nil {
		return nil, err
	}
	app, err := resolve(out[0])
	if err != nil {
		return nil, err
	}
	b := &Binding{
		Entry:   registry.ServiceEntry{Name: name, FactoryHandle: site.ApplicationFactoryHandle().String()},
		app:     app,
		resolve: resolve,
		local:   true,
	}
	c.addBinding(b)
	return b, nil
}

func (c *Client) addBinding(b *Binding) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bindings[b.Key()] = b
}

// Bindings returns the current bindings, sorted by key.
func (c *Client) Bindings() []*Binding {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Binding, 0, len(c.bindings))
	for _, b := range c.bindings {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Unbind removes a binding from the session.
func (c *Client) Unbind(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.bindings, key)
}

// Binding is one bound Application Grid service instance.
type Binding struct {
	Entry   registry.ServiceEntry
	app     ogsi.Server
	resolve func(handle string) (ogsi.Server, error)
	local   bool
}

// Key identifies the binding in the session.
func (b *Binding) Key() string {
	if b.Entry.Organization != "" {
		return b.Entry.Organization + "/" + b.Entry.Name
	}
	return b.Entry.Name
}

// Local reports whether the binding bypasses the Services Layer.
func (b *Binding) Local() bool { return b.local }

// AppInfo returns the application's metadata.
func (b *Binding) AppInfo() ([]perfdata.KV, error) {
	out, err := ogsi.Invoke(context.Background(), b.app, core.OpGetAppInfo)
	if err != nil {
		return nil, err
	}
	return perfdata.ParseKVs(out)
}

// NumExecs returns the number of available executions.
func (b *Binding) NumExecs() (int, error) {
	out, err := ogsi.Invoke(context.Background(), b.app, core.OpGetNumExecs)
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("client: getNumExecs returned %d values", len(out))
	}
	return strconv.Atoi(out[0])
}

// ExecQueryParams returns the execution-describing attributes and their
// value sets — the Application Query Panel's attribute discovery.
func (b *Binding) ExecQueryParams() ([]perfdata.Attribute, error) {
	rows, err := ogsi.Invoke(context.Background(), b.app, core.OpGetExecQueryParams)
	if err != nil {
		return nil, err
	}
	out := make([]perfdata.Attribute, len(rows))
	for i, row := range rows {
		a, err := perfdata.ParseAttribute(row)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// AttrQuery is one Application Query Panel row: executions where
// Attribute = Value.
type AttrQuery struct {
	Attribute string
	Value     string
}

// QueryExecutions runs a batch of attribute queries (OR semantics, like
// "stringing 'OR' terms together in SQL" per section 5.3.1.2) and returns
// the deduplicated Execution references. An empty batch returns all
// executions. The attribute queries go out concurrently — each already
// resolves its matching Execution instances in one Manager round trip
// server-side, so a multi-row Application Query Panel batch costs one
// parallel wave of calls, not a sequential chain.
func (b *Binding) QueryExecutions(queries []AttrQuery) ([]*ExecutionRef, error) {
	var handles []string
	if len(queries) == 0 {
		out, err := ogsi.Invoke(context.Background(), b.app, core.OpGetAllExecs)
		if err != nil {
			return nil, err
		}
		handles = out
	} else {
		outs := make([][]string, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for qi, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[qi], errs[qi] = ogsi.Invoke(context.Background(), b.app, core.OpGetExecs, q.Attribute, q.Value)
			}()
		}
		wg.Wait()
		// Deduplicate in query order, so results are deterministic
		// regardless of which call finished first.
		seen := map[string]bool{}
		for qi, q := range queries {
			if errs[qi] != nil {
				return nil, fmt.Errorf("client: getExecs(%s,%s): %w", q.Attribute, q.Value, errs[qi])
			}
			for _, h := range outs[qi] {
				if !seen[h] {
					seen[h] = true
					handles = append(handles, h)
				}
			}
		}
	}
	return b.ResolveExecutions(handles)
}

// ResolveExecutions turns a batch of Execution GSH strings into bound
// references in input order — the handle-resolution step before a
// QueryPerformanceResults fan-out. Resolution is session-local (stubs are
// dialed lazily and idempotently), so the batch costs no wire traffic.
func (b *Binding) ResolveExecutions(handles []string) ([]*ExecutionRef, error) {
	refs := make([]*ExecutionRef, len(handles))
	for i, h := range handles {
		caller, err := b.resolve(h)
		if err != nil {
			return nil, err
		}
		parsed, err := gsh.Parse(h)
		if err != nil {
			return nil, err
		}
		refs[i] = &ExecutionRef{Binding: b, Handle: parsed, exec: caller}
	}
	return refs, nil
}

// ExecutionRef is a bound Execution Grid service instance.
type ExecutionRef struct {
	Binding *Binding
	Handle  gsh.Handle
	exec    ogsi.Server
}

// Call exposes raw operations (e.g. FindServiceData) on the instance.
func (e *ExecutionRef) Call(op string, params ...string) ([]string, error) {
	return ogsi.Invoke(context.Background(), e.exec, op, params...)
}

// Info returns the execution's metadata.
func (e *ExecutionRef) Info() ([]perfdata.KV, error) {
	return e.InfoContext(context.Background())
}

// InfoContext is Info bounded by a context.
func (e *ExecutionRef) InfoContext(ctx context.Context) ([]perfdata.KV, error) {
	out, err := ogsi.Invoke(ctx, e.exec, core.OpGetInfo)
	if err != nil {
		return nil, err
	}
	return perfdata.ParseKVs(out)
}

// Foci returns the execution's unique focus values.
func (e *ExecutionRef) Foci() ([]string, error) { return e.Call(core.OpGetFoci) }

// Metrics returns the execution's unique metric names.
func (e *ExecutionRef) Metrics() ([]string, error) { return e.Call(core.OpGetMetrics) }

// Types returns the execution's unique collector types.
func (e *ExecutionRef) Types() ([]string, error) { return e.Call(core.OpGetTypes) }

// TimeStartEnd returns the execution's time range.
func (e *ExecutionRef) TimeStartEnd() (perfdata.TimeRange, error) {
	out, err := e.Call(core.OpGetTimeStartEnd)
	if err != nil {
		return perfdata.TimeRange{}, err
	}
	if len(out) != 2 {
		return perfdata.TimeRange{}, fmt.Errorf("client: getTimeStartEnd returned %d values", len(out))
	}
	start, err1 := strconv.ParseFloat(out[0], 64)
	end, err2 := strconv.ParseFloat(out[1], 64)
	if err1 != nil || err2 != nil {
		return perfdata.TimeRange{}, fmt.Errorf("client: bad time values %v", out)
	}
	return perfdata.TimeRange{Start: start, End: end}, nil
}

// PublishResults publishes Performance Results into this execution's
// data store — the live-ingestion write path (publishPR). On success the
// results are immediately visible to subsequent queries from any client;
// the service never serves a pre-write cached envelope afterwards. It
// returns the number of results the service reports as published.
func (e *ExecutionRef) PublishResults(rs []perfdata.Result) (int, error) {
	out, err := e.Call(core.OpPublishPR, perfdata.EncodeResults(rs)...)
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("client: publishPR returned %d values", len(out))
	}
	return strconv.Atoi(out[0])
}

// PerformanceResults runs one getPR query against this execution.
func (e *ExecutionRef) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	return e.PerformanceResultsContext(context.Background(), q)
}

// PerformanceResultsContext runs one getPR query bounded by a context:
// the deadline or cancellation aborts the wire round trip in flight —
// the per-attempt budget the federation engine's hedges and retries are
// built on.
func (e *ExecutionRef) PerformanceResultsContext(ctx context.Context, q perfdata.Query) ([]perfdata.Result, error) {
	out, err := ogsi.Invoke(ctx, e.exec, core.OpGetPR, q.WireParams()...)
	if err != nil {
		return nil, err
	}
	return perfdata.ParseResults(out)
}

// PerformanceResultsPaged runs one getPR query through the paged wire
// protocol and returns a Rows-style iterator: results stream to the caller
// page by page instead of arriving in one giant envelope. pageSize <= 0
// uses the service's default. The local bypass answers a paged call as a
// single terminal page, so callers need not special-case it.
func (e *ExecutionRef) PerformanceResultsPaged(q perfdata.Query, pageSize int) *PRRows {
	return &PRRows{exec: e.exec, params: q.WireParams(), pageSize: pageSize}
}

// PRRows iterates a paged getPR result set, fetching pages lazily:
//
//	rows := ref.PerformanceResultsPaged(q, 512)
//	for rows.Next() {
//		use(rows.Result())
//	}
//	if err := rows.Err(); err != nil { ... }
type PRRows struct {
	exec     ogsi.Server
	params   []string
	pageSize int

	page    []string // undecoded remainder of the current page
	cursor  string   // server-side continuation token, "" when exhausted
	started bool
	done    bool
	cur     perfdata.Result
	err     error
}

// Next advances to the next result, fetching the next page from the
// service when the current one is exhausted. It returns false at the end
// of the set or on error (check Err).
func (r *PRRows) Next() bool {
	if r.err != nil || r.done {
		return false
	}
	for len(r.page) == 0 {
		if r.started && r.cursor == "" {
			r.done = true
			return false
		}
		if err := r.fetch(); err != nil {
			r.err = err
			r.done = true
			return false
		}
	}
	// The index-walking parser decodes the wire string in place — the
	// result's fields are substrings of the page entry, so iterating a
	// paged set produces no per-result parse garbage.
	if err := perfdata.ParseResultInto(r.page[0], &r.cur); err != nil {
		r.err = err
		r.done = true
		return false
	}
	r.page = r.page[1:]
	return true
}

// fetch retrieves the next page: the first opens the result set, later
// ones continue it by cursor.
func (r *PRRows) fetch() error {
	c := ogsi.Call{Op: core.OpGetPR, Params: r.params, Paged: true, Cursor: r.cursor, Limit: r.pageSize}
	reply, err := r.exec.Serve(context.Background(), c, nil)
	if err != nil {
		return err
	}
	r.page, r.cursor, r.started = reply.Values, reply.Next, true
	return nil
}

// Result returns the row Next advanced to.
func (r *PRRows) Result() perfdata.Result { return r.cur }

// Err returns the first error encountered while iterating.
func (r *PRRows) Err() error { return r.err }

// Close abandons the iteration. The server retires its cursor when the
// set is read to the end; an abandoned cursor ages out of the service's
// bounded cursor table.
func (r *PRRows) Close() { r.done = true }

// Collect drains the iterator into a slice.
func (r *PRRows) Collect() ([]perfdata.Result, error) {
	var out []perfdata.Result
	for r.Next() {
		out = append(out, r.Result())
	}
	return out, r.Err()
}

// Destroy destroys the remote Execution instance.
func (e *ExecutionRef) Destroy() error {
	_, err := e.Call(ogsi.OpDestroy)
	return err
}

// PRResult is the outcome of one execution's query in a parallel batch.
type PRResult struct {
	Exec    *ExecutionRef
	Results []perfdata.Result
	Err     error
	Elapsed time.Duration
}

// ParallelOptions tunes QueryPerformanceResults.
type ParallelOptions struct {
	// Repeats re-runs each execution's query N times in its goroutine
	// (the paper repeated each query 10 times per thread to increase host
	// load); the recorded results come from the final run. 0 means 1.
	Repeats int
	// MaxInFlight bounds concurrent queries; 0 means one goroutine per
	// execution, the paper's model.
	MaxInFlight int
	// PageSize > 0 routes each execution's query through the paged wire
	// protocol (PerformanceResultsPaged) with that page size, bounding
	// per-response envelope size across the whole fan-out.
	PageSize int
}

// QueryPerformanceResults queries every execution in parallel — one
// goroutine per Execution Grid service instance — and returns per-
// execution outcomes in input order.
func QueryPerformanceResults(execs []*ExecutionRef, q perfdata.Query, opts ParallelOptions) []PRResult {
	repeats := opts.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	out := make([]PRResult, len(execs))
	var sem chan struct{}
	if opts.MaxInFlight > 0 {
		sem = make(chan struct{}, opts.MaxInFlight)
	}
	var wg sync.WaitGroup
	for i, e := range execs {
		wg.Add(1)
		go func(i int, e *ExecutionRef) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			start := time.Now()
			var rs []perfdata.Result
			var err error
			for r := 0; r < repeats; r++ {
				if opts.PageSize > 0 {
					rs, err = e.PerformanceResultsPaged(q, opts.PageSize).Collect()
				} else {
					rs, err = e.PerformanceResults(q)
				}
				if err != nil {
					break
				}
			}
			out[i] = PRResult{Exec: e, Results: rs, Err: err, Elapsed: time.Since(start)}
		}(i, e)
	}
	wg.Wait()
	return out
}
