// Package container implements the grid service hosting environment — the
// role Apache Tomcat + Apache Axis play in the paper's Services Layer
// (Figure 6).
//
// A Container binds an HTTP listener and routes SOAP messages to the grid
// service instances of an ogsi.Hosting table: it demarshals the incoming
// envelope, locates the addressed instance, invokes the native operation,
// and marshals the result (or a SOAP Fault) back — the server half of the
// architecture-adapter pattern. The client half is the Stub type in
// stub.go, which answers the same ogsi.Server contract as the instances it
// addresses — Serve(ctx, ogsi.Call, buf) — by marshalling the call over a
// shared pool of persistent HTTP connections; both halves reuse
// request/response body buffers through the soap package's buffer pool.
//
// Every call reaches its instance through one dispatch point,
// ogsi.Instance.Serve, and the reply comes back in one of two shapes:
// envelope bytes the service produced itself (ogsi.Reply.Raw — the
// Execution service's cached getPR envelope, or one it encoded straight
// into the container's pooled write buffer), written verbatim with no
// marshalling here; or string values (ogsi.Reply.Values), which the
// container encodes. Paging and deadlines travel in SOAP header entries
// (ogsi.HeaderPageSize, ogsi.HeaderCursor, ogsi.HeaderDeadline) that
// parseCall folds into the ogsi.Call and the request context: a paged call
// returns a large result array — getPR against an SMG98-sized store — in
// bounded chunks instead of one giant envelope. Stub.Serve with a Paged
// call is the client side.
//
// A Container may be configured with a fixed worker pool. A pool of size
// one models the single-CPU Sun Ultra hosts of the paper's testbed:
// concurrent queries against instances on the same host serialize, which
// is precisely the contention that makes the Manager's two-host
// distribution in Figure 12 pay off.
package container

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/gsh"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/soap"
)

// Interceptor inspects an incoming request before dispatch; a non-nil
// error rejects the call with a client Fault. The gsi package supplies a
// signature-verifying interceptor.
type Interceptor func(req *soap.Request, handle gsh.Handle) error

// Options configures a Container.
type Options struct {
	// Workers bounds concurrent service invocations; 0 means unbounded.
	// One worker per simulated CPU reproduces the paper's per-host
	// serialization.
	Workers int
	// QueueDepth bounds how many requests may wait for a worker slot.
	// When the queue is full, further requests are shed immediately with
	// a typed overload fault (soap.FaultOverloaded, HTTP 503) carrying a
	// Retry-After hint — the fast front-door rejection that keeps a
	// saturated container answering in microseconds instead of letting
	// its queue (and every client's tail latency) grow without bound.
	// 0 means unbounded, the historical behavior; only meaningful when
	// Workers > 0.
	QueueDepth int
	// QueueWait bounds how long an admitted request may wait for a
	// worker slot before it is shed with the same overload fault. 0
	// means no budget (wait until the client gives up).
	QueueWait time.Duration
	// Interceptors run in order on every request before dispatch.
	Interceptors []Interceptor
	// ReadLimit bounds request body size in bytes; 0 uses a 16 MiB default.
	ReadLimit int64
	// Logf, when set, receives one line per dispatched request.
	Logf func(format string, args ...any)
}

// shedSampleN sizes the ring of recent shed-decision latencies kept for
// the soak bench (power of two, so the index wrap is a mask).
const shedSampleN = 4096

// Container hosts grid services over HTTP.
type Container struct {
	hosting *ogsi.Hosting
	opts    Options

	server   *http.Server
	listener net.Listener
	workers  chan struct{}

	requests atomic.Int64
	faults   atomic.Int64

	// queued/executing split the old in-flight gauge so shedding
	// decisions and ServiceData reporting see the real queue depth, not
	// queue + running conflated; sheds counts admission rejections (not
	// folded into faults — a shed is backpressure, not a service
	// failure). svcMsEWMA is an exponential moving average of service
	// time in milliseconds (stored as math.Float64bits; 0 means "no
	// samples yet") feeding the Retry-After hint.
	queued    atomic.Int64
	executing atomic.Int64
	sheds     atomic.Int64
	svcMsEWMA atomic.Uint64

	// draining flips when Drain begins: new requests are shed so
	// persistent connections go idle and Shutdown can complete.
	draining atomic.Bool

	// fresh holds the connections that have not yet sent a request
	// (http.StateNew). Shutdown counts such a connection as busy for
	// 5 s, and a client transport leaves one behind whenever a
	// speculative dial loses the race to an idle connection, so Drain
	// closes them once the listener is shut (shutdown set). A sync.Map
	// keeps a kept-alive connection's per-request state changes to one
	// lock-free lookup.
	fresh    sync.Map // net.Conn -> struct{}
	shutdown atomic.Bool

	// Ring of recent shed-decision latencies (ns, shed decision to
	// rejection written), sampled lock-free for the soak bench's "sheds
	// are fast" acceptance.
	shedSeq atomic.Uint64
	shedLat [shedSampleN]atomic.Int64
}

// New creates a container over a hosting table. Call Start before
// deploying services so instances advertise the bound address.
func New(hosting *ogsi.Hosting, opts Options) *Container {
	c := &Container{hosting: hosting, opts: opts}
	if opts.Workers > 0 {
		c.workers = make(chan struct{}, opts.Workers)
	}
	if c.opts.ReadLimit == 0 {
		c.opts.ReadLimit = 16 << 20
	}
	return c
}

// Hosting returns the container's instance table.
func (c *Container) Hosting() *ogsi.Hosting { return c.hosting }

// Start binds addr (e.g. "127.0.0.1:0") and begins serving. The hosting
// table's advertised host is set to the bound address, so it must not yet
// hold instances.
func (c *Container) Start(addr string) error {
	if c.listener != nil {
		return errors.New("container: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("container: listen %s: %w", addr, err)
	}
	if err := c.hosting.SetHost(ln.Addr().String()); err != nil {
		ln.Close()
		return err
	}
	c.listener = ln
	mux := http.NewServeMux()
	mux.HandleFunc(gsh.PathPrefix, c.handle)
	c.server = &http.Server{
		Handler: mux,
		// Bound header read time so a stalled peer cannot pin a
		// connection (service invocations themselves may be long-running,
		// so no overall write timeout is imposed).
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         c.trackFresh,
	}
	c.server.RegisterOnShutdown(c.closeFresh)
	go func() {
		if err := c.server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("container %s: serve: %v", c.Host(), err)
		}
	}()
	return nil
}

// Host returns the bound host:port.
func (c *Container) Host() string { return c.hosting.Host() }

// Requests returns the number of SOAP requests dispatched so far.
func (c *Container) Requests() int64 { return c.requests.Load() }

// Faults returns the number of requests that ended in a SOAP Fault.
func (c *Container) Faults() int64 { return c.faults.Load() }

// Queued returns the number of requests currently waiting for a worker
// slot (admitted but not yet executing).
func (c *Container) Queued() int64 { return c.queued.Load() }

// Executing returns the number of requests currently holding a worker
// slot (or dispatched, on an unbounded container).
func (c *Container) Executing() int64 { return c.executing.Load() }

// Sheds returns the number of requests rejected by admission control
// (queue full, queue-wait budget exceeded, or draining). Sheds are not
// counted in Faults: a shed is deliberate backpressure, not a failure
// of a dispatched request.
func (c *Container) Sheds() int64 { return c.sheds.Load() }

// Draining reports whether the container has begun a graceful drain.
func (c *Container) Draining() bool { return c.draining.Load() }

// ShedLatenciesNs returns a snapshot of recent shed-decision latencies
// in nanoseconds (shed decision to rejection written; for queue-full and
// draining sheds the decision is handler entry), most recent shedSampleN
// at most. The soak bench derives its p99-shed-latency
// acceptance from these server-side samples, where the measurement is
// not confounded by client-side scheduling delay.
func (c *Container) ShedLatenciesNs() []int64 {
	n := c.shedSeq.Load()
	if n > shedSampleN {
		n = shedSampleN
	}
	out := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, c.shedLat[i].Load())
	}
	return out
}

// MeanServiceMs returns an exponential moving average of recent request
// service times (milliseconds), 0 until the first request completes.
func (c *Container) MeanServiceMs() float64 {
	return math.Float64frombits(c.svcMsEWMA.Load())
}

// noteServiceTime folds one request's service time into the EWMA.
func (c *Container) noteServiceTime(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	for {
		old := c.svcMsEWMA.Load()
		next := ms
		if old != 0 {
			next = 0.8*math.Float64frombits(old) + 0.2*ms
		}
		if c.svcMsEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Close shuts the listener down and destroys all hosted instances.
func (c *Container) Close() error {
	var err error
	if c.server != nil {
		err = c.server.Close()
	}
	c.hosting.DestroyAll()
	return err
}

// Drain gracefully shuts the container down: new work is shed with the
// overload fault (so persistent connections go idle quickly), the
// listener stops accepting, connections that never sent a request are
// closed, in-flight requests run to completion or to ctx's deadline,
// and finally all hosted instances are destroyed. If ctx expires before
// the last request finishes, remaining connections are force-closed and
// ctx's error is returned.
func (c *Container) Drain(ctx context.Context) error {
	c.draining.Store(true)
	var err error
	if c.server != nil {
		err = c.server.Shutdown(ctx)
		if err != nil {
			_ = c.server.Close()
		}
	}
	c.hosting.DestroyAll()
	return err
}

// trackFresh is the server's ConnState hook: it records connections
// until their first request, and closes one that arrives after
// closeFresh ran (accepted just before the listener shut).
func (c *Container) trackFresh(conn net.Conn, state http.ConnState) {
	switch state {
	case http.StateNew:
		c.fresh.Store(conn, struct{}{})
		if c.shutdown.Load() {
			_ = conn.Close()
		}
	case http.StateActive, http.StateClosed, http.StateHijacked:
		if _, ok := c.fresh.Load(conn); ok {
			c.fresh.Delete(conn)
		}
	}
}

// closeFresh runs when Shutdown has closed the listener: it closes every
// connection that has not read a request. None is lost — a request that
// arrived on one now would only be shed, since Drain has begun.
func (c *Container) closeFresh() {
	c.shutdown.Store(true)
	c.fresh.Range(func(conn, _ any) bool {
		_ = conn.(net.Conn).Close()
		return true
	})
}

func (c *Container) handle(w http.ResponseWriter, r *http.Request) {
	handle, err := c.parsePath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		c.handleGet(w, handle)
	case http.MethodPost:
		c.handlePost(w, r, handle)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (c *Container) parsePath(path string) (gsh.Handle, error) {
	rest := strings.TrimPrefix(path, gsh.PathPrefix)
	parts := strings.Split(rest, "/")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return gsh.Handle{}, fmt.Errorf("container: bad service path %q", path)
	}
	return gsh.New(c.Host(), parts[0], parts[1]), nil
}

// handleGet serves the instance's WSDL definition, the introspection
// convention ("?WSDL") of Web services containers.
func (c *Container) handleGet(w http.ResponseWriter, handle gsh.Handle) {
	in, ok := c.hosting.LookupHandle(handle)
	if !ok {
		http.Error(w, "no such service instance", http.StatusNotFound)
		return
	}
	data, err := in.Definition().Marshal()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = w.Write(data)
}

// maxBudgetMs is the largest ppg-deadline budget, in milliseconds, that a
// time.Duration can hold; larger budgets are clamped to it.
const maxBudgetMs = math.MaxInt64 / int64(time.Millisecond)

// parseCall decodes a request envelope and its paged-call and deadline
// header entries into the call to dispatch. budget is the caller's
// remaining ppg-deadline budget (relative milliseconds — no clock
// synchronization needed), 0 when the request carries none; a budget too
// large for a time.Duration is clamped, never wrapped negative. The
// returned strings are copied out of body, so the caller may reuse it.
func parseCall(body []byte) (req *soap.Request, call ogsi.Call, budget time.Duration, err error) {
	req, err = soap.DecodeRequest(body)
	if err != nil {
		return nil, ogsi.Call{}, 0, fmt.Errorf("decode request: %w", err)
	}
	call = ogsi.Call{Op: req.Operation, Params: req.Params}
	cursor, hasCursor := req.Header(ogsi.HeaderCursor)
	size, hasSize := req.Header(ogsi.HeaderPageSize)
	call.Paged, call.Cursor = hasCursor || hasSize, cursor
	if hasSize {
		if call.Limit, err = strconv.Atoi(size); err != nil || call.Limit < 0 {
			return nil, ogsi.Call{}, 0, errors.New("bad " + ogsi.HeaderPageSize + " header: " + size)
		}
	}
	if dl, ok := req.Header(ogsi.HeaderDeadline); ok {
		ms, err := strconv.ParseInt(dl, 10, 64)
		if err != nil || ms <= 0 {
			return nil, ogsi.Call{}, 0, errors.New("bad " + ogsi.HeaderDeadline + " header: " + dl)
		}
		budget = time.Duration(min(ms, maxBudgetMs)) * time.Millisecond
	}
	return req, call, budget, nil
}

func (c *Container) handlePost(w http.ResponseWriter, r *http.Request, handle gsh.Handle) {
	arrived := time.Now()
	c.requests.Add(1)
	body := soap.GetBuffer()
	defer soap.PutBuffer(body)
	if _, err := body.ReadFrom(io.LimitReader(r.Body, c.opts.ReadLimit+1)); err != nil {
		c.writeFault(w, soap.ClientFault("read request: "+err.Error()))
		return
	}
	if int64(body.Len()) > c.opts.ReadLimit {
		c.writeFault(w, soap.ClientFault("request exceeds size limit"))
		return
	}
	req, call, budget, err := parseCall(body.Bytes())
	if err != nil {
		c.writeFault(w, soap.ClientFault(err.Error()))
		return
	}
	for _, ic := range c.opts.Interceptors {
		if err := ic(req, handle); err != nil {
			c.writeFault(w, soap.ClientFault(err.Error()))
			return
		}
	}
	in, ok := c.hosting.LookupHandle(handle)
	if !ok {
		c.writeFault(w, &soap.Fault{Code: soap.FaultClient, String: "no such service instance", Detail: handle.String()})
		return
	}

	// The request context carries client disconnection; the ppg-deadline
	// budget tightens it to the caller's remaining deadline. Server
	// implementations propagate it through singleflight waits, cache fills,
	// and Mapping-Layer fetches, so an expired request stops costing work
	// as early as possible.
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	// Admission control, in front of the worker pool. A draining
	// container sheds everything; a full queue sheds before queueing; a
	// queued request is shed when its queue-wait budget expires. Sheds
	// are µs-scale typed rejections that never consume a worker slot —
	// the difference between degrading and collapsing past saturation.
	if c.draining.Load() {
		c.shed(w, arrived, "container draining")
		return
	}
	if c.workers != nil {
		if depth := c.opts.QueueDepth; depth > 0 {
			for {
				q := c.queued.Load()
				if q >= int64(depth) {
					c.shed(w, arrived, "admission queue full")
					return
				}
				if c.queued.CompareAndSwap(q, q+1) {
					break
				}
			}
		} else {
			c.queued.Add(1)
		}
		// Acquire a simulated-CPU worker slot for the invocation itself.
		// A caller that gave up — a hedged or deadline-bounded federated
		// request whose client side cancelled the HTTP request — is
		// turned away while still queued, so abandoned work never
		// occupies a simulated CPU.
		var waitC <-chan time.Time
		if c.opts.QueueWait > 0 {
			tm := time.NewTimer(c.opts.QueueWait)
			defer tm.Stop()
			waitC = tm.C
		}
		select {
		case c.workers <- struct{}{}:
			c.queued.Add(-1)
		case <-waitC:
			c.queued.Add(-1)
			// The shed latency sample starts at the budget expiry, not at
			// arrival: the queue wait is configured policy, and the sample
			// measures how fast the rejection itself is produced.
			c.shed(w, time.Now(), "queue-wait budget exceeded")
			return
		case <-ctx.Done():
			c.queued.Add(-1)
			c.writeFault(w, soap.ClientFault("request cancelled while queued: "+ctx.Err().Error()))
			return
		}
	} else if err := ctx.Err(); err != nil {
		c.writeFault(w, soap.ClientFault("request cancelled: "+err.Error()))
		return
	}
	c.executing.Add(1)
	start := time.Now()
	// out is the pooled write buffer: the service may encode its envelope
	// straight into it (Reply.Raw then aliases it), and a Values reply is
	// encoded into it below.
	out := soap.GetBuffer()
	defer soap.PutBuffer(out)
	reply, err := in.Serve(ctx, call, out)
	elapsed := time.Since(start)
	if c.workers != nil {
		<-c.workers
	}
	c.executing.Add(-1)
	c.noteServiceTime(elapsed)
	if c.opts.Logf != nil {
		result := fmt.Sprintf("%d values", len(reply.Values))
		if reply.Raw != nil {
			result = fmt.Sprintf("%d raw bytes", len(reply.Raw))
		}
		c.opts.Logf("container %s: %s %s(%d params) -> %s, err=%v, %s",
			c.Host(), handle.ServiceType+"/"+handle.InstanceID, call.Op,
			len(call.Params), result, err, elapsed)
	}
	if err != nil {
		c.writeFault(w, soap.ServerFault(err))
		return
	}
	resp := reply.Raw
	if resp == nil {
		var headers []soap.HeaderEntry
		if reply.Next != "" {
			headers = []soap.HeaderEntry{{Name: ogsi.HeaderCursor, Value: reply.Next}}
		}
		out.Reset()
		if err := soap.EncodeResponseTo(out, call.Op, headers, reply.Values); err != nil {
			c.writeFault(w, soap.ServerFault(err))
			return
		}
		resp = out.Bytes()
	}
	w.Header().Set("Content-Type", soap.ContentType)
	_, _ = w.Write(resp)
}

// retryHint estimates when a retry has a chance of admission: roughly
// the time to clear the current backlog at the container's recent
// service rate, clamped to [1ms, 5s]. With no samples yet it assumes
// 1 ms per request — the hint only has to be the right order of
// magnitude for client backoff to stop hammering a saturated site.
func (c *Container) retryHint() time.Duration {
	meanMs := c.MeanServiceMs()
	if meanMs <= 0 {
		meanMs = 1
	}
	workers := 1.0
	if c.workers != nil {
		workers = float64(cap(c.workers))
	}
	backlog := float64(c.queued.Load()+c.executing.Load()) + 1
	d := time.Duration(meanMs * backlog / workers * float64(time.Millisecond))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// shed rejects a request at the front door: a typed overload fault
// (soap.FaultOverloaded) on HTTP 503, with the Retry-After hint both in
// the fault detail (for SOAP peers — the Stub surfaces it through
// soap.AsOverload) and in the standard Retry-After header (for generic
// HTTP clients). No worker slot is consumed; the decision latency since
// arrival is sampled for the soak bench.
func (c *Container) shed(w http.ResponseWriter, arrived time.Time, msg string) {
	hint := c.retryHint()
	f := soap.OverloadFault(msg, hint)
	data, err := soap.EncodeFault(f)
	if err != nil {
		http.Error(w, f.String, http.StatusServiceUnavailable)
		return
	}
	secs := int64((hint + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Content-Type", soap.ContentType)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write(data)

	c.sheds.Add(1)
	i := c.shedSeq.Add(1) - 1
	c.shedLat[i%shedSampleN].Store(time.Since(arrived).Nanoseconds())
}

func (c *Container) writeFault(w http.ResponseWriter, f *soap.Fault) {
	c.faults.Add(1)
	data, err := soap.EncodeFault(f)
	if err != nil {
		http.Error(w, f.String, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", soap.ContentType)
	// SOAP 1.1 carries faults with HTTP 500.
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(data)
}
