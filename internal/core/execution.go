package core

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/gsh"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
)

// encScratchPool recycles the per-request scratch slice the streaming
// encoders render each result into (one reused buffer per envelope, not
// one string per result).
var encScratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// ExecutionService is the implementation behind one Execution grid service
// instance (Table 2). It is stateful, as OGSI instances are: discovery
// results are memoized and Performance Result queries go through the
// instance's cache (section 5.3.2.3) when one is configured.
type ExecutionService struct {
	id      string
	wrapper mapping.ExecutionWrapper // this instance's replica, for reads
	group   *execGroup               // the execution's replicas and live instances; every publish goes through it

	// cache is the instance's Performance Results cache, set once at
	// construction and never replaced; nil disables caching.
	cache *Cache

	hub  *ogsi.NotificationHub // nil disables notifications
	dial ogsi.SinkDialer       // nil disables getPRAsync callbacks

	async sync.WaitGroup // in-flight getPRAsync deliveries

	// wireEncodes counts SOAP response envelopes encoded on the getPR
	// raw path; tests use it to prove cache hits do zero marshalling.
	wireEncodes atomic.Int64

	// epoch is the execution's data generation. Every cache key is
	// prefixed with it (versionedKey), so a bump — by PublishResults or
	// NotifyUpdate — retires all previously cached envelopes and all
	// in-flight singleflight fills at once: their keys become structurally
	// unreachable. This is the version-stamp-at-query-start contract — a
	// reader that started before a write can only populate (and read)
	// pre-write keys.
	epoch atomic.Int64

	// publishes counts the execution's publishes that wrote a store since
	// this instance joined its group; invalidated accumulates the cache
	// entries purged by them and by NotifyUpdate.
	// Both feed service data, and tests pin exact per-instance
	// invalidation counts.
	publishes   atomic.Int64
	invalidated atomic.Int64

	// flights singleflights identical in-flight getPR queries on the
	// cache-miss path: N concurrent cold misses cost one Mapping-Layer
	// execution, the other N-1 wait for the leader's result. coalesced
	// counts those followers.
	flightMu  sync.Mutex
	flights   map[string]*prFlight
	coalesced atomic.Int64

	// lastResultLen remembers the previous getPR result count, the
	// pre-sizing hint for the next fetch's result arena — cold SMG98
	// queries return thousands of rows, and growing a slice there from
	// nothing costs a dozen reallocations per query.
	lastResultLen atomic.Int64

	mu        sync.Mutex
	foci      []string
	metrics   []string
	types     []string
	timeRange *perfdata.TimeRange
	info      []perfdata.KV

	cursorMu    sync.Mutex
	cursors     map[string]*prCursor
	cursorSeq   int64
	cursorIDs   []string // FIFO of live cursor ids, for bounded eviction
	cursorBytes int64    // footprint of all live cursors (cursorMu)

	// Cursor budgets (zero values take the Default* constants below).
	// Slow readers paging huge result sets are connection-level
	// backpressure risks: without a byte budget and TTL, a few thousand
	// stalled clients pin a server's memory indefinitely. Eviction is
	// opportunistic — on cursor open and continuation — so no background
	// goroutine exists to leak.
	curMaxEntries   int
	curMaxBytes     int64
	curTTL          time.Duration
	cursorNow       func() time.Time // injectable clock for TTL tests
	cursorEvictions atomic.Int64
}

// prCursor is the server-side state of one paged getPR result set: the
// decoded results and the read offset. Pages encode on their way out —
// straight into the transport buffer on the raw-streamed path — so no
// per-result intermediate strings sit in cursor state.
type prCursor struct {
	rs      []perfdata.Result
	offset  int
	bytes   int64     // footprint charged against the cursor byte budget
	expires time.Time // idle deadline, refreshed on each continuation
}

// prFlight is one in-flight getPR Mapping-Layer execution; followers with
// the same query key wait on done and share the outcome.
type prFlight struct {
	done chan struct{}
	rs   []perfdata.Result
	err  error
}

// DefaultPageSize is the page length used when a paged getPR names none.
const DefaultPageSize = 256

// maxLiveCursors bounds per-instance paged-query state; opening more
// evicts the oldest (its continuation then fails, like an expired cursor).
const maxLiveCursors = 64

// DefaultCursorBytes is the default byte budget for an instance's live
// cursor table; DefaultCursorTTL is how long an untouched cursor
// survives before opportunistic eviction reclaims it.
const (
	DefaultCursorBytes = 32 << 20
	DefaultCursorTTL   = 60 * time.Second
)

// UpdatesTopic is the notification topic on which an Execution service
// announces data-store updates (the paper's future-work streaming case).
const UpdatesTopic = "executionUpdates"

// AsyncPRTopic is the notification topic on which asynchronous getPR
// results are delivered to the requester's callback sink.
const AsyncPRTopic = "prResults"

// OpGetPRAsync is the callback-model variant of getPR (the paper's
// future-work "registry-callback model" replacing one blocked thread per
// service call): the call returns immediately and the results are
// delivered to the caller-supplied NotificationSink.
const OpGetPRAsync = "getPRAsync"

// NewExecutionService builds an Execution service over a mapping-layer
// wrapper. cache may be nil to disable Performance Result caching; hub may
// be nil to disable update notifications.
// Its publishes write w alone, through a private one-replica group.
func NewExecutionService(id string, w mapping.ExecutionWrapper, cache *Cache, hub *ogsi.NotificationHub) *ExecutionService {
	g := &execGroup{id: id, replicas: []mapping.ExecutionWrapper{w}}
	e, _ := g.join(0, cache, hub) // replica 0 is already open, so join cannot fail
	return e
}

// SetSinkDialer enables the getPRAsync callback model by providing the
// dialer used to reach requester sinks (container.SOAPSinkDialer in
// production; fakes in tests).
func (e *ExecutionService) SetSinkDialer(d ogsi.SinkDialer) { e.dial = d }

// ID returns the execution's unique ID.
func (e *ExecutionService) ID() string { return e.id }

// CacheStats reports the instance's cache statistics; the zero value is
// returned when caching is off.
func (e *ExecutionService) CacheStats() CacheStats {
	if e.cache != nil {
		return e.cache.Stats()
	}
	return CacheStats{}
}

// Invoke implements the Execution PortType wire protocol.
func (e *ExecutionService) Invoke(op string, params []string) ([]string, error) {
	return e.InvokeContext(context.Background(), op, params)
}

// InvokeContext is Invoke under a request context: client disconnection
// plus the HeaderDeadline budget flow through the getPR read path —
// singleflight waits, cache fills, and the Mapping-Layer fetch guard — so
// an expired or abandoned request stops costing work instead of running
// to a result nobody reads.
func (e *ExecutionService) InvokeContext(ctx context.Context, op string, params []string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch op {
	case OpGetInfo:
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		return perfdata.EncodeKVs(info), nil
	case OpGetFoci:
		return e.Foci()
	case OpGetMetrics:
		return e.Metrics()
	case OpGetTypes:
		return e.Types()
	case OpGetTimeStartEnd:
		tr, err := e.TimeStartEnd()
		if err != nil {
			return nil, err
		}
		return []string{
			strconv.FormatFloat(tr.Start, 'g', -1, 64),
			strconv.FormatFloat(tr.End, 'g', -1, 64),
		}, nil
	case OpGetPR:
		q, err := perfdata.ParseQueryParams(params)
		if err != nil {
			return nil, err
		}
		rs, err := e.performanceResults(ctx, q)
		if err != nil {
			return nil, err
		}
		return perfdata.EncodeResults(rs), nil
	case OpPublishPR:
		rs, err := perfdata.ParseResults(params)
		if err != nil {
			return nil, err
		}
		if err := e.PublishResults(rs); err != nil {
			return nil, err
		}
		return []string{strconv.Itoa(len(rs))}, nil
	case OpGetPRAsync:
		return e.getPRAsync(params)
	case ogsi.OpSubscribe:
		if e.hub == nil {
			return nil, fmt.Errorf("core: execution %s has no notification hub", e.id)
		}
		return e.hub.HandleSubscribe(params)
	}
	return nil, fmt.Errorf("%w: %q on Execution", ogsi.ErrUnknownOperation, op)
}

// Serve implements ogsi.Server. The Execution service is the one module
// that knows whether it caches, so the wire path of each call is chosen
// here:
//
//   - unpaged getPR on a cached instance: the entry's encoded envelope,
//     served verbatim (InvokeRawContext);
//   - unpaged getPR on an uncached instance, whatever its store: the
//     envelope encoded straight into buf (InvokeRawToContext);
//   - paged getPR: one page behind a cursor, encoded into buf (servePage);
//   - everything else: string values for the transport to encode
//     (InvokeContext).
func (e *ExecutionService) Serve(ctx context.Context, c ogsi.Call, buf *bytes.Buffer) (ogsi.Reply, error) {
	if c.Op == OpGetPR {
		if c.Paged {
			return e.servePage(ctx, c, buf)
		}
		if raw, took, err := e.InvokeRawContext(ctx, c.Op, c.Params); took || err != nil {
			return ogsi.Reply{Raw: raw}, err
		}
		if _, err := e.InvokeRawToContext(ctx, c.Op, c.Params, buf); err != nil {
			return ogsi.Reply{}, err
		}
		return ogsi.Reply{Raw: buf.Bytes()}, nil
	}
	vals, err := e.InvokeContext(ctx, c.Op, c.Params)
	return ogsi.Reply{Values: vals}, err
}

// servePage answers one page of a paged getPR: large result sets flow to
// the client in chunks instead of one giant envelope, the cursor
// travelling in a SOAP header entry. The page encodes straight into buf,
// cursor entry included, with no per-result intermediate strings; the
// bytes equal the string route's (perfdata.EncodeResults + the generic
// response encode), which differential tests pin.
func (e *ExecutionService) servePage(ctx context.Context, c ogsi.Call, buf *bytes.Buffer) (ogsi.Reply, error) {
	page, next, err := e.pagedResults(ctx, c.Params, c.Cursor, c.Limit)
	if err != nil {
		return ogsi.Reply{}, err
	}
	var headers []soap.HeaderEntry
	if next != "" {
		headers = []soap.HeaderEntry{{Name: ogsi.HeaderCursor, Value: next}}
	}
	if err := encodeResultsTo(buf, headers, page); err != nil {
		return ogsi.Reply{}, err
	}
	e.wireEncodes.Add(1)
	return ogsi.Reply{Raw: buf.Bytes()}, nil
}

// pagedResults is the paging engine behind servePage: it returns one page
// of decoded results plus the continuation cursor.
func (e *ExecutionService) pagedResults(ctx context.Context, params []string, cursor string, limit int) ([]perfdata.Result, string, error) {
	if limit <= 0 {
		limit = DefaultPageSize
	}
	if cursor != "" {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		return e.continueCursor(cursor, limit)
	}
	q, err := perfdata.ParseQueryParams(params)
	if err != nil {
		return nil, "", err
	}
	rs, err := e.performanceResults(ctx, q)
	if err != nil {
		return nil, "", err
	}
	if len(rs) <= limit {
		return rs, "", nil
	}
	return e.openCursor(rs, limit)
}

// SetCursorBudget overrides the live-cursor table's budgets: maximum
// live cursors, total byte footprint, and idle TTL (zero keeps the
// current value for each). Configure before serving traffic.
func (e *ExecutionService) SetCursorBudget(entries int, maxBytes int64, ttl time.Duration) {
	e.cursorMu.Lock()
	defer e.cursorMu.Unlock()
	if entries > 0 {
		e.curMaxEntries = entries
	}
	if maxBytes > 0 {
		e.curMaxBytes = maxBytes
	}
	if ttl > 0 {
		e.curTTL = ttl
	}
}

// SetCursorClock injects the clock used for cursor TTL decisions (tests).
func (e *ExecutionService) SetCursorClock(now func() time.Time) {
	e.cursorMu.Lock()
	defer e.cursorMu.Unlock()
	e.cursorNow = now
}

// CursorStats reports the live cursor table's current entry count, byte
// footprint, and cumulative evictions (budget and TTL combined).
func (e *ExecutionService) CursorStats() (entries int, bytes int64, evictions int64) {
	e.cursorMu.Lock()
	entries, bytes = len(e.cursorIDs), e.cursorBytes
	e.cursorMu.Unlock()
	return entries, bytes, e.cursorEvictions.Load()
}

func (e *ExecutionService) cursorBudgetsLocked() (entries int, maxBytes int64, ttl time.Duration) {
	entries, maxBytes, ttl = e.curMaxEntries, e.curMaxBytes, e.curTTL
	if entries <= 0 {
		entries = maxLiveCursors
	}
	if maxBytes <= 0 {
		maxBytes = DefaultCursorBytes
	}
	if ttl <= 0 {
		ttl = DefaultCursorTTL
	}
	return entries, maxBytes, ttl
}

func (e *ExecutionService) cursorClockLocked() time.Time {
	if e.cursorNow != nil {
		return e.cursorNow()
	}
	return time.Now()
}

// evictCursorsLocked applies the cursor budgets: idle-expired cursors go
// first, then the oldest-opened cursors until the table fits both the
// entry count (leaving room for extra new entries) and the byte budget
// (with extraBytes of headroom). Runs opportunistically under cursorMu
// on every open and continuation — backpressure without a reaper
// goroutine.
func (e *ExecutionService) evictCursorsLocked(extraEntries int, extraBytes int64) {
	maxEntries, maxBytes, _ := e.cursorBudgetsLocked()
	now := e.cursorClockLocked()
	for i := 0; i < len(e.cursorIDs); {
		id := e.cursorIDs[i]
		if c := e.cursors[id]; c != nil && now.After(c.expires) {
			e.dropCursorLocked(id)
			e.cursorEvictions.Add(1)
			continue // dropCursorLocked shifted the slice; same index again
		}
		i++
	}
	for len(e.cursorIDs) > 0 &&
		(len(e.cursorIDs)+extraEntries > maxEntries || e.cursorBytes+extraBytes > maxBytes) {
		e.dropCursorLocked(e.cursorIDs[0])
		e.cursorEvictions.Add(1)
	}
}

// openCursor registers the remainder of a paged result set and returns
// its first page. The cursor shares the result slice (it may alias a
// cache entry, which is immutable by the Cache contract) and only ever
// reads it.
func (e *ExecutionService) openCursor(rs []perfdata.Result, limit int) ([]perfdata.Result, string, error) {
	e.cursorMu.Lock()
	defer e.cursorMu.Unlock()
	if e.cursors == nil {
		e.cursors = make(map[string]*prCursor)
	}
	footprint := resultsFootprint(rs)
	e.evictCursorsLocked(1, footprint)
	_, _, ttl := e.cursorBudgetsLocked()
	e.cursorSeq++
	id := fmt.Sprintf("pr-%s-%d", e.id, e.cursorSeq)
	e.cursors[id] = &prCursor{
		rs:      rs,
		offset:  limit,
		bytes:   footprint,
		expires: e.cursorClockLocked().Add(ttl),
	}
	e.cursorIDs = append(e.cursorIDs, id)
	e.cursorBytes += footprint
	return rs[:limit], id, nil
}

// continueCursor serves the next page of a live cursor, retiring it when
// the set is exhausted. A continuation refreshes the cursor's idle TTL:
// a reader that keeps paging — however slowly relative to its own pace —
// stays live; one that stops is reclaimed.
func (e *ExecutionService) continueCursor(id string, limit int) ([]perfdata.Result, string, error) {
	e.cursorMu.Lock()
	defer e.cursorMu.Unlock()
	e.evictCursorsLocked(0, 0)
	c, ok := e.cursors[id]
	if !ok {
		return nil, "", fmt.Errorf("core: unknown or expired getPR cursor %q", id)
	}
	// Compare against what is left rather than adding limit to the offset:
	// the page size comes off the wire, and a huge one would overflow.
	if limit >= len(c.rs)-c.offset {
		page := c.rs[c.offset:]
		e.dropCursorLocked(id)
		return page, "", nil
	}
	end := c.offset + limit
	page := c.rs[c.offset:end]
	c.offset = end
	_, _, ttl := e.cursorBudgetsLocked()
	c.expires = e.cursorClockLocked().Add(ttl)
	return page, id, nil
}

// encodeResultsTo streams one getPR response envelope into buf: each
// result renders into a pooled scratch slice (perfdata.AppendEncode) and
// escapes straight into the envelope — the zero-intermediate encode.
func encodeResultsTo(buf *bytes.Buffer, headers []soap.HeaderEntry, rs []perfdata.Result) error {
	var enc soap.ResponseEncoder
	if err := enc.Begin(buf, OpGetPR, headers); err != nil {
		return err
	}
	scratchp := encScratchPool.Get().(*[]byte)
	scratch := *scratchp
	for i := range rs {
		scratch = rs[i].AppendEncode(scratch[:0])
		enc.ReturnBytes(scratch)
	}
	*scratchp = scratch
	encScratchPool.Put(scratchp)
	return enc.Close()
}

func (e *ExecutionService) dropCursorLocked(id string) {
	if c, ok := e.cursors[id]; ok {
		e.cursorBytes -= c.bytes
	}
	delete(e.cursors, id)
	for i, cid := range e.cursorIDs {
		if cid == id {
			e.cursorIDs = append(e.cursorIDs[:i], e.cursorIDs[i+1:]...)
			break
		}
	}
}

// InvokeRawContext answers getPR on a cached instance with the entry's
// encoded SOAP response envelope, written to the wire verbatim, so a
// repeat query (the Table 5 workload) does zero XML marshalling. On a miss
// the envelope is encoded exactly once and attached to the cache entry
// alongside the decoded results. took is false — nothing done — for other
// operations and uncached instances.
func (e *ExecutionService) InvokeRawContext(ctx context.Context, op string, params []string) ([]byte, bool, error) {
	if op != OpGetPR || e.cache == nil {
		return nil, false, nil
	}
	q, err := perfdata.ParseQueryParams(params)
	if err != nil {
		return nil, true, err
	}
	// One logical lookup, counted once: a present envelope counts as the
	// hit inside GetWire; an absent envelope is not a miss — the Get on
	// the fallback path below settles the outcome (hit when only the
	// decoded results are cached, miss when nothing is).
	key := e.versionedKey(q.Key())
	if raw, ok := e.cache.GetWire(key); ok {
		return raw, true, nil
	}
	rs, err := e.resultsByKey(ctx, key, q)
	if err != nil {
		return nil, true, err
	}
	raw, err := e.encodeResults(rs)
	if err != nil {
		return nil, true, err
	}
	e.wireEncodes.Add(1)
	// key carries the epoch read at query start: if an update landed
	// mid-request, this attaches under a retired key that is never served.
	e.cache.AttachWire(key, raw)
	return raw, true, nil
}

// WireEncodes reports how many getPR response envelopes this instance has
// encoded — the number cache hits hold at zero growth.
func (e *ExecutionService) WireEncodes() int64 { return e.wireEncodes.Load() }

// encodeResults renders one owned getPR response envelope (the form the
// encoded-response cache retains), streaming each result's bytes
// straight into a pooled buffer.
func (e *ExecutionService) encodeResults(rs []perfdata.Result) ([]byte, error) {
	buf := soap.GetBuffer()
	defer soap.PutBuffer(buf)
	if err := encodeResultsTo(buf, nil, rs); err != nil {
		return nil, err
	}
	return soap.CopyEncoded(buf), nil
}

// InvokeRawToContext answers getPR on an uncached instance — the cold wire
// path — by encoding the envelope straight into buf. The result set
// appends into a pooled arena (mapping.ResultAppender), encodes into the
// transport's buffer, and the arena recycles: steady-state cold queries
// build no per-result strings and no owned envelope slice. It declines
// (false, buf untouched) for other operations and for cached instances,
// whose envelope must be retained for the cache. The context is checked
// at the store boundary — an expired request never reaches the Mapping
// Layer.
func (e *ExecutionService) InvokeRawToContext(ctx context.Context, op string, params []string, buf *bytes.Buffer) (bool, error) {
	if op != OpGetPR || e.cache != nil {
		return false, nil
	}
	q, err := perfdata.ParseQueryParams(params)
	if err != nil {
		return true, err
	}
	if err := ctx.Err(); err != nil {
		return true, err
	}
	arena := mapping.GetResultArena(e.resultsHint())
	rs, err := e.wrapper.AppendPerformanceResults(q, *arena)
	*arena = rs
	if err != nil {
		mapping.PutResultArena(arena)
		return true, err
	}
	e.noteResultLen(len(rs))
	err = encodeResultsTo(buf, nil, rs)
	mapping.PutResultArena(arena)
	if err != nil {
		return true, err
	}
	e.wireEncodes.Add(1)
	return true, nil
}

// resultsHint pre-sizes a result arena from the previous query's result
// count, clamped to keep a pathological outlier from pinning memory.
func (e *ExecutionService) resultsHint() int {
	const maxHint = 1 << 16
	n := int(e.lastResultLen.Load())
	if n <= 0 {
		return 16
	}
	if n > maxHint {
		return maxHint
	}
	return n
}

func (e *ExecutionService) noteResultLen(n int) { e.lastResultLen.Store(int64(n)) }

// getPRAsync implements the callback query model. Parameters are
// [requestID, sinkHandle, metric, start, end, type, foci...]. The call is
// acknowledged immediately; the query runs in the background and one
// DeliverNotification lands on the sink with the encoded outcome.
func (e *ExecutionService) getPRAsync(params []string) ([]string, error) {
	if e.dial == nil {
		return nil, fmt.Errorf("core: execution %s has no callback dialer", e.id)
	}
	if len(params) < 6 {
		return nil, fmt.Errorf("core: %s requires [requestID, sinkHandle, metric, start, end, type, foci...]", OpGetPRAsync)
	}
	requestID, sinkStr := params[0], params[1]
	if requestID == "" || strings.ContainsRune(requestID, '\n') {
		return nil, fmt.Errorf("core: bad request ID %q", requestID)
	}
	sinkHandle, err := gsh.Parse(sinkStr)
	if err != nil {
		return nil, fmt.Errorf("core: bad sink handle: %w", err)
	}
	q, err := perfdata.ParseQueryParams(params[2:])
	if err != nil {
		return nil, err
	}
	sink := e.dial(sinkHandle)
	e.async.Add(1)
	go func() {
		defer e.async.Done()
		rs, err := e.PerformanceResults(q)
		// Delivery failures have no requester to report to; the sink side
		// times out and retries, matching the at-most-once semantics of
		// the paper's notification model.
		_ = sink.Deliver(AsyncPRTopic, EncodeAsyncOutcome(requestID, rs, err))
	}()
	return []string{"accepted"}, nil
}

// FlushAsync blocks until in-flight asynchronous deliveries complete, for
// deterministic tests and orderly shutdown.
func (e *ExecutionService) FlushAsync() { e.async.Wait() }

// EncodeAsyncOutcome renders an asynchronous getPR outcome as the one-
// string notification message: the request ID, a status line ("ok" or
// "error: ..."), then one encoded result per line.
func EncodeAsyncOutcome(requestID string, rs []perfdata.Result, err error) string {
	var b strings.Builder
	b.WriteString(requestID)
	b.WriteByte('\n')
	if err != nil {
		b.WriteString("error: " + strings.ReplaceAll(err.Error(), "\n", " "))
		return b.String()
	}
	b.WriteString("ok")
	for _, s := range perfdata.EncodeResults(rs) {
		b.WriteByte('\n')
		b.WriteString(s)
	}
	return b.String()
}

// DecodeAsyncOutcome parses an asynchronous outcome message.
func DecodeAsyncOutcome(msg string) (requestID string, rs []perfdata.Result, err error) {
	lines := strings.Split(msg, "\n")
	if len(lines) < 2 {
		return "", nil, fmt.Errorf("core: malformed async outcome %q", msg)
	}
	requestID = lines[0]
	status := lines[1]
	if status != "ok" {
		if rest, found := strings.CutPrefix(status, "error: "); found {
			return requestID, nil, fmt.Errorf("core: remote getPR failed: %s", rest)
		}
		return "", nil, fmt.Errorf("core: malformed async status %q", status)
	}
	rs, perr := perfdata.ParseResults(lines[2:])
	if perr != nil {
		return requestID, nil, perr
	}
	return requestID, rs, nil
}

// Info returns the execution's metadata, memoized after the first call.
func (e *ExecutionService) Info() ([]perfdata.KV, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.info == nil {
		info, err := e.wrapper.Info()
		if err != nil {
			return nil, err
		}
		e.info = info
	}
	return e.info, nil
}

// Foci returns the unique focus values, memoized.
func (e *ExecutionService) Foci() ([]string, error) {
	return e.discover(&e.foci, e.wrapper.Foci)
}

// Metrics returns the unique metric names, memoized.
func (e *ExecutionService) Metrics() ([]string, error) {
	return e.discover(&e.metrics, e.wrapper.Metrics)
}

// Types returns the unique collector types, memoized.
func (e *ExecutionService) Types() ([]string, error) {
	return e.discover(&e.types, e.wrapper.Types)
}

func (e *ExecutionService) discover(slot *[]string, fetch func() ([]string, error)) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if *slot == nil {
		vals, err := fetch()
		if err != nil {
			return nil, err
		}
		if vals == nil {
			vals = []string{}
		}
		*slot = vals
	}
	return *slot, nil
}

// TimeStartEnd returns the execution's time range, memoized.
func (e *ExecutionService) TimeStartEnd() (perfdata.TimeRange, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.timeRange == nil {
		tr, err := e.wrapper.TimeStartEnd()
		if err != nil {
			return perfdata.TimeRange{}, err
		}
		e.timeRange = &tr
	}
	return *e.timeRange, nil
}

// PerformanceResults answers a getPR query, consulting the cache first and
// only reaching the Mapping Layer (and data store) on a miss — exactly the
// flow of section 5.3.2.3.
func (e *ExecutionService) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	return e.performanceResults(context.Background(), q)
}

// performanceResults is PerformanceResults under a request context.
func (e *ExecutionService) performanceResults(ctx context.Context, q perfdata.Query) ([]perfdata.Result, error) {
	if e.cache == nil {
		return e.fetchResults(ctx, q)
	}
	return e.resultsByKey(ctx, e.versionedKey(q.Key()), q)
}

// versionedKey prefixes a query key with the execution's current epoch.
// Keys are stamped once, at query start: a singleflight leader that began
// before a PublishResults or NotifyUpdate fills the cache under its
// pre-write key, which no post-write reader can look up — the stale entry
// is discarded by unreachability rather than by an explicit stamp
// comparison. Post-write readers likewise never join a pre-write flight,
// because the flights map is keyed by the versioned key too.
func (e *ExecutionService) versionedKey(key string) string {
	return strconv.FormatInt(e.epoch.Load(), 10) + "|" + key
}

// resultsByKey answers a getPR query whose cache key is already computed
// (the raw wire path derives it for GetWire; recomputing the sorted-foci
// join per lookup would tax the hot path twice).
//
// Hits take the fast path: one counting cache lookup, no instance locks —
// concurrent hits proceed in parallel on the sharded cache. Cold misses
// are singleflighted: concurrent identical queries share one
// Mapping-Layer execution instead of racing N of them before the cache
// fills. Each logical lookup is counted exactly once: the fast-path Get
// settles hit or miss; the double-checked re-lookup under the flight lock
// (which closes the window where a flight completed between the fast-path
// miss and the lock) is stats-free, and coalesced followers add no
// further counts. Uncached instances skip coalescing — with caching off,
// every query must generate real store load (the Table 5 / Figure 12
// baseline workloads depend on it).
// Context contract: a follower whose context expires abandons its wait
// without disturbing the flight (the leader still completes, fills the
// cache, and retires the flight — no orphans); a leader whose context
// has already expired retires its flight immediately with the context
// error, before the Mapping Layer is reached. A leader that expires
// mid-fetch still completes the fill — the result is complete by
// construction, so the cache never holds a half-filled entry.
func (e *ExecutionService) resultsByKey(ctx context.Context, key string, q perfdata.Query) ([]perfdata.Result, error) {
	if rs, ok := e.cache.Get(key); ok {
		return rs, nil
	}
	e.flightMu.Lock()
	if f, ok := e.flights[key]; ok {
		e.flightMu.Unlock()
		e.coalesced.Add(1)
		select {
		case <-f.done:
			return f.rs, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// A leader fills the cache before retiring its flight, so a request
	// that finds neither a flight nor (on this stats-free re-check) an
	// entry really is cold.
	if rs, ok := e.cache.getQuiet(key); ok {
		e.flightMu.Unlock()
		return rs, nil
	}
	f := &prFlight{done: make(chan struct{})}
	if e.flights == nil {
		e.flights = make(map[string]*prFlight)
	}
	e.flights[key] = f
	e.flightMu.Unlock()

	rs, err := e.fetchResults(ctx, q)
	if err == nil {
		// Fill the cache before retiring the flight, so a request arriving
		// after the flight is gone finds the entry.
		e.cache.Put(key, rs)
	}
	f.rs, f.err = rs, err
	e.flightMu.Lock()
	delete(e.flights, key)
	e.flightMu.Unlock()
	close(f.done)
	return rs, err
}

// CoalescedQueries reports how many getPR queries were answered by
// waiting on an identical in-flight query instead of executing the
// Mapping Layer themselves.
func (e *ExecutionService) CoalescedQueries() int64 { return e.coalesced.Load() }

// fetchResults reaches the Mapping Layer for a getPR query: one
// AppendPerformanceResults into a slice pre-sized from the previous
// query. The returned slice is freshly allocated — never an arena —
// because the cache (and callers) retain it.
//
// The context gate here is the "never reaches the Mapping Layer"
// boundary: an already-expired request is turned away before any store
// work begins.
func (e *ExecutionService) fetchResults(ctx context.Context, q perfdata.Query) ([]perfdata.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rs, err := e.wrapper.AppendPerformanceResults(q, make([]perfdata.Result, 0, e.resultsHint()))
	if err == nil {
		e.noteResultLen(len(rs))
	}
	// The caller (and the cache, whose byte budget charges len, not cap)
	// retains this slice: when the hint badly over-shot — a small query
	// after a large one — hand back a right-sized copy instead of pinning
	// the oversized backing array.
	if excess := cap(rs) - len(rs); excess > 32 && cap(rs) > len(rs)+len(rs)/4 {
		rs = append(make([]perfdata.Result, 0, len(rs)), rs...)
	}
	return rs, err
}

// NotifyUpdate announces an external data-store update. It retires the
// cached data exactly as the write path does (see retire: epoch bump,
// counted cache purge, discovery state dropped), then expires live paging
// cursors and notifies subscribers. The cache itself is never replaced.
func (e *ExecutionService) NotifyUpdate(message string) {
	e.retire()
	e.cursorMu.Lock()
	e.cursors, e.cursorIDs, e.cursorBytes = nil, nil, 0
	e.cursorMu.Unlock()
	if e.hub != nil {
		e.hub.Notify(UpdatesTopic, message)
	}
}

// OnDestroy implements ogsi.Destroyer (a client Destroy or the lifetime
// sweep): the instance leaves its execution's group, live cursor state is
// released, and in-flight asynchronous deliveries are flushed, so a
// drained container leaves no paged-query memory or background goroutines
// behind.
func (e *ExecutionService) OnDestroy(h gsh.Handle) {
	e.group.leave(e, h.String())
	e.cursorMu.Lock()
	e.cursors, e.cursorIDs, e.cursorBytes = nil, nil, 0
	e.cursorMu.Unlock()
	e.FlushAsync()
}

// PublishResults ingests Performance Results into every replica of the
// execution's data store — publishPR on the wire — through its group's
// one write path. Read-only stores report mapping.ErrNotWritable. On
// success a getPR through any instance can never be served a pre-write
// cached envelope (see noteWrite for the sequence).
func (e *ExecutionService) PublishResults(rs []perfdata.Result) error { return e.group.publish(rs) }

// noteWrite applies the write-visibility sequence after a publish wrote
// the execution's stores (execGroup.publish calls it): retire the cached
// data, then notify subscribers on UpdatesTopic. Unlike NotifyUpdate (an
// external whole-store reload), noteWrite leaves live paging cursors
// alone: a cursor pages a point-in-time snapshot slice, which the Cache
// sharing contract already guarantees is never mutated.
func (e *ExecutionService) noteWrite(message string) {
	e.publishes.Add(1)
	e.retire()
	if e.hub != nil {
		e.hub.Notify(UpdatesTopic, message)
	}
}

// retire makes every pre-update answer unreachable, in order:
//
//  1. Bump the epoch — every previously cached key, and every key an
//     in-flight singleflight leader will fill, becomes unreachable, and
//     later readers cannot join a pre-update flight.
//  2. Purge the cache — the retired entries' bytes release immediately
//     instead of aging out of the budget (counted into invalidated).
//  3. Drop memoized discovery state — new data can introduce new
//     metrics, foci, or types.
func (e *ExecutionService) retire() {
	e.epoch.Add(1)
	if e.cache != nil {
		e.invalidated.Add(int64(e.cache.Invalidate()))
	}
	e.mu.Lock()
	e.foci, e.metrics, e.types, e.info, e.timeRange = nil, nil, nil, nil, nil
	e.mu.Unlock()
}

// Epoch reports the execution's data generation — the number of
// store-mutating PublishResults plus NotifyUpdate calls applied to this
// instance.
func (e *ExecutionService) Epoch() int64 { return e.epoch.Load() }

// Publishes reports how many of the execution's publishes have written a
// store since this instance was created.
func (e *ExecutionService) Publishes() int64 { return e.publishes.Load() }

// Invalidations reports the cumulative number of cache entries purged by
// the write path and NotifyUpdate.
func (e *ExecutionService) Invalidations() int64 { return e.invalidated.Load() }

// engineStatser is the optional wrapper interface exposing the backing
// storage engine's counters; the minidb-backed wrappers implement it.
type engineStatser interface {
	EngineStats() minidb.EngineStats
}

// ServiceData publishes the execution's discovery sets as service data
// elements, so clients can use FindServiceData path queries (the paper's
// future-work XPath mechanism) instead of discovery calls:
//
//	FindServiceData("/metrics")               — all metric names
//	FindServiceData("/foci[value=/Process/0]") — focus existence check
func (e *ExecutionService) ServiceData() map[string][]string {
	_, writable := e.wrapper.(mapping.ResultWriter)
	out := map[string][]string{
		"executionID": {e.id},
		"caching":     {strconv.FormatBool(e.cache != nil)},
		"writable":    {strconv.FormatBool(writable)},
		"epoch":       {strconv.FormatInt(e.epoch.Load(), 10)},
		"publishes":   {strconv.FormatInt(e.publishes.Load(), 10)},
	}
	cEntries, cBytes, cEvictions := e.CursorStats()
	out["cursorEntries"] = []string{strconv.Itoa(cEntries)}
	out["cursorBytes"] = []string{strconv.FormatInt(cBytes, 10)}
	out["cursorEvictions"] = []string{strconv.FormatInt(cEvictions, 10)}
	if e.cache != nil {
		s := e.cache.Stats()
		out["cacheHits"] = []string{strconv.FormatInt(s.Hits, 10)}
		out["cacheMisses"] = []string{strconv.FormatInt(s.Misses, 10)}
		out["cacheEvictions"] = []string{strconv.FormatInt(s.Evictions, 10)}
		out["cacheEntries"] = []string{strconv.Itoa(e.cache.Len())}
		out["cacheBytes"] = []string{strconv.FormatInt(e.cache.SizeBytes(), 10)}
		out["coalescedQueries"] = []string{strconv.FormatInt(e.coalesced.Load(), 10)}
		out["cacheInvalidated"] = []string{strconv.FormatInt(e.invalidated.Load(), 10)}
		loads := e.cache.ShardLoads()
		shards := make([]string, len(loads))
		for i, l := range loads {
			shards[i] = fmt.Sprintf("shard=%d|hits=%d|misses=%d|evictions=%d|entries=%d|bytes=%d",
				i, l.Hits, l.Misses, l.Evictions, l.Entries, l.Bytes)
		}
		out["cacheShards"] = []string{strconv.Itoa(len(loads))}
		out["cacheShardLoads"] = shards
	}
	if es, ok := e.wrapper.(engineStatser); ok {
		st := es.EngineStats()
		out["engine"] = []string{st.Engine}
		if st.Engine == "disk" {
			out["pageCacheBytes"] = []string{strconv.FormatInt(st.PageCacheBytes, 10)}
			out["pageCacheHits"] = []string{strconv.FormatInt(st.PageCacheHits, 10)}
			out["pageCacheMisses"] = []string{strconv.FormatInt(st.PageCacheMisses, 10)}
			out["blocksSkipped"] = []string{strconv.FormatInt(st.BlocksSkipped, 10)}
			out["blocksScanned"] = []string{strconv.FormatInt(st.BlocksScanned, 10)}
			out["compactions"] = []string{strconv.FormatInt(st.Seals+st.Merges+st.Checkpoints, 10)}
			out["walFsyncs"] = []string{strconv.FormatInt(st.WALFsyncs, 10)}
			out["segments"] = []string{strconv.Itoa(st.Segments)}
			out["sealedRows"] = []string{strconv.Itoa(st.SealedRows)}
		}
	}
	if ms, err := e.Metrics(); err == nil {
		out["metrics"] = ms
	}
	if fs, err := e.Foci(); err == nil {
		out["foci"] = fs
	}
	if ts, err := e.Types(); err == nil {
		out["types"] = ts
	}
	if tr, err := e.TimeStartEnd(); err == nil {
		out["timeRange"] = []string{tr.Encode()}
	}
	return out
}
