package core

// Tests for the wire-path features of the Execution service: paged getPR
// (a paged ogsi.Call to Serve) and the encoded-response cache
// (InvokeRawContext, Serve's path for cached instances).

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"pperfgrid/internal/container"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
	"pperfgrid/internal/wsdl"
)

// smgExecution builds an Execution service over a result set large enough
// to need several pages.
func smgExecution(t *testing.T, cache *Cache) (*ExecutionService, perfdata.Query) {
	t.Helper()
	d := datagen.SMG98(datagen.SMG98Config{Executions: 1, Processes: 4, TimeBins: 16, Seed: 5})
	w := mapping.NewMemory(d)
	ew, err := w.ExecutionWrapper("1")
	if err != nil {
		t.Fatal(err)
	}
	svc := NewExecutionService("1", ew, cache, nil)
	tr, err := svc.TimeStartEnd()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := svc.Metrics()
	if err != nil || len(metrics) == 0 {
		t.Fatalf("metrics: %v, %v", metrics, err)
	}
	return svc, perfdata.Query{Metric: metrics[0], Time: tr, Type: perfdata.UndefinedType}
}

// servePage runs one paged call through Serve and returns the page as a
// client decodes it: the values and the continuation cursor.
func servePage(ctx context.Context, svc *ExecutionService, op string, params []string, cursor string, limit int) ([]string, string, error) {
	buf := soap.GetBuffer()
	defer soap.PutBuffer(buf)
	r, err := svc.Serve(ctx, ogsi.Call{Op: op, Params: params, Paged: true, Cursor: cursor, Limit: limit}, buf)
	if err != nil || r.Raw == nil {
		return r.Values, r.Next, err
	}
	resp, err := soap.DecodeResponse(r.Raw)
	if err != nil {
		return nil, "", err
	}
	next, _ := resp.Header(ogsi.HeaderCursor)
	return resp.Returns, next, nil
}

// drainPages pages a getPR query to exhaustion and returns the
// concatenation plus the number of pages fetched.
func drainPages(t *testing.T, svc *ExecutionService, q perfdata.Query, limit int) ([]string, int) {
	t.Helper()
	var all []string
	cursor := ""
	pages := 0
	for {
		page, next, err := servePage(context.Background(), svc, OpGetPR, q.WireParams(), cursor, limit)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if limit > 0 && len(page) > limit {
			t.Fatalf("page of %d values exceeds limit %d", len(page), limit)
		}
		all = append(all, page...)
		if next == "" {
			return all, pages
		}
		cursor = next
	}
}

// TestPagedGetPRDifferential: the concatenation of pages must be
// byte-identical to the unpaged reply, for several page sizes.
func TestPagedGetPRDifferential(t *testing.T) {
	svc, q := smgExecution(t, nil)
	unpaged, err := svc.Invoke(OpGetPR, q.WireParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(unpaged) < 20 {
		t.Fatalf("result set too small (%d) to exercise paging", len(unpaged))
	}
	for _, limit := range []int{1, 7, len(unpaged) - 1, len(unpaged), len(unpaged) + 1, 0} {
		paged, pages := drainPages(t, svc, q, limit)
		if strings.Join(paged, "\x00") != strings.Join(unpaged, "\x00") {
			t.Fatalf("limit %d: paged result differs from unpaged", limit)
		}
		if limit > 0 && limit < len(unpaged) {
			want := (len(unpaged) + limit - 1) / limit
			if pages != want {
				t.Errorf("limit %d: %d pages, want %d", limit, pages, want)
			}
		}
	}
}

// TestPagedGetPRCursorLifecycle: cursors are single-use state — exhausted
// and unknown cursors fail, and a data update expires live cursors.
func TestPagedGetPRCursorLifecycle(t *testing.T) {
	svc, q := smgExecution(t, nil)
	_, next, err := servePage(context.Background(), svc, OpGetPR, q.WireParams(), "", 5)
	if err != nil || next == "" {
		t.Fatalf("open cursor: %q, %v", next, err)
	}
	if _, _, err := servePage(context.Background(), svc, OpGetPR, nil, "no-such-cursor", 5); err == nil {
		t.Error("unknown cursor accepted")
	}
	svc.NotifyUpdate("store changed")
	if _, _, err := servePage(context.Background(), svc, OpGetPR, nil, next, 5); err == nil {
		t.Error("cursor survived a data update")
	}
}

// TestPagedGetPRCursorEviction: opening more paged sets than the bound
// expires the oldest instead of growing without limit.
func TestPagedGetPRCursorEviction(t *testing.T) {
	svc, q := smgExecution(t, nil)
	_, oldest, err := servePage(context.Background(), svc, OpGetPR, q.WireParams(), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxLiveCursors; i++ {
		if _, _, err := servePage(context.Background(), svc, OpGetPR, q.WireParams(), "", 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := servePage(context.Background(), svc, OpGetPR, nil, oldest, 1); err == nil {
		t.Error("oldest cursor survived eviction beyond the bound")
	}
}

// TestPagedOtherOpsSinglePage: non-getPR operations page as one terminal
// page with the plain Invoke result.
func TestPagedOtherOpsSinglePage(t *testing.T) {
	svc, _ := smgExecution(t, nil)
	want, err := svc.Invoke(OpGetFoci, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, next, err := servePage(context.Background(), svc, OpGetFoci, nil, "", 2)
	if err != nil || next != "" {
		t.Fatalf("paged getFoci: next=%q err=%v", next, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("paged getFoci = %v, want %v", got, want)
	}
}

// TestInvokeRawServesEncodedCache is the encoded-response cache
// acceptance test: the first getPR encodes the SOAP envelope exactly
// once, and every repeat is served from the cache with zero XML
// marshalling — proven by the encode counter staying flat and by the
// repeat returning the very same byte slice.
func TestInvokeRawServesEncodedCache(t *testing.T) {
	svc, q := smgExecution(t, NewCache(0))
	first, ok, err := svc.InvokeRawContext(context.Background(), OpGetPR, q.WireParams())
	if err != nil || !ok {
		t.Fatalf("first InvokeRaw: ok=%v err=%v", ok, err)
	}
	if svc.WireEncodes() != 1 {
		t.Fatalf("first call encoded %d envelopes, want 1", svc.WireEncodes())
	}
	second, ok, err := svc.InvokeRawContext(context.Background(), OpGetPR, q.WireParams())
	if err != nil || !ok {
		t.Fatalf("second InvokeRaw: ok=%v err=%v", ok, err)
	}
	if svc.WireEncodes() != 1 {
		t.Errorf("repeat query re-encoded: %d envelopes", svc.WireEncodes())
	}
	if &first[0] != &second[0] {
		t.Error("repeat did not return the cached byte slice")
	}
	// The cached envelope must decode to exactly the unpaged Invoke reply.
	resp, err := soap.DecodeResponse(second)
	if err != nil || resp.Operation != OpGetPR {
		t.Fatalf("cached envelope: %v, %v", resp, err)
	}
	want, err := svc.Invoke(OpGetPR, q.WireParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Returns, want) {
		t.Error("cached envelope decodes to different results")
	}
	if hits := svc.CacheStats().Hits; hits < 1 {
		t.Errorf("wire hits not counted: %+v", svc.CacheStats())
	}
}

// TestInvokeRawDeclinesWithoutCache: with caching off the raw path must
// decline so the container falls back to plain Invoke.
func TestInvokeRawDeclinesWithoutCache(t *testing.T) {
	svc, q := smgExecution(t, nil)
	if _, ok, err := svc.InvokeRawContext(context.Background(), OpGetPR, q.WireParams()); ok || err != nil {
		t.Fatalf("raw path should decline without a cache: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := svc.InvokeRawContext(context.Background(), OpGetFoci, nil); ok {
		t.Error("raw path should decline non-getPR operations")
	}
}

// TestInvokeRawAfterDecodedWarm: a query first answered through the plain
// path (decoded results cached, no wire bytes) gets its envelope attached
// on the first raw call and served from cache on the second.
func TestInvokeRawAfterDecodedWarm(t *testing.T) {
	svc, q := smgExecution(t, NewCache(0))
	if _, err := svc.PerformanceResults(q); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := svc.InvokeRawContext(context.Background(), OpGetPR, q.WireParams()); !ok || err != nil {
		t.Fatalf("raw after warm: ok=%v err=%v", ok, err)
	}
	if svc.WireEncodes() != 1 {
		t.Fatalf("encodes = %d, want 1", svc.WireEncodes())
	}
	if _, ok, err := svc.InvokeRawContext(context.Background(), OpGetPR, q.WireParams()); !ok || err != nil {
		t.Fatalf("raw repeat: ok=%v err=%v", ok, err)
	}
	if svc.WireEncodes() != 1 {
		t.Errorf("repeat re-encoded: %d", svc.WireEncodes())
	}
}

// TestNotifyUpdateDropsWire: a data update must not leave stale encoded
// envelopes behind.
func TestNotifyUpdateDropsWire(t *testing.T) {
	svc, q := smgExecution(t, NewCache(0))
	if _, ok, err := svc.InvokeRawContext(context.Background(), OpGetPR, q.WireParams()); !ok || err != nil {
		t.Fatal(err)
	}
	svc.NotifyUpdate("store changed")
	if _, ok, err := svc.InvokeRawContext(context.Background(), OpGetPR, q.WireParams()); !ok || err != nil {
		t.Fatal(err)
	}
	if svc.WireEncodes() != 2 {
		t.Errorf("encodes after invalidation = %d, want 2", svc.WireEncodes())
	}
}

// TestMalformedGetPROneFault: a getPR with too few parameters fails WSDL
// validation with the same arity fault on the unpaged and paged
// protocols, on cached and uncached instances alike.
func TestMalformedGetPROneFault(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 34})
	var faults []string
	for _, cachingOff := range []bool{false, true} {
		w, err := mapping.NewWideTable(d)
		if err != nil {
			t.Fatal(err)
		}
		site, err := StartSite(SiteConfig{AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}, CachingOff: cachingOff})
		if err != nil {
			t.Fatal(err)
		}
		defer site.Close()
		app, err := container.Dial(site.ApplicationFactoryHandle()).CreateService()
		if err != nil {
			t.Fatal(err)
		}
		handles, err := app.Call(OpGetAllExecs)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := container.DialString(handles[0])
		if err != nil {
			t.Fatal(err)
		}
		_, unpaged := exec.Call(OpGetPR, "gflops")
		_, paged := exec.Serve(context.Background(), ogsi.Call{Op: OpGetPR, Params: []string{"gflops"}, Paged: true, Limit: 4}, nil)
		for _, err := range []error{unpaged, paged} {
			var fault *soap.Fault
			if !errors.As(err, &fault) || !strings.Contains(fault.String, wsdl.ErrBadArity.Error()) {
				t.Fatalf("caching off=%v: %v, want the WSDL arity fault", cachingOff, err)
			}
			faults = append(faults, fault.String)
		}
	}
	for _, f := range faults[1:] {
		if f != faults[0] {
			t.Errorf("faults differ across protocols and caching: %q", faults)
		}
	}
}
