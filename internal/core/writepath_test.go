package core

// Differential write-oracle suite for the live write path (publishPR):
// after ANY interleaving of writes and reads — fixed adversarial
// schedules and a seeded randomized interleaver — every getPR answer
// from the live, cached, incrementally-updated service must be
// byte-identical to a service over a store rebuilt from scratch with the
// final dataset. The comparison covers all read paths (decoded results,
// the raw cached-envelope path, the paged protocol) and all three store
// shapes of the paper (star, wide table, flat file) plus the memory
// reference, so incremental index maintenance, cache-epoch
// invalidation, and envelope freshness are all pinned against the same
// rebuild-from-scratch ground truth.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
)

// copyDataset deep-copies a generated dataset so live writes and oracle
// rebuilds never share mutable state.
func copyDataset(d *datagen.Dataset) *datagen.Dataset {
	out := &datagen.Dataset{Name: d.Name, Meta: append([]perfdata.KV(nil), d.Meta...)}
	for _, e := range d.Execs {
		attrs := make(map[string]string, len(e.Attrs))
		for k, v := range e.Attrs {
			attrs[k] = v
		}
		out.Execs = append(out.Execs, datagen.Execution{
			ID: e.ID, Attrs: attrs, Time: e.Time,
			Results: append([]perfdata.Result(nil), e.Results...),
		})
	}
	return out
}

// writeShape is one store shape under write-path test: a base dataset,
// a builder, an ordered pool of publishable results (each valid exactly
// once — the wide table's one-cell-per-metric semantics forbid reuse),
// and a query pool that collectively observes the base data and every
// write.
type writeShape struct {
	name    string
	base    *datagen.Dataset
	execID  string
	build   func(d *datagen.Dataset) (mapping.ApplicationWrapper, error)
	writes  []perfdata.Result
	queries []perfdata.Query
}

// wideWritableDataset is a hand-built wide-table dataset with NULL metric
// cells: execution 100 starts with only gflops, so the other metric
// columns (present via execution 101) are publishable exactly once.
func wideWritableDataset() *datagen.Dataset {
	t100 := perfdata.TimeRange{Start: 0, End: 10}
	t101 := perfdata.TimeRange{Start: 0, End: 12}
	return &datagen.Dataset{
		Name: "HPLW",
		Meta: []perfdata.KV{{Name: "name", Value: "HPLW"}},
		Execs: []datagen.Execution{
			{
				ID:    "100",
				Attrs: map[string]string{"numprocesses": "4", "machine": "mcnary"},
				Time:  t100,
				Results: []perfdata.Result{
					{Metric: "gflops", Focus: "/", Type: "hpl", Time: t100, Value: 3.5},
				},
			},
			{
				ID:    "101",
				Attrs: map[string]string{"numprocesses": "8", "machine": "mcnary"},
				Time:  t101,
				Results: []perfdata.Result{
					{Metric: "gflops", Focus: "/", Type: "hpl", Time: t101, Value: 6.75},
					{Metric: "runtimesec", Focus: "/", Type: "hpl", Time: t101, Value: 812.5},
					{Metric: "residual", Focus: "/", Type: "hpl", Time: t101, Value: 2e-12},
					{Metric: "iotime", Focus: "/", Type: "hpl", Time: t101, Value: 4.25},
				},
			},
		},
	}
}

func writeShapes(t *testing.T) []writeShape {
	t.Helper()
	smg := datagen.SMG98(datagen.SMG98Config{Executions: 1, Processes: 2, TimeBins: 4, Seed: 7})
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 6, Seed: 8})
	wide := wideWritableDataset()
	smgTime := smg.Execs[0].Time
	rmaTime := rma.Execs[0].Time
	w100Time := wide.Execs[0].Time

	flatWrites := []perfdata.Result{
		{Metric: "bandwidth", Focus: "/Comm/put/msgsize/1048576", Type: "presta", Time: perfdata.TimeRange{Start: 250, End: 260}, Value: 238.5},
		{Metric: "latency", Focus: "/Comm/put/msgsize/1048576", Type: "presta", Time: perfdata.TimeRange{Start: 250, End: 260}, Value: 5832.25},
		{Metric: "bandwidth", Focus: "/Comm/get/msgsize/1048576", Type: "presta", Time: perfdata.TimeRange{Start: 260, End: 270}, Value: 229.25},
		{Metric: "jitter", Focus: "/Comm/put/msgsize/8", Type: "presta2", Time: perfdata.TimeRange{Start: 10, End: 20}, Value: 0.125},
		{Metric: "bandwidth", Focus: "/Comm/put/msgsize/2097152", Type: "presta", Time: perfdata.TimeRange{Start: 270, End: 280}, Value: 239.875},
	}
	flatQueries := []perfdata.Query{
		{Metric: "bandwidth", Time: rmaTime, Type: perfdata.UndefinedType},
		{Metric: "bandwidth", Foci: []string{"/Comm/put"}, Time: rmaTime, Type: perfdata.UndefinedType},
		{Metric: "jitter", Time: rmaTime, Type: perfdata.UndefinedType},
		{Metric: "latency", Foci: []string{"/Comm/put/msgsize/1048576"}, Time: perfdata.TimeRange{Start: 200, End: 300}, Type: perfdata.UndefinedType},
	}

	return []writeShape{
		{
			name:   "SMG98-star",
			base:   smg,
			execID: smg.Execs[0].ID,
			build: func(d *datagen.Dataset) (mapping.ApplicationWrapper, error) {
				return mapping.NewStar(d)
			},
			writes: []perfdata.Result{
				// Existing dimensions: pure fact-table append.
				{Metric: "func_calls", Focus: "/Process/0/Code/MPI/MPI_Send", Type: "vampir", Time: perfdata.TimeRange{Start: 1, End: 2}, Value: 41},
				// New focus: dimension interning on the live path must
				// assign the same ID the from-scratch load does.
				{Metric: "func_calls", Focus: "/Process/7/Code/MPI/MPI_Send", Type: "vampir", Time: perfdata.TimeRange{Start: 2, End: 3}, Value: 13},
				// New metric AND new collector type in one result.
				{Metric: "watts", Focus: "/Process/0", Type: "powertool", Time: perfdata.TimeRange{Start: 0, End: 5}, Value: 99.5},
				{Metric: "excl_time", Focus: "/Process/1/Code/MPI/MPI_Recv", Type: "vampir", Time: perfdata.TimeRange{Start: 3, End: 4}, Value: 0.25},
				{Metric: "func_calls", Focus: "/Process/7/Code/MPI/MPI_Send", Type: "vampir", Time: perfdata.TimeRange{Start: 4, End: 5}, Value: 8},
			},
			queries: []perfdata.Query{
				{Metric: "func_calls", Time: smgTime, Type: perfdata.UndefinedType},
				{Metric: "func_calls", Foci: []string{"/Process/7"}, Time: smgTime, Type: perfdata.UndefinedType},
				{Metric: "watts", Time: smgTime, Type: perfdata.UndefinedType},
				{Metric: "excl_time", Foci: []string{"/Process/1"}, Time: smgTime, Type: perfdata.UndefinedType},
			},
		},
		{
			name:   "HPL-wide",
			base:   wide,
			execID: "100",
			build: func(d *datagen.Dataset) (mapping.ApplicationWrapper, error) {
				return mapping.NewWideTable(d)
			},
			writes: []perfdata.Result{
				{Metric: "runtimesec", Focus: "/", Type: "hpl", Time: w100Time, Value: 655.25},
				{Metric: "residual", Focus: "/", Type: "hpl", Time: w100Time, Value: 3e-12},
				{Metric: "iotime", Focus: "", Type: "hpl", Time: w100Time, Value: 1.5},
			},
			queries: []perfdata.Query{
				{Metric: "gflops", Time: w100Time, Type: perfdata.UndefinedType},
				{Metric: "runtimesec", Time: w100Time, Type: perfdata.UndefinedType},
				{Metric: "residual", Time: w100Time, Type: perfdata.UndefinedType},
				{Metric: "iotime", Time: w100Time, Type: perfdata.UndefinedType},
			},
		},
		{
			name:   "RMA-flat",
			base:   rma,
			execID: rma.Execs[0].ID,
			build: func(d *datagen.Dataset) (mapping.ApplicationWrapper, error) {
				return mapping.NewFlatFile(d)
			},
			writes:  flatWrites,
			queries: flatQueries,
		},
		{
			name:   "RMA-memory",
			base:   rma,
			execID: rma.Execs[0].ID,
			build: func(d *datagen.Dataset) (mapping.ApplicationWrapper, error) {
				return mapping.NewMemory(d), nil
			},
			writes:  flatWrites,
			queries: flatQueries,
		},
	}
}

// newLiveService builds the live, cached service under test for a shape.
func newLiveService(t *testing.T, shape writeShape) *ExecutionService {
	t.Helper()
	w, err := shape.build(copyDataset(shape.base))
	if err != nil {
		t.Fatal(err)
	}
	ew, err := w.ExecutionWrapper(shape.execID)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	return NewExecutionService(shape.execID, ew, cache, nil)
}

// buildOracle rebuilds the shape's store from scratch with the given
// writes already part of the dataset, and returns an uncached service
// over it — the ground truth every live read is compared against.
func buildOracle(t *testing.T, shape writeShape, writes []perfdata.Result) *ExecutionService {
	t.Helper()
	d := copyDataset(shape.base)
	for i := range d.Execs {
		if d.Execs[i].ID == shape.execID {
			d.Execs[i].Results = append(d.Execs[i].Results, writes...)
		}
	}
	w, err := shape.build(d)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := w.ExecutionWrapper(shape.execID)
	if err != nil {
		t.Fatal(err)
	}
	return NewExecutionService(shape.execID, ew, nil, nil)
}

// encodeJoined renders a result set in canonical wire form for equality
// checks (nil and empty both render empty).
func encodeJoined(rs []perfdata.Result) string {
	return strings.Join(perfdata.EncodeResults(rs), "\n")
}

// checkRead compares every read path of the live service against the
// rebuild-from-scratch oracle for one query: the decoded result set, the
// raw wire envelope (twice — the second must come from the cached
// envelope with zero additional encodes), and the paged protocol.
func checkRead(t *testing.T, live, oracle *ExecutionService, q perfdata.Query, ctx string) {
	t.Helper()
	wantRs, err := oracle.PerformanceResults(q)
	if err != nil {
		t.Fatalf("%s: oracle query %q: %v", ctx, q.Key(), err)
	}
	want := encodeJoined(wantRs)

	gotRs, err := live.PerformanceResults(q)
	if err != nil {
		t.Fatalf("%s: live query %q: %v", ctx, q.Key(), err)
	}
	if got := encodeJoined(gotRs); got != want {
		t.Fatalf("%s: query %q diverges from rebuilt store:\nlive   (%d results)\noracle (%d results)\nlive:\n%s\noracle:\n%s",
			ctx, q.Key(), len(gotRs), len(wantRs), got, want)
	}

	wantEnv, err := soap.EncodeResponse(OpGetPR, nil, perfdata.EncodeResults(wantRs))
	if err != nil {
		t.Fatal(err)
	}
	raw, handled, err := live.InvokeRawContext(context.Background(), OpGetPR, q.WireParams())
	if err != nil || !handled {
		t.Fatalf("%s: InvokeRaw %q: handled=%v err=%v", ctx, q.Key(), handled, err)
	}
	if !bytes.Equal(raw, wantEnv) {
		t.Fatalf("%s: wire envelope for %q is stale or diverges (%d bytes, oracle %d bytes)", ctx, q.Key(), len(raw), len(wantEnv))
	}
	before := live.WireEncodes()
	raw2, handled, err := live.InvokeRawContext(context.Background(), OpGetPR, q.WireParams())
	if err != nil || !handled {
		t.Fatalf("%s: repeat InvokeRaw %q: handled=%v err=%v", ctx, q.Key(), handled, err)
	}
	if !bytes.Equal(raw2, wantEnv) {
		t.Fatalf("%s: cached envelope for %q is stale", ctx, q.Key())
	}
	if live.WireEncodes() != before {
		t.Fatalf("%s: repeat raw read of %q re-encoded the envelope instead of serving the cached bytes", ctx, q.Key())
	}

	var paged []string
	page, next, err := servePage(context.Background(), live, OpGetPR, q.WireParams(), "", 3)
	for {
		if err != nil {
			t.Fatalf("%s: paged read %q: %v", ctx, q.Key(), err)
		}
		paged = append(paged, page...)
		if next == "" {
			break
		}
		page, next, err = servePage(context.Background(), live, OpGetPR, q.WireParams(), next, 3)
	}
	if got := strings.Join(paged, "\n"); got != want {
		t.Fatalf("%s: paged read of %q diverges from rebuilt store", ctx, q.Key())
	}
}

// publishBatch applies one write batch through either the in-process API
// or the full publishPR wire operation.
func publishBatch(t *testing.T, svc *ExecutionService, rs []perfdata.Result, overWire bool, ctx string) {
	t.Helper()
	if overWire {
		out, err := svc.Invoke(OpPublishPR, perfdata.EncodeResults(rs))
		if err != nil {
			t.Fatalf("%s: publishPR: %v", ctx, err)
		}
		if len(out) != 1 || out[0] != strconv.Itoa(len(rs)) {
			t.Fatalf("%s: publishPR returned %v, want [%d]", ctx, out, len(rs))
		}
		return
	}
	if err := svc.PublishResults(rs); err != nil {
		t.Fatalf("%s: PublishResults: %v", ctx, err)
	}
}

// TestWriteOracleFixedSchedules runs hand-picked adversarial schedules —
// the stale-envelope trap (read, cache, write, re-read), back-to-back
// writes with no read between, and publishes over the wire operation —
// on every store shape, checking each read against the rebuilt oracle.
func TestWriteOracleFixedSchedules(t *testing.T) {
	for _, shape := range writeShapes(t) {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			live := newLiveService(t, shape)
			oracle := buildOracle(t, shape, nil)

			// Warm every query twice: the second pass is served from the
			// cache, so the envelopes about to be invalidated are real.
			for pass := 0; pass < 2; pass++ {
				for _, q := range shape.queries {
					checkRead(t, live, oracle, q, fmt.Sprintf("pre-write pass %d", pass))
				}
			}
			if live.Epoch() != 0 || live.Publishes() != 0 {
				t.Fatalf("reads moved the epoch: epoch=%d publishes=%d", live.Epoch(), live.Publishes())
			}

			// The stale-envelope trap: one write, then every cached query
			// must answer with post-write bytes.
			publishBatch(t, live, shape.writes[:1], false, "write 1")
			oracle = buildOracle(t, shape, shape.writes[:1])
			for pass := 0; pass < 2; pass++ {
				for _, q := range shape.queries {
					checkRead(t, live, oracle, q, fmt.Sprintf("after write 1 pass %d", pass))
				}
			}

			// Back-to-back writes (one per result, no reads between), over
			// the wire operation, then re-verify everything.
			for i, w := range shape.writes[1:] {
				publishBatch(t, live, []perfdata.Result{w}, true, fmt.Sprintf("write %d", i+2))
			}
			oracle = buildOracle(t, shape, shape.writes)
			for pass := 0; pass < 2; pass++ {
				for _, q := range shape.queries {
					checkRead(t, live, oracle, q, fmt.Sprintf("final pass %d", pass))
				}
			}

			wantPublishes := int64(len(shape.writes))
			if live.Publishes() != wantPublishes || live.Epoch() != wantPublishes {
				t.Fatalf("counters: publishes=%d epoch=%d, want both %d", live.Publishes(), live.Epoch(), wantPublishes)
			}

			// An empty publish is a no-op: no store touch, no epoch bump.
			publishBatch(t, live, nil, false, "empty write")
			if live.Epoch() != wantPublishes {
				t.Fatalf("empty publish bumped the epoch to %d", live.Epoch())
			}
		})
	}
}

// TestWriteOracleRandomizedInterleaving is the seeded fuzz interleaver:
// random read/write schedules per shape, every read checked on all
// paths against the rebuilt oracle. Schedules are fully determined by
// the seed — a failure message names the seed and op index, and re-
// running the test replays the identical schedule.
func TestWriteOracleRandomizedInterleaving(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, shape := range writeShapes(t) {
			shape := shape
			t.Run(fmt.Sprintf("%s/seed=%d", shape.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				live := newLiveService(t, shape)
				oracle := buildOracle(t, shape, nil)
				applied := 0
				const ops = 40
				for op := 0; op < ops; op++ {
					ctx := fmt.Sprintf("seed=%d op=%d (deterministic: re-run replays this schedule)", seed, op)
					if applied < len(shape.writes) && rng.Float64() < 0.3 {
						n := 1
						if applied+1 < len(shape.writes) && rng.Float64() < 0.4 {
							n = 2
						}
						publishBatch(t, live, shape.writes[applied:applied+n], rng.Float64() < 0.5, ctx)
						applied += n
						oracle = buildOracle(t, shape, shape.writes[:applied])
						continue
					}
					q := shape.queries[rng.Intn(len(shape.queries))]
					checkRead(t, live, oracle, q, ctx)
				}
				// Drain the write pool and verify the final state once more.
				if applied < len(shape.writes) {
					publishBatch(t, live, shape.writes[applied:], false, "drain")
					oracle = buildOracle(t, shape, shape.writes)
				}
				for _, q := range shape.queries {
					checkRead(t, live, oracle, q, fmt.Sprintf("seed=%d final", seed))
				}
			})
		}
	}
}

// TestWritePathCursorSnapshot pins the documented paging semantics
// across writes: a cursor opened before a publish keeps serving its
// point-in-time snapshot (unlike NotifyUpdate, which expires cursors),
// while a page sequence opened after the publish sees the new data.
func TestWritePathCursorSnapshot(t *testing.T) {
	shape := writeShapes(t)[0] // star
	live := newLiveService(t, shape)
	q := shape.queries[0]
	preOracle := buildOracle(t, shape, nil)
	preRs, err := preOracle.PerformanceResults(q)
	if err != nil {
		t.Fatal(err)
	}

	limit := len(preRs)/2 + 1
	var got []string
	page, next, err := servePage(context.Background(), live, OpGetPR, q.WireParams(), "", limit)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, page...)
	if next == "" {
		t.Fatalf("result set of %d rows did not page at limit %d", len(preRs), limit)
	}

	publishBatch(t, live, shape.writes, false, "mid-cursor write")

	for next != "" {
		page, next, err = servePage(context.Background(), live, OpGetPR, q.WireParams(), next, limit)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
	}
	if strings.Join(got, "\n") != encodeJoined(preRs) {
		t.Fatal("pre-write cursor did not serve its point-in-time snapshot")
	}

	// A fresh page sequence observes the write.
	postOracle := buildOracle(t, shape, shape.writes)
	checkRead(t, live, postOracle, q, "post-write paging")
}
