package mapping

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
)

// randPRQuery composes one getPR query over a dataset, mixing exact and
// non-matching metrics/types, partial time windows, and focus filters —
// the shapes the appender and its reference models must agree on.
func randPRQuery(rng *rand.Rand, d *datagen.Dataset) perfdata.Query {
	e := d.Execs[rng.Intn(len(d.Execs))]
	var metrics, foci, types []string
	for _, r := range e.Results {
		metrics = append(metrics, r.Metric)
		foci = append(foci, r.Focus)
		types = append(types, r.Type)
	}
	metrics = append(metrics, "no_such_metric")
	types = append(types, perfdata.UndefinedType, "no_such_type")
	q := perfdata.Query{
		Metric: metrics[rng.Intn(len(metrics))],
		Type:   types[rng.Intn(len(types))],
		Time:   e.Time,
	}
	switch rng.Intn(4) {
	case 0: // narrow window
		span := e.Time.End - e.Time.Start
		q.Time = perfdata.TimeRange{
			Start: e.Time.Start + span*rng.Float64()*0.5,
			End:   e.Time.End - span*rng.Float64()*0.4,
		}
	case 1: // disjoint window
		q.Time = perfdata.TimeRange{Start: e.Time.End + 10, End: e.Time.End + 20}
	}
	if len(foci) > 0 && rng.Intn(2) == 0 {
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			f := foci[rng.Intn(len(foci))]
			if rng.Intn(2) == 0 {
				// Query an ancestor, exercising subtree matching.
				if j := lastSlash(f); j > 0 {
					f = f[:j]
				}
			}
			q.Foci = append(q.Foci, f)
		}
	}
	return q
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// rowOracle is the row-at-a-time reference decode of the relational
// getPR: the wrapper's own plan (starExec.planPR, wideExec.prPlan)
// consumed one rows.Next() at a time, each row decoded into a Result.
// AppendPerformanceResults consumes the same plan through NextBatch.
func rowOracle(t *testing.T, ew ExecutionWrapper, q perfdata.Query) []perfdata.Result {
	t.Helper()
	var (
		st     *minidb.Stmt
		args   []minidb.Value
		decode func(row []minidb.Value) perfdata.Result
	)
	switch e := ew.(type) {
	case *starExec:
		plan, ok, err := e.planPR(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return nil
		}
		st, args = plan.st, plan.args
		decode = func(row []minidb.Value) perfdata.Result {
			start, _ := row[1].AsFloat()
			end, _ := row[2].AsFloat()
			val, _ := row[3].AsFloat()
			return perfdata.Result{
				Metric: q.Metric, Focus: row[0].String(), Type: plan.typeNames[row[4].Int],
				Time: perfdata.TimeRange{Start: start, End: end}, Value: val,
			}
		}
	case *wideExec:
		var ok bool
		var err error
		st, ok, err = e.prPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return nil
		}
		args = []minidb.Value{minidb.Text(e.id)}
		decode = func(row []minidb.Value) perfdata.Result {
			val, _ := row[0].AsFloat()
			start, _ := row[1].AsFloat()
			end, _ := row[2].AsFloat()
			return perfdata.Result{
				Metric: q.Metric, Focus: "/", Type: row[3].String(),
				Time: perfdata.TimeRange{Start: start, End: end}, Value: val,
			}
		}
	default:
		t.Fatalf("no row oracle for %T", ew)
	}
	rows, err := st.QueryStream(args...)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []perfdata.Result
	for rows.Next() {
		if r := decode(rows.Row()); q.Matches(r) {
			out = append(out, r)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAppenderMatchesStreamOracle pins every wrapper's
// AppendPerformanceResults to a reference model — same results, same
// order: the relational wrappers to the row-at-a-time rowOracle, the
// flat-file and XML wrappers to the Memory wrapper over the same
// dataset. It also pins PerformanceResults to AppendPerformanceResults(q,
// nil) and the append contract (dst's prefix survives).
func TestAppenderMatchesStreamOracle(t *testing.T) {
	datasets := map[string]*datagen.Dataset{
		"hpl":   datagen.HPL(datagen.HPLConfig{Executions: 8, Seed: 31}),
		"rma":   datagen.PrestaRMA(datagen.RMAConfig{Executions: 3, MessageSizes: 6, Seed: 32}),
		"smg98": datagen.SMG98(datagen.SMG98Config{Executions: 3, Processes: 2, TimeBins: 4, Seed: 33}),
	}
	for dname, d := range datasets {
		d := d
		t.Run(dname, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(dname)) * 6151))
			mem := NewMemory(d)
			for wname, w := range wrapperSet(t, d) {
				if wname == "memory" {
					continue // the reference itself
				}
				nonEmpty := 0
				for _, e := range d.Execs {
					ew, err := w.ExecutionWrapper(e.ID)
					if err != nil {
						t.Fatalf("%s: %v", wname, err)
					}
					ref, err := mem.ExecutionWrapper(e.ID)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 25; i++ {
						q := randPRQuery(rng, d)
						var want []perfdata.Result
						switch wname {
						case "star", "wide":
							want = rowOracle(t, ew, q)
						default:
							if want, err = ref.AppendPerformanceResults(q, nil); err != nil {
								t.Fatal(err)
							}
						}
						prefix := []perfdata.Result{{Metric: "sentinel"}}
						got, err := ew.AppendPerformanceResults(q, prefix)
						if err != nil {
							t.Fatalf("%s appender: %v", wname, err)
						}
						if len(got) < 1 || got[0].Metric != "sentinel" {
							t.Fatalf("%s appender clobbered dst prefix", wname)
						}
						got = got[1:]
						if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
							t.Fatalf("%s %s divergence for %+v:\nappender %v\noracle   %v",
								dname, wname, q, got, want)
						}
						pr, err := ew.PerformanceResults(q)
						if err != nil {
							t.Fatalf("%s PerformanceResults: %v", wname, err)
						}
						if len(pr) != len(got) || (len(got) > 0 && !reflect.DeepEqual(pr, got)) {
							t.Fatalf("%s PerformanceResults diverges from its appender for %+v", wname, q)
						}
						if len(got) > 0 {
							nonEmpty++
						}
					}
				}
				if nonEmpty == 0 {
					t.Fatalf("%s: every query matched nothing; the comparison is vacuous", wname)
				}
			}
		})
	}
}

// TestLatencyAppenderForwards pins the Latency decorator's appender:
// results flow through unchanged and the per-result delay is charged.
func TestLatencyAppenderForwards(t *testing.T) {
	d := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 8, Seed: 34})
	flat, err := NewFlatFile(d)
	if err != nil {
		t.Fatal(err)
	}
	lw := WithLatency(flat, 0, 200*time.Microsecond)
	ew, err := lw.ExecutionWrapper(d.Execs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	q := perfdata.Query{Metric: "bandwidth", Time: d.Execs[0].Time, Type: perfdata.UndefinedType}
	want, err := ew.PerformanceResults(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("representative query matched nothing; per-result delay untestable")
	}
	start := time.Now()
	got, err := ew.AppendPerformanceResults(q, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("latency appender diverges:\n%v\n%v", got, want)
	}
	if min := time.Duration(len(want)) * 200 * time.Microsecond; elapsed < min {
		t.Fatalf("per-result delay not charged: %v < %v", elapsed, min)
	}
}

// TestResultArenaReuse pins the arena contract: a recycled arena comes
// back empty, holds no stale references, grows to the hint, and the
// warmed Get/append/Put cycle allocates nothing.
func TestResultArenaReuse(t *testing.T) {
	a := GetResultArena(8)
	if len(*a) != 0 || cap(*a) < 8 {
		t.Fatalf("fresh arena len=%d cap=%d", len(*a), cap(*a))
	}
	*a = append(*a, perfdata.Result{Metric: "x"})
	PutResultArena(a)
	b := GetResultArena(4)
	if len(*b) != 0 {
		t.Fatalf("recycled arena not empty: len=%d", len(*b))
	}
	if cap(*b) > 0 {
		if r := (*b)[:1][0]; r.Metric != "" {
			t.Fatalf("recycled arena retains stale contents: %+v", r)
		}
	}
	PutResultArena(b)
	if n := testing.AllocsPerRun(100, func() {
		p := GetResultArena(8)
		*p = append(*p, perfdata.Result{Metric: "y"})
		PutResultArena(p)
	}); n != 0 {
		t.Fatalf("warmed arena cycle allocates %.1f times per run, want 0", n)
	}
}
