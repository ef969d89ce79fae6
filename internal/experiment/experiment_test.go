package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
)

func TestSampleStats(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.COV() != 0 {
		t.Error("empty sample stats nonzero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if math.Abs(s.StdDev()-2.138) > 0.01 {
		t.Errorf("StdDev = %v", s.StdDev())
	}
	if math.Abs(s.COV()-s.StdDev()/5) > 1e-12 {
		t.Errorf("COV = %v", s.COV())
	}
	if s.Percentile(50) != 4 {
		t.Errorf("P50 = %v", s.Percentile(50))
	}
	if s.Percentile(100) != 9 {
		t.Errorf("P100 = %v", s.Percentile(100))
	}
}

func TestSpeedupAndRelativeChange(t *testing.T) {
	if Speedup(100, 50) != 2 {
		t.Errorf("Speedup = %v", Speedup(100, 50))
	}
	if Speedup(1, 0) != 0 {
		t.Error("Speedup div by zero")
	}
	if RelativeChange(100, 50) != 100 {
		t.Errorf("RelativeChange = %v", RelativeChange(100, 50))
	}
	if RelativeChange(1, 0) != 0 {
		t.Error("RelativeChange div by zero")
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Record(10*time.Millisecond, 100)
	r.Record(20*time.Millisecond, 300)
	if got := r.MeanMillis(); got != 15 {
		t.Errorf("MeanMillis = %v", got)
	}
	if got := r.MeanBytes(); got != 200 {
		t.Errorf("MeanBytes = %v", got)
	}
	if len(r.Durations()) != 2 {
		t.Error("Durations")
	}
	r.Reset()
	if r.MeanMillis() != 0 || len(r.Durations()) != 0 {
		t.Error("Reset failed")
	}
}

func TestTimedWrapperRecords(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 2, Seed: 51})
	tw := NewTimedWrapper(mapping.NewMemory(d))
	ew, err := tw.ExecutionWrapper("100")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := ew.TimeStartEnd()
	rs, err := ew.AppendPerformanceResults(perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"}, nil)
	if err != nil || len(rs) != 1 {
		t.Fatalf("getPR: %v, %v", rs, err)
	}
	durs := tw.Rec.Durations()
	if len(durs) != 1 || durs[0] <= 0 {
		t.Errorf("recorded %v", durs)
	}
	if tw.Rec.MeanBytes() <= 0 {
		t.Error("payload bytes not recorded")
	}
}

// quickCfg keeps experiment runs fast for unit tests.
func quickCfg() Config {
	return Config{
		Scale: 0.001,
		Seed:  7,
		SMG98: datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 4},
	}
}

func TestRunTable4Quick(t *testing.T) {
	report, err := RunTable4(Table4Config{Config: quickCfg(), QueriesPerSource: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != 3 {
		t.Fatalf("rows = %d", len(report.Rows))
	}
	for _, row := range report.Rows {
		if row.Queries != 6 {
			t.Errorf("%s: queries = %d", row.Source, row.Queries)
		}
		if row.MeanTotalMs <= 0 || row.MeanMappingMs <= 0 {
			t.Errorf("%s: nonpositive times %+v", row.Source, row)
		}
		if row.MeanTotalMs < row.MeanMappingMs {
			t.Errorf("%s: total %v < mapping %v", row.Source, row.MeanTotalMs, row.MeanMappingMs)
		}
		if row.BytesPerQuery <= 0 {
			t.Errorf("%s: no payload bytes", row.Source)
		}
	}
	// Payload ordering is structural, not timing-dependent: SMG > RMA > HPL.
	byName := map[string]Table4Row{}
	for _, r := range report.Rows {
		byName[r.Source] = r
	}
	if !(byName["SMG98"].BytesPerQuery > byName["RMA"].BytesPerQuery &&
		byName["RMA"].BytesPerQuery > byName["HPL"].BytesPerQuery) {
		t.Errorf("payload ordering wrong: %+v", byName)
	}
	// SMG98's mapping dominance is structural too (calibrated latency).
	if byName["SMG98"].OverheadPct >= byName["HPL"].OverheadPct {
		t.Errorf("SMG98 overhead%% %v not below HPL %v",
			byName["SMG98"].OverheadPct, byName["HPL"].OverheadPct)
	}
	text := report.Render()
	for _, want := range []string{"Table 4", "paper reference", "Shape checks", "HPL", "RMA", "SMG98"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunTable5Quick(t *testing.T) {
	report, err := RunTable5(Table5Config{Config: quickCfg(), QueriesPerRun: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != 3 {
		t.Fatalf("rows = %d", len(report.Rows))
	}
	byName := map[string]Table5Row{}
	for _, row := range report.Rows {
		byName[row.Source] = row
		if row.MeanOffMs <= 0 || row.MeanOnMs <= 0 {
			t.Errorf("%s: nonpositive means %+v", row.Source, row)
		}
		if row.Speedup < 0.9 {
			t.Errorf("%s: caching slowed queries: %+v", row.Source, row)
		}
	}
	// SMG98's caching win is structural: the calibrated mapping time is
	// skipped entirely on hits.
	if byName["SMG98"].Speedup < 2 {
		t.Errorf("SMG98 speedup = %v, want clearly > 1", byName["SMG98"].Speedup)
	}
	text := report.Render()
	if !strings.Contains(text, "Table 5") || !strings.Contains(text, "Speedup") {
		t.Error("render incomplete")
	}
}

func TestRunFigure12Quick(t *testing.T) {
	report, err := RunFigure12(Figure12Config{
		Config:          quickCfg(),
		ExecutionCounts: []int{2, 8},
		Repeats:         3,
		BatchRuns:       2,
		HostCounts:      []int{2, 4}, // 1-host baseline is prepended
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4}; !reflect.DeepEqual(report.HostCounts, want) {
		t.Fatalf("host axis = %v, want %v", report.HostCounts, want)
	}
	if len(report.Points) != 2 {
		t.Fatalf("points = %d", len(report.Points))
	}
	for _, p := range report.Points {
		for _, h := range report.HostCounts {
			if p.WallMs[h] <= 0 {
				t.Errorf("nonpositive wall time at %d execs / %d hosts: %+v", p.Executions, h, p)
			}
		}
		for _, h := range report.HostCounts[1:] {
			if p.Speedup[h] <= 0 {
				t.Errorf("nonpositive speedup at %d execs / %d hosts", p.Executions, h)
			}
		}
	}
	// getAllExecs instantiated the full dataset on every replicated
	// configuration, interleaved within ±1 (62/62 on 2 hosts, 31×4 on 4).
	for _, h := range report.HostCounts[1:] {
		counts := report.InstanceCounts[h]
		if len(counts) != h {
			t.Fatalf("%d-host instance counts = %v", h, counts)
		}
		total, lo, hi := 0, -1, -1
		for _, c := range counts {
			total += c
			if lo == -1 || c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if total != 124 {
			t.Errorf("%d hosts: instances created = %d, want 124", h, total)
		}
		if hi-lo > 1 {
			t.Errorf("%d hosts: unbalanced distribution: %v", h, counts)
		}
	}
	text := report.Render()
	for _, want := range []string{"Figure 12", "Mean speedup", "Non-Optimized", "4 hosts", "Shape checks",
		"ok        Manager interleave balances instances across 4 hosts (±1)"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestNewSourceUnknown(t *testing.T) {
	if _, err := NewSource("nope", Config{}); err == nil {
		t.Error("want error")
	}
}

func TestSourceQueryForCycles(t *testing.T) {
	src, err := NewHPLSource(Config{Scale: 0.0001, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	id0, q0 := src.QueryFor(0)
	idN, _ := src.QueryFor(len(src.Dataset.Execs))
	if id0 != idN {
		t.Error("QueryFor does not cycle")
	}
	if q0.Metric != "gflops" || q0.Type != "hpl" {
		t.Errorf("query = %+v", q0)
	}
	if len(src.ExecIDs()) != 124 {
		t.Errorf("ExecIDs = %d", len(src.ExecIDs()))
	}
}

func TestFmt(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		1234.5:   "1234.5",
		12.345:   "12.35",
		0.004567: "0.0046",
	}
	for in, want := range cases {
		if got := Fmt(in); got != want {
			t.Errorf("Fmt(%v) = %q, want %q", in, got, want)
		}
	}
}
