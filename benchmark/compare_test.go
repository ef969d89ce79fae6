package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// stubRuns measures a stub op that takes opTime of busy work, in a few
// short closed-loop windows, and returns the runs as a result file would
// hold them.
func stubRuns(t *testing.T, opTime time.Duration, fail bool) []*Result {
	t.Helper()
	var runs []*Result
	for i := 0; i < 3; i++ {
		gens := []*Gen{newGen(genShape{workload: wlAnalytic}, int64(i), 0)}
		w := closedLoop(gens, 100*time.Millisecond, 1<<12, func(int, Op) opOutcome {
			for t0 := time.Now(); time.Since(t0) < opTime; {
			}
			return opOutcome{rows: 10}
		})
		if fail {
			w.attempted++
			w.failed++
		}
		res := newResult(wlAnalytic, false, int64(i), 0.1)
		w.report(res)
		res.Metrics["setup_s"], res.Metrics["peak_rss_mb"] = 1, 100
		runs = append(runs, res)
	}
	return runs
}

func TestCompareCatchesASlowerOp(t *testing.T) {
	spec, err := loadSpec(findRoot())
	if err != nil {
		t.Fatal(err)
	}
	fast := stubRuns(t, 200*time.Microsecond, false)
	slow := stubRuns(t, 400*time.Microsecond, false)

	var out bytes.Buffer
	if code := compareRuns(&out, spec, fast, fast); code != 0 {
		t.Errorf("comparing a result with itself exits %d, want 0:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(&out, spec, fast, slow); code == 0 {
		t.Errorf("a 2x slower op passes the comparison:\n%s", out.String())
	}
	for _, want := range []string{"ops_per_s", "p50_ms", verdictWorse, "of "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareRuns(&out, spec, slow, fast); code != 0 || !strings.Contains(out.String(), verdictBetter) {
		t.Errorf("a 2x faster op: exit %d, want 0 and a %q row:\n%s", code, verdictBetter, out.String())
	}
	out.Reset()
	if code := compareRuns(&out, spec, fast, stubRuns(t, 200*time.Microsecond, true)); code == 0 {
		t.Errorf("a rise in error_rate passes the comparison:\n%s", out.String())
	}
}

func TestJudge(t *testing.T) {
	lower := MetricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		old, new []float64
		m        MetricDef
		want     string
	}{
		{"within the bound", []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, lower, verdictSame},
		{"latency up 30%", []float64{10, 10.1, 9.9}, []float64{13, 13.1, 12.9}, lower, verdictWorse},
		{"latency down 30%", []float64{10, 10.1, 9.9}, []float64{7, 7.1, 6.9}, lower, verdictBetter},
		{"throughput down 30%", []float64{100, 101, 99}, []float64{70, 71, 69}, higher, verdictWorse},
		{"throughput up 30%", []float64{100, 101, 99}, []float64{130, 131, 129}, higher, verdictBetter},
		{"spread wider than the bound hides a small move", []float64{8, 10, 12}, []float64{9, 10.5, 12.5}, lower, verdictUnresolved},
		{"a move larger than a wide spread still counts", []float64{8, 10, 12}, []float64{20, 21, 22}, lower, verdictWorse},
		{"single runs compare by ratio", []float64{10}, []float64{12}, lower, verdictWorse},
	} {
		if got, _ := judge(tc.old, tc.new, tc.m); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
