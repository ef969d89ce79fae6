package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// samples collects, per workload and end-to-end metric, the values of
// every untraced run in a result file, plus the op counts behind
// error_rate.
type samples struct {
	values    map[string]map[string][]float64
	attempted map[string]int64
	failed    map[string]int64
}

func collect(runs []*Result) samples {
	s := samples{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], v)
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	return s
}

func (s samples) errorRate(workload string) float64 {
	return ratio(float64(s.failed[workload]), float64(s.attempted[workload]))
}

// judge compares two sets of runs of one metric. The medians decide; a
// difference counts only if it is larger than the bound and larger than
// the run-to-run spread of either side, and when the spread alone is
// wider than the bound the row is unresolved, not unchanged.
func judge(old, new []float64, m MetricDef) (verdict string, worse float64) {
	worse = worsening(median(old), median(new), m.Better)
	noise := math.Max(spread(old), spread(new))
	switch {
	case worse > m.Bound && worse > noise:
		return verdictWorse, worse
	case noise > m.Bound:
		return verdictUnresolved, worse
	case -worse > m.Bound && -worse > noise:
		return verdictBetter, worse
	}
	return verdictSame, worse
}

// compareRuns prints one row per (workload, end-to-end metric) and
// returns the process exit code: non-zero on any "worse" row or any rise
// in error_rate. Bounds come from BENCHMARK.json.
func compareRuns(w io.Writer, spec *Spec, oldRuns, newRuns []*Result) int {
	old, cur := collect(oldRuns), collect(newRuns)
	code := 0
	fmt.Fprintf(w, "%-17s %-12s %14s %14s  %-28s %6s  %s\n", "workload", "metric", "old median", "new median", "new/old (base: old median)", "bound", "verdict")
	for _, wl := range workloadNames {
		if old.values[wl] == nil || cur.values[wl] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			o, n := old.values[wl][m.Name], cur.values[wl][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			verdict, _ := judge(o, n, m)
			if verdict == verdictWorse {
				code = 1
			}
			mo, mn := median(o), median(n)
			base := fmt.Sprintf("%.3f of %.4g %s", ratio(mn, mo), mo, m.Unit)
			fmt.Fprintf(w, "%-17s %-12s %14.4f %14.4f  %-28s %6.2f  %s (n=%d/%d, %s is better)\n",
				wl, m.Name, mo, mn, base, m.Bound, verdict, len(o), len(n), m.Better)
		}
		eo, en := old.errorRate(wl), cur.errorRate(wl)
		verdict := verdictSame
		if en > eo {
			verdict, code = verdictWorse, 1
		}
		fmt.Fprintf(w, "%-17s %-12s %14.6f %14.6f  %-28s %6s  %s (any rise fails)\n", wl, "error_rate", eo, en, "", "0", verdict)
	}
	return code
}

func compareFiles(w io.Writer, spec *Spec, oldPath, newPath string) int {
	oldFile, err := readRunFile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	newFile, err := readRunFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareRuns(w, spec, oldFile.Runs, newFile.Runs)
}

// runAA makes two interleaved sets of n full runs of this same binary
// (A, B, A, B, ...; the same seeds on both sides), prints each side's
// median and quartiles per (workload, metric), and fails if any pair of
// medians differs by more than the metric's bound: the check that the
// benchmark agrees with itself.
func runAA(spec *Spec, n int, seed int64, seconds float64, scale, outDir string) int {
	var sides [2][]*Result
	for i := 0; i < n; i++ {
		for side := range sides {
			for _, wl := range workloadNames {
				res, err := runChild(wl, seed+int64(i), seconds, false, scale, outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				sides[side] = append(sides[side], res)
			}
		}
	}
	a, b := collect(sides[0]), collect(sides[1])
	code := 0
	fmt.Printf("%-17s %-12s %-38s %-38s %8s %6s\n", "workload", "metric", "A: q1 / median / q3", "B: q1 / median / q3", "differ", "bound")
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			va, vb := a.values[wl][m.Name], b.values[wl][m.Name]
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			differ := math.Max(worsening(a2, b2, m.Better), worsening(b2, a2, m.Better))
			verdict := "agree"
			if differ > m.Bound {
				verdict, code = "DISAGREE", 1
			}
			fmt.Printf("%-17s %-12s %-38s %-38s %8.4f %6.2f  %s\n", wl, m.Name,
				fmt.Sprintf("%.4f / %.4f / %.4f", a1, a2, a3), fmt.Sprintf("%.4f / %.4f / %.4f", b1, b2, b3), differ, m.Bound, verdict)
		}
		if a.failed[wl]+b.failed[wl] > 0 {
			fmt.Printf("%-17s error_rate: %d and %d failed ops\n", wl, a.failed[wl], b.failed[wl])
			code = 1
		}
	}
	return code
}
