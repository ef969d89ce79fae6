package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// MetricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the old median by which an end-to-end metric may get worse
// before it counts as a regression; per-layer metrics have none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The program reads them from there.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func loadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json declares no metrics")
	}
	return &s, nil
}

// findRoot returns the repository root: the directory holding
// BENCHMARK.json, looked for in the working directory and its parent
// (tests run from benchmark/).
func findRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

// Result is one run of one workload.
type Result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"samples"` // primary-op latency samples behind p50_ms / p99_ms
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]any     `json:"info"`
	Checks    []string           `json:"checks"`
	Errors    []string           `json:"errors,omitempty"`
}

func newResult(workload string, trace bool, seed int64, seconds float64) *Result {
	return &Result{Workload: workload, Trace: trace, Seed: seed, Seconds: seconds, Correct: true,
		Metrics: map[string]float64{}, Info: map[string]any{}}
}

// check records the outcome of one correctness check; a failed check
// fails the run.
func (r *Result) check(name string, err error) {
	if err != nil {
		r.Correct = false
		r.Errors = append(r.Errors, name+": "+err.Error())
		return
	}
	r.Checks = append(r.Checks, name)
}

// defs returns the metrics this result reports: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one.
func (r *Result) defs(s *Spec) []MetricDef {
	if r.Trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// unknownMetrics lists metrics the run produced that BENCHMARK.json does
// not declare for this kind of run: a misspelt name would otherwise
// vanish silently.
func (r *Result) unknownMetrics(s *Spec) []string {
	known := map[string]bool{}
	for _, m := range append(append([]MetricDef(nil), s.EndToEnd...), s.PerLayer...) {
		known[m.Name] = true
	}
	var out []string
	for name := range r.Metrics {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine renders the one JSON object the pipeline reads from the last
// line of standard output. A per-layer metric a workload has nothing to
// say about (a federation counter on a SQL workload) reads 0.
func (r *Result) lastLine(s *Spec) ([]byte, error) {
	metrics := map[string]wireMetric{}
	for _, m := range r.defs(s) {
		metrics[m.Name] = wireMetric{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
}

// print writes every metric of the run by name with its unit.
func (r *Result) print(w io.Writer, s *Spec) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s: %s, seed %d, correct=%v attempted=%d failed=%d error_rate=%.6f samples=%d\n",
		r.Workload, kind, r.Seed, r.Correct, r.Attempted, r.Failed,
		ratio(float64(r.Failed), float64(r.Attempted)), r.Samples)
	for _, m := range r.defs(s) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	if !r.Trace {
		// An untraced run reads the layers' counters over its window too.
		for _, m := range s.PerLayer {
			if v, ok := r.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "  (window) %-36s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check ok: %s\n", c)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
}

// RunFile is what -out writes: the environment plus every run made.
type RunFile struct {
	Env  map[string]any `json:"env"`
	Runs []*Result      `json:"runs"`
}

func readRunFile(path string) (*RunFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f RunFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
