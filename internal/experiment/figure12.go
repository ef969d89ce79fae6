package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/viz"
)

// Figure12Config tunes the scalability experiment (section 6.5).
type Figure12Config struct {
	Config
	// ExecutionCounts are the query sizes; nil uses the paper's
	// {2, 4, 8, 16, 32, 64, 124}.
	ExecutionCounts []int
	// Repeats re-runs each execution's query within its thread; the paper
	// used 10 "to create a greater load on each host". 0 means 10.
	Repeats int
	// BatchRuns repeats the whole query set; the paper used 10. 0 means 3
	// (enough for a stable mean at modern timer resolution).
	BatchRuns int
	// HostCounts is the replicas axis. The paper measured {1, 2}; nil
	// extends it to {1, 2, 4, 8}. 1 (the non-optimized baseline) is
	// prepended when absent.
	HostCounts []int
}

// Figure12Point is one x-position of the reproduced Figure 12: the mean
// batch wall time per replica count, and each replicated configuration's
// speedup over the one-host baseline.
type Figure12Point struct {
	Executions     int
	WallMs         map[int]float64 // replica count -> mean batch wall ms
	Speedup        map[int]float64 // replica count > 1 -> speedup vs 1 host
	RelativeChange map[int]float64 // replica count > 1 -> % change vs 1 host
}

// OneHostMs returns the non-optimized baseline wall time.
func (p Figure12Point) OneHostMs() float64 { return p.WallMs[1] }

// Figure12Report is the reproduced Figure 12, generalized to an N-host
// replicas axis.
type Figure12Report struct {
	HostCounts []int // ascending; element 0 is the 1-host baseline
	Points     []Figure12Point
	// MeanSpeedup is the mean speedup over the measured sizes, per
	// replicated host count.
	MeanSpeedup map[int]float64
	// InstanceCounts records, per replicated configuration, how many
	// Execution instances the Manager placed on each replica host.
	InstanceCounts map[int]map[string]int
}

// RunFigure12 measures scalability: Performance Result queries against
// 2..124 HPL Execution service instances, each query in its own thread
// and repeated to increase host load, comparing one single-CPU host
// ("non-optimized") against the Manager's distribution over N single-CPU
// replica hosts ("optimized") — the paper's section 6.5, extended past
// its two-host testbed.
func RunFigure12(cfg Figure12Config) (*Figure12Report, error) {
	counts := cfg.ExecutionCounts
	if counts == nil {
		counts = PaperFigure12.ExecutionCounts
	}
	sort.Ints(counts)
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 10
	}
	batchRuns := cfg.BatchRuns
	if batchRuns <= 0 {
		batchRuns = 3
	}
	hosts := normalizeHostCounts(cfg.HostCounts)
	maxCount := counts[len(counts)-1]

	report := &Figure12Report{
		HostCounts:     hosts,
		MeanSpeedup:    make(map[int]float64),
		InstanceCounts: make(map[int]map[string]int),
	}
	wall := make(map[int]map[int]float64) // replicas -> executions -> ms
	for _, r := range hosts {
		var instances map[string]int
		if r > 1 {
			instances = map[string]int{}
		}
		ms, err := runScalability(cfg.Config, r, counts, maxCount, repeats, batchRuns, instances)
		if err != nil {
			return nil, err
		}
		wall[r] = ms
		if r > 1 {
			report.InstanceCounts[r] = instances
		}
	}

	speedups := make(map[int]*Sample)
	for _, n := range counts {
		p := Figure12Point{
			Executions:     n,
			WallMs:         map[int]float64{},
			Speedup:        map[int]float64{},
			RelativeChange: map[int]float64{},
		}
		for _, r := range hosts {
			p.WallMs[r] = wall[r][n]
			if r == 1 {
				continue
			}
			p.Speedup[r] = Speedup(wall[1][n], wall[r][n])
			p.RelativeChange[r] = RelativeChange(wall[1][n], wall[r][n])
			if speedups[r] == nil {
				speedups[r] = &Sample{}
			}
			speedups[r].Add(p.Speedup[r])
		}
		report.Points = append(report.Points, p)
	}
	for r, s := range speedups {
		report.MeanSpeedup[r] = s.Mean()
	}
	return report, nil
}

// normalizeHostCounts sorts, deduplicates, and prepends the 1-host
// baseline. nil selects the default {1, 2, 4, 8} axis.
func normalizeHostCounts(hosts []int) []int {
	if len(hosts) == 0 {
		return []int{1, 2, 4, 8}
	}
	seen := map[int]bool{1: true}
	out := []int{1}
	for _, h := range hosts {
		if h > 1 && !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	sort.Ints(out)
	return out
}

// runScalability measures mean batch wall time per execution count on a
// site with the given replica count. Hosts are single-worker (one
// simulated CPU) unless the config overrides Workers.
func runScalability(base Config, replicas int, counts []int, maxCount, repeats, batchRuns int, hostCounts map[string]int) (map[int]float64, error) {
	cfg := base
	cfg.Replicas = replicas
	cfg.CachingOff = true // repeats must generate real load, as in the paper
	if cfg.Workers == 0 {
		cfg.Workers = 1 // the paper's hosts had one 440 MHz CPU each
	}
	src, err := NewHPLSource(cfg)
	if err != nil {
		return nil, err
	}
	defer src.Close()

	c := client.NewWithoutRegistry()
	b, err := c.BindFactory(src.Name, src.Site.ApplicationFactoryHandle())
	if err != nil {
		return nil, err
	}
	refs, err := b.QueryExecutions(nil)
	if err != nil {
		return nil, err
	}
	if len(refs) < maxCount {
		return nil, fmt.Errorf("experiment: only %d executions for max count %d", len(refs), maxCount)
	}
	q := perfdata.Query{Metric: src.Metric, Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: src.Type}

	out := make(map[int]float64, len(counts))
	for _, n := range counts {
		var wall Sample
		for run := 0; run < batchRuns; run++ {
			start := time.Now()
			results := client.QueryPerformanceResults(refs[:n], q, client.ParallelOptions{Repeats: repeats})
			elapsed := time.Since(start)
			for _, r := range results {
				if r.Err != nil {
					return nil, fmt.Errorf("experiment: scalability query: %w", r.Err)
				}
			}
			wall.Add(float64(elapsed) / float64(time.Millisecond))
		}
		out[n] = wall.Mean()
	}
	if hostCounts != nil {
		for h, c := range src.Site.Manager().PerHostCounts() {
			hostCounts[h] = c
		}
	}
	return out, nil
}

// Render prints the measured figure (table + ASCII chart) with the
// paper's reference speedups for the two-host column.
func (r *Figure12Report) Render() string {
	header := []string{"Executions", "1 host (ms)"}
	for _, h := range r.HostCounts[1:] {
		header = append(header, fmt.Sprintf("%d hosts (ms)", h), fmt.Sprintf("Speedup x%d", h))
	}
	header = append(header, "Paper speedup (2 hosts)")
	var rows [][]string
	for _, p := range r.Points {
		row := []string{fmt.Sprint(p.Executions), Fmt(p.OneHostMs())}
		for _, h := range r.HostCounts[1:] {
			row = append(row, Fmt(p.WallMs[h]), Fmt(p.Speedup[h]))
		}
		paper := "N/A"
		if v, ok := PaperFigure12.Speedups[p.Executions]; ok {
			paper = Fmt(v)
		}
		rows = append(rows, append(row, paper))
	}
	out := viz.Table("Figure 12 — PPerfGrid Scalability (measured)", header, rows)
	for _, h := range r.HostCounts[1:] {
		note := ""
		if h == 2 {
			note = fmt.Sprintf(" (paper: %s over its measured points)", Fmt(PaperFigure12.MeanSpeedup))
		}
		out += fmt.Sprintf("Mean speedup %d hosts: %s%s\n", h, Fmt(r.MeanSpeedup[h]), note)
	}

	var series []viz.Series
	for _, h := range r.HostCounts {
		name := "Non-Optimized (1 host)"
		if h > 1 {
			name = fmt.Sprintf("Optimized (%d hosts)", h)
		}
		s := viz.Series{Name: name, Points: map[float64]float64{}}
		for _, p := range r.Points {
			s.Points[float64(p.Executions)] = p.WallMs[h]
		}
		series = append(series, s)
	}
	out += "\n" + viz.LineChart("Batch wall time (ms) vs # of Execution GSs in query", series, 14, 60)
	out += "\nShape checks:\n"
	for _, c := range r.CheckShape() {
		out += "  " + c + "\n"
	}
	return out
}

// CheckShape evaluates the paper's qualitative scalability findings,
// extended to the N-host axis.
func (r *Figure12Report) CheckShape() []string {
	var out []string
	check := func(name string, ok bool) {
		status := "ok      "
		if !ok {
			status = "MISMATCH"
		}
		out = append(out, fmt.Sprintf("%s  %s", status, name))
	}
	if _, measured := r.MeanSpeedup[2]; measured {
		check("two-host mean speedup is significant (> 1.5x; paper 2.14x)", r.MeanSpeedup[2] > 1.5)
		check("two-host mean speedup bounded by 2 replicas (< 2.6x)", r.MeanSpeedup[2] < 2.6)
	}
	allFaster := true
	for _, p := range r.Points {
		for _, s := range p.Speedup {
			if s <= 1 {
				allFaster = false
			}
		}
	}
	check("distribution helps at every query size and replica count", allFaster)
	if len(r.Points) >= 2 {
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		for _, h := range r.HostCounts {
			check(fmt.Sprintf("wall time grows with query size on %d host(s)", h),
				last.WallMs[h] > first.WallMs[h])
		}
	}
	if len(r.HostCounts) > 2 && len(r.Points) > 0 {
		// More replicas should keep helping at the largest batch size
		// (within 20% slack — the largest size may exceed replicas*workers
		// saturation anyway).
		last := r.Points[len(r.Points)-1]
		growing := true
		for i := 2; i < len(r.HostCounts); i++ {
			prev, cur := r.HostCounts[i-1], r.HostCounts[i]
			if last.Speedup[cur] < 0.8*last.Speedup[prev] {
				growing = false
			}
		}
		check("speedup scales with replicas at the largest size (20% slack)", growing)
	}
	for _, h := range r.HostCounts[1:] {
		counts := r.InstanceCounts[h]
		if len(counts) != h {
			check(fmt.Sprintf("%d-host run used all replica hosts", h), false)
			continue
		}
		lo, hi := -1, -1
		for _, c := range counts {
			if lo == -1 || c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		check(fmt.Sprintf("Manager interleave balances instances across %d hosts (±1)", h), hi-lo <= 1)
	}
	return out
}

// ShapeOK reports whether every shape check passed.
func (r *Figure12Report) ShapeOK() bool {
	for _, line := range r.CheckShape() {
		if strings.HasPrefix(line, "MISMATCH") {
			return false
		}
	}
	return true
}
