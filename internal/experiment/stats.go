// Package experiment implements the paper's evaluation (section 6): the
// measurement method, the three calibrated data sources, and one driver
// per table/figure — Table 4 (grid services overhead), Table 5
// (Performance Results caching), and Figure 12 (scalability) — plus
// ablation studies beyond the paper.
//
// Measurements follow section 6.2: wall-clock timing at two layers, the
// Virtualization Layer (the client-side stub call) and the Mapping Layer
// (the wrapper query), with overhead their difference. The paper used
// Java's System.currentTimeMillis; we use time.Now with the same
// subtraction scheme.
//
// Because the paper's testbed (440 MHz UltraSPARC servers, PostgreSQL
// 7.4.1, Globus GT3.2 on a JVM) is ~2 orders of magnitude slower than a
// modern host running this Go implementation, the Mapping Layer is
// calibrated: each source's wrapper is wrapped in a latency decorator
// whose per-query delay is the paper's measured Mapping-Layer time scaled
// by Config.Scale (default 1/100). The SOAP/marshalling overhead is NOT
// simulated — it is the real cost of this stack — so the experiments test
// whether the paper's *relationships* (overhead orderings, caching-speedup
// orderings, two-host speedup ≈ 2×) emerge from the reconstructed system
// rather than being painted onto it.
package experiment

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and reports the statistics the paper's
// tables use: mean, standard deviation, and the coefficient of variation
// (COV = stddev / mean, "normalizes standard deviation with respect to the
// mean", section 6.4).
type Sample struct {
	values []float64
}

// Add appends one observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// COV returns the coefficient of variation.
func (s *Sample) COV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / m
}

// Percentile returns the p-th percentile (0..100) by nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := make([]float64, len(s.values))
	copy(sorted, s.values)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Speedup returns base/other — the paper's speedup convention (e.g. mean
// query time with caching off over caching on).
func Speedup(base, other float64) float64 {
	if other == 0 {
		return 0
	}
	return base / other
}

// RelativeChange returns (base-other)/other as a percentage — the paper's
// "Relative Change" rows.
func RelativeChange(base, other float64) float64 {
	if other == 0 {
		return 0
	}
	return (base - other) / other * 100
}

// Fmt renders a float with the table-friendly precision used in reports.
func Fmt(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
