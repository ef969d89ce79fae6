package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of sorted by
// linear interpolation between closest ranks. It returns 0 for an empty
// slice, so a workload with no samples of some kind reports 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 || p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the 50th percentile of vs (unsorted input).
func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

// quartiles returns the first quartile, median and third quartile of vs
// by the exclusive method, the one Python's statistics.quantiles(vs, n=4)
// uses, so spreads computed here match the ones the pipeline computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks, clamped to the data.
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run spread a bound is compared with.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	return ratio(q3-q1, math.Abs(q2))
}

// ratio returns num/den, or 0 when den is 0: a counter ratio over a
// window in which nothing happened reads 0, not NaN (JSON has no NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// worsening returns by what share of old the metric got worse going from
// old to new: positive is worse, negative is better, whatever direction
// the metric improves in.
func worsening(old, new float64, better string) float64 {
	if better == "higher" {
		return ratio(old-new, math.Abs(old))
	}
	return ratio(new-old, math.Abs(old))
}

// nsToMs and nsToUs convert a slice of nanosecond durations.
func nsToMs(ns []int64) []float64 { return scaleNs(ns, 1e6) }
func nsToUs(ns []int64) []float64 { return scaleNs(ns, 1e3) }

func scaleNs(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}
