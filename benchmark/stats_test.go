package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, 7},
		{"min", ten, 0, 1},
		{"max", ten, 100, 10},
		{"median of even count interpolates", ten, 50, 5.5},
		{"p99 interpolates toward the max", ten, 99, 9.91},
		{"p25", []float64{10, 20, 30, 40, 50}, 25, 20},
		{"below range clamps", ten, -5, 1},
		{"above range clamps", ten, 120, 10},
	} {
		if got := percentile(tc.sorted, tc.p); !near(got, tc.want) {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // extrapolates past the data, as Python does
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{14.1, 15.3, 14.8, 15.0, 14.9, 15.2, 14.7, 15.1, 15.4, 14.6}, 14.675, 14.95, 15.225},
	} {
		q1, q2, q3 := quartiles(tc.vs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.vs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestRatioAndWorsening(t *testing.T) {
	for _, tc := range []struct{ num, den, want float64 }{
		{1, 2, 0.5}, {0, 5, 0}, {5, 0, 0}, {0, 0, 0}, {-3, 2, -1.5},
	} {
		if got := ratio(tc.num, tc.den); got != tc.want {
			t.Errorf("ratio(%v, %v) = %v, want %v", tc.num, tc.den, got, tc.want)
		}
	}
	for _, tc := range []struct {
		old, new float64
		better   string
		want     float64
	}{
		{10, 12, "lower", 0.2},     // latency up a fifth: worse
		{10, 8, "lower", -0.2},     // latency down: better
		{100, 80, "higher", 0.2},   // throughput down a fifth: worse
		{100, 150, "higher", -0.5}, // throughput up: better
		{0, 5, "lower", 0},         // no base, no ratio
	} {
		if got := worsening(tc.old, tc.new, tc.better); !near(got, tc.want) {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", tc.old, tc.new, tc.better, got, tc.want)
		}
	}
}
