package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 3, 4.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 1, 7, 3, 3.3}, 1.75, 3, 5.15},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// noisy is a run series around base with a 2% run-to-run wobble.
func noisy(base float64) []float64 {
	wobble := []float64{0, 0.01, -0.01, 0.02, -0.02, 0.005, -0.005, 0.015, -0.015, 0}
	xs := make([]float64, len(wobble))
	for i, w := range wobble {
		xs[i] = base * (1 + w)
	}
	return xs
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestGateFlagsPlantedSlowdown(t *testing.T) {
	parent := noisy(10)
	for _, bound := range []float64{0.05, 0.1, 0.25} {
		// Just past the bound for a lower-is-better time...
		slower := scaled(parent, 1+bound*1.01)
		if v, d := judge(parent, slower, bound, true); v != verdictRegressed {
			t.Errorf("bound %.2f: time slowdown judged %s: %s", bound, v, d)
		}
		// ...and for a higher-is-better rate.
		lower := scaled(parent, 1-bound*1.01)
		if v, d := judge(parent, lower, bound, false); v != verdictRegressed {
			t.Errorf("bound %.2f: rate slowdown judged %s: %s", bound, v, d)
		}
	}
}

func TestGatePassesIdenticalSeries(t *testing.T) {
	parent := noisy(10)
	for _, lower := range []bool{true, false} {
		if v, d := judge(parent, parent, 0.1, lower); v != verdictOK {
			t.Errorf("identical series judged %s: %s", v, d)
		}
	}
	// A change inside the bound passes too.
	if v, d := judge(parent, scaled(parent, 1.05), 0.1, true); v != verdictOK {
		t.Errorf("5%% slower under a 10%% bound judged %s: %s", v, d)
	}
}

func TestGateReportsWideSpreadUnresolved(t *testing.T) {
	parent := []float64{10, 7, 13, 9, 12, 8, 11, 14, 6, 10}
	if s := spread(parent); s <= 0.1 {
		t.Fatalf("test series spread %.3f is not wider than the bound", s)
	}
	for _, change := range [][]float64{parent, scaled(parent, 1.3)} {
		if v, d := judge(parent, change, 0.1, true); v != verdictUnresolved {
			t.Errorf("wide spread judged %s: %s", v, d)
		}
	}
	// Unless every change run beats every parent run.
	if v, d := judge(parent, scaled(parent, 0.2), 0.1, true); v != verdictOK {
		t.Errorf("uniformly faster change judged %s: %s", v, d)
	}
}
