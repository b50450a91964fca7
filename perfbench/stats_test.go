package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to the cut points Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{0.5, 2.25, 9, 4, 7.75, 1.5, 3.0}, 1.5, 3, 7.75},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuartilesDoNotReorderInput(t *testing.T) {
	data := []float64{3, 1, 2}
	quartiles(data)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Fatalf("input reordered: %v", data)
	}
}

func TestQuartilesEmpty(t *testing.T) {
	q1, q2, q3 := quartiles(nil)
	if !math.IsNaN(q1) || !math.IsNaN(q2) || !math.IsNaN(q3) {
		t.Fatalf("quartiles(nil) = %v %v %v, want NaNs", q1, q2, q3)
	}
}

func TestSpread(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got, want := spread(s), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-15 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if len(s.Samples) != 10 || s.Median != 5.5 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.99, 4.96}, {0.25, 2}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
