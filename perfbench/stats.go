package main

import (
	"math"
	"sort"
)

// Summary is a metric's raw samples with the order statistics the
// benchmark reports for them.
type Summary struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

// summarize keeps a copy of xs with its median and quartiles.
func summarize(xs []float64) Summary {
	q1, q2, q3 := quartiles(xs)
	return Summary{Samples: append([]float64(nil), xs...), Median: q2, Q1: q1, Q3: q3}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), so
// spreads computed here match the ones an external checker computes from
// the same values. The middle cut point is the median. An empty input
// yields NaNs; a single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	const parts = 4
	m := n + 1
	var cut [parts - 1]float64
	for i := 1; i < parts; i++ {
		j := i * m / parts
		j = max(1, min(j, n-1))
		delta := i*m - j*parts
		cut[i-1] = (data[j-1]*float64(parts-delta) + data[j]*float64(delta)) / parts
	}
	return cut[0], cut[1], cut[2]
}

// median is the middle cut point of quartiles.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range as a share of the median, the
// run-to-run noise measure the benchmark's bounds are judged against.
func spread(s Summary) float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	pos := p * float64(len(data)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(data)-1)
	return data[lo] + (data[hi]-data[lo])*(pos-float64(lo))
}
