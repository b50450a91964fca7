// Package stats implements the statistical primitives the evaluation
// pipeline needs: streaming moment accumulation (Welford), order statistics
// (percentiles used by the threshold learner), and simple summaries for the
// tables the paper reports (min/max/mean/std in Table II, percentile
// thresholds in Section IV.C).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean, variance (Welford's online algorithm),
// minimum and maximum of a stream of observations without storing them.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations added.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 if no observations were added.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (n-1 denominator), or 0 for
// fewer than two observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation, or 0 if none were added.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 if none were added.
func (r *Running) Max() float64 { return r.max }

// Summary is a value snapshot of a Running accumulator, convenient for
// table rows.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	Std  float64
}

// Summarize returns a snapshot of r.
func (r *Running) Summarize() Summary {
	return Summary{N: r.n, Min: r.min, Max: r.max, Mean: r.mean, Std: r.Std()}
}

// String formats the summary the way Table II rows are printed.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g max=%.3g mean=%.3g std=%.3g",
		s.N, s.Min, s.Max, s.Mean, s.Std)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns an error for an empty
// input or out-of-range p. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanAbs returns the mean of |x| over xs, or 0 for an empty slice. It is
// the "average of mean absolute errors" aggregation used in Figure 8.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}
