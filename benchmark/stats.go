package main

import (
	"math"
	"sort"
)

// percentile returns the exact p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. It sorts a copy; an empty input yields 0.
func percentile(xs []int64, p float64) int64 { return percentiles(xs, p)[0] }

// percentiles is percentile for several p over one sort.
func percentiles(xs []int64, ps ...float64) []int64 {
	out := make([]int64, len(ps))
	if len(xs) == 0 {
		return out
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, p := range ps {
		out[i] = s[rank(len(s), p)]
	}
	return out
}

// rank is the zero-based nearest-rank index of the p-th percentile among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// median of a float sample: the middle value, or the mean of the two middle
// values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the rule Python's
// statistics.quantiles(xs, n=4) uses, the one the spread of ten runs is
// judged by: positions k(n+1)/4, interpolated. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - 4*j // after the clamp, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// summary is one reported value: the median over repetitions with their
// quartiles, extremes and count, as the result file stores it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := summary{Median: median(xs), Q1: xs[0], Q3: xs[0], Min: xs[0], Max: xs[0], N: len(xs)}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	if len(xs) > 1 {
		s.Q1, s.Q3 = quartiles(xs)
	}
	return s
}

// spread is the distance between the quartiles as a share of the median:
// how far the repetitions disagree, by the measure the bounds are set in.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
