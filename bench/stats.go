package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p ≤ 100)
// of xs and how many samples lie beyond it in sorted order — the count
// that says whether the sample supports that percentile. xs is not
// modified; an empty xs yields (0, 0).
func percentile(xs []float64, p float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return s[rank-1], n - rank
}

// pct is percentile without the beyond count.
func pct(xs []float64, p float64) float64 {
	v, _ := percentile(xs, p)
	return v
}

// median is the middle value, or the mean of the two middle values of
// an even count (0 for no values).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is a metric's distribution over repetitions.
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
	return summary{
		Median: median(xs),
		Q1:     pct(xs, 25),
		Q3:     pct(xs, 75),
		Min:    pct(xs, 0),
		Max:    pct(xs, 100),
		N:      len(xs),
	}
}
