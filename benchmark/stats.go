package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps p99.9 of 1000 at rank 999: 0.999×1000 is not exact.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median of an unsorted slice; the mean of the middle two when even.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// spread is (max − min) / median: how far the segments of one run disagree.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	lo, hi := minMax(vals)
	return (hi - lo) / m
}

// metric is one reported number. Segments holds the per-segment values
// whose median Value is; Samples counts the timings behind a percentile.
type metric struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Min      float64   `json:"min,omitempty"`
	Max      float64   `json:"max,omitempty"`
	Segments []float64 `json:"segments,omitempty"`
	Samples  int       `json:"samples,omitempty"`
}

// ofSegments reports the median over segments with the extremes beside it.
func ofSegments(vals []float64, unit string) metric {
	lo, hi := minMax(vals)
	return metric{Value: median(vals), Unit: unit, Min: lo, Max: hi, Segments: vals}
}
