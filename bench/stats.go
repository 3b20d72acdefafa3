package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// at returns the q-quantile of xs as a one-sample slice, or no sample when
// xs is empty: a metric whose pass failed is reported as missing, not as NaN.
func at(xs []float64, q float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	return []float64{quantile(xs, q)}
}

// summary is a metric's distribution over the samples of one run: the
// median is the reported value, the quartiles show how steady it was.
type summary struct {
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: quantile(xs, 0.5), Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a spread
// computed here is the figure the benchmark's acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return quantile(xs, 0.5), quantile(xs, 0.5)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median — the
// steadiness figure BENCHMARK.json's bounds are compared with.
func spread(xs []float64) float64 {
	m := quantile(xs, 0.5)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// scale returns xs multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func toFloats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}
