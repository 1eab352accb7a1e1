package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, the definition Python's statistics.median and
// numpy's default share. It sorts a copy; an empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPercentile picks the highest of p99, p90 and p50 that still has
// at least ten samples beyond it, so a reported tail is never one or
// two outliers. It returns the percentile chosen (50, 90 or 99) and its
// value.
func tailPercentile(xs []float64) (pct int, value float64) {
	for _, pct := range []int{99, 90} {
		if len(xs)*(100-pct) >= 10*100 {
			return pct, percentile(xs, float64(pct)/100)
		}
	}
	return 50, median(xs)
}

// windowRates turns equal-op-count windows into per-window rates
// (ops per second); the caller reports their median, so one window that
// caught a GC cycle or a scheduler hiccup does not move the result.
func windowRates(ops int, windowSec []float64) []float64 {
	out := make([]float64, 0, len(windowSec))
	for _, s := range windowSec {
		if s > 0 {
			out = append(out, float64(ops)/s)
		}
	}
	return out
}
