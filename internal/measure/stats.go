// Package measure provides the statistical machinery the experiment
// harness uses to summarize measurements: empirical CDFs and CCDFs,
// percentiles, ASCII plots, and fixed-width table rendering matching the
// rows and series the paper reports.
package measure

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64
}

// Summarize computes descriptive statistics. An empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// CDF is an empirical cumulative distribution function over a sample.
// The zero value is unusable; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample. The input slice is not
// modified.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// CCDFAt returns P(X > x), the complementary CDF.
func (c *CDF) CCDFAt(x float64) float64 { return 1 - c.At(x) }

// Percentile returns the value at quantile q in [0,1] using
// nearest-rank interpolation. Percentile(0.5) is the median.
func (c *CDF) Percentile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Points returns up to n evenly spaced (x, F(x)) pairs spanning the
// sample range, suitable for plotting the CDF curve.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	if n == 1 || lo == hi {
		return []Point{{X: hi, Y: 1}}
	}
	pts := make([]Point, 0, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// Point is one (x, y) pair of a plotted series.
type Point struct {
	X, Y float64
}

// Pct formats a fraction as a percentage string like "12.3%".
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
