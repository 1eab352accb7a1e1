package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets is the default latency bucket layout in seconds, spanning
// single-prefix FIB deltas and convergence stages of a few
// microseconds to multi-second reconvergence.
var DefBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Histogram is a lock-free fixed-bucket histogram: Observe is a binary
// search over the immutable bucket bounds plus three atomic adds, safe
// for any number of concurrent observers and renderers.
type Histogram struct {
	// bounds are the inclusive upper bucket bounds, strictly
	// increasing; counts has one extra slot for the +Inf bucket.
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) when none
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and a snapshot of the per-bucket
// (non-cumulative) counts; the final count is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Quantile estimates the value at quantile q in [0,1] by linear
// interpolation within the bucket containing it. Values beyond the
// last finite bound clamp to that bound; an empty histogram reads 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				// +Inf bucket: no upper bound to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			hi := h.bounds[i]
			frac := (target - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}
