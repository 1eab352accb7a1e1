package telemetry

import "sync"

// DefaultReservoirCap bounds a reservoir created with capacity <= 0.
const DefaultReservoirCap = 1024

// Reservoir is a bounded sample window: it keeps the most recent
// capacity observations in a ring while tracking the lifetime count,
// so long-running daemons can expose percentiles without the
// unbounded slice growth the old health registry suffered from.
// Exact-percentile semantics hold over the retained window.
type Reservoir struct {
	mu   sync.Mutex
	buf  []float64
	next int
	full bool
	n    uint64
}

// NewReservoir builds a reservoir retaining the last capacity samples
// (DefaultReservoirCap when capacity <= 0).
func NewReservoir(capacity int) *Reservoir {
	if capacity <= 0 {
		capacity = DefaultReservoirCap
	}
	return &Reservoir{buf: make([]float64, capacity)}
}

// Observe records one sample.
func (r *Reservoir) Observe(v float64) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.n++
	r.mu.Unlock()
}

// Count returns the lifetime observation count (not capped by the
// window).
func (r *Reservoir) Count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot returns the retained samples oldest-first. Before the
// window fills this is every sample ever observed, so callers keep the
// exact-summary semantics of an unbounded series until the cap bites.
func (r *Reservoir) Snapshot() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]float64, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]float64, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
