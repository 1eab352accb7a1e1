// Package adaptive closes the measurement→routing loop the paper leaves
// open: geography predicts delay from great-circle distance, but the
// GeoIP database is sometimes wrong (stale registrations, country
// centroids) and the Internet sometimes refuses to follow the great
// circle (trans-Pacific waypoints, regional hairpins). This package
// ingests probe RTT measurements per (egress PoP, prefix) path, smooths
// them with a half-life EWMA plus a jitter term (after Jonglez et al.,
// "A delay-based routing metric"), and — only when the measurements
// contradict the geographic prediction by a configurable margin —
// installs a LOCAL_PREF override on the GeoRR so measured delay beats
// geographic distance. A stability layer with switch hysteresis and
// RFC 2439-style flap damping keeps oscillating measurements from
// churning the RIB.
//
// Everything runs on the virtual clock: callers pass simulated
// timestamps (or a *netsim.Sim to the Controller), never the wall
// clock.
package adaptive

import (
	"math"
	"net/netip"
	"sync"
)

// Key identifies one measured path: probes leave the network at an
// egress PoP and measure the external leg to the destination prefix.
type Key struct {
	// PoP is the egress PoP's 1-based id.
	PoP int
	// Prefix is the destination prefix.
	Prefix netip.Prefix
}

// Snapshot is a consistent read of one path estimator's state.
type Snapshot struct {
	// SmoothedMs is the EWMA-smoothed round-trip time.
	SmoothedMs float64
	// JitterMs is the smoothed absolute deviation of samples from the
	// running mean — the variance term that widens the effective margin
	// for noisy paths.
	JitterMs float64
	// Samples is how many measurements have been ingested.
	Samples uint64
	// LastAt is the simulated time of the latest sample.
	LastAt float64
}

// Warm reports whether the estimate rests on at least minSamples
// measurements.
func (s Snapshot) Warm(minSamples uint64) bool { return s.Samples >= minSamples }

// Fresh reports whether the latest sample is no older than maxAge at
// simulated time now.
func (s Snapshot) Fresh(now, maxAge float64) bool {
	return s.Samples > 0 && now-s.LastAt <= maxAge
}

// PathEstimator smooths one path's RTT samples. Ingest and State may
// race from different goroutines; the estimator serializes them with a
// mutex kept strictly around plain arithmetic, so the ingest hot path
// stays allocation-free and within the CI budget (bench_test.go).
type PathEstimator struct {
	mu sync.Mutex
	// invHalfLife is 1/halfLifeSec, precomputed so Ingest divides never.
	invHalfLife float64
	smoothed    float64
	jitter      float64
	samples     uint64
	lastAt      float64
}

// Ingest folds one RTT sample measured at simulated time now into the
// estimate. The EWMA weight is time-based: information halves every
// half-life of *elapsed simulated time*, so irregular probe schedules
// (budget-constrained rounds) converge at the same rate per second as
// dense ones. The first sample initializes the estimate.
//
//vnslint:hotpath
func (p *PathEstimator) Ingest(rttMs, now float64) {
	p.mu.Lock()
	if p.samples == 0 {
		p.smoothed = rttMs
		p.jitter = 0
	} else {
		dt := now - p.lastAt
		if dt < 0 {
			dt = 0
		}
		// Weight retained by the old estimate after dt seconds.
		w := math.Exp2(-dt * p.invHalfLife)
		dev := rttMs - p.smoothed
		if dev < 0 {
			dev = -dev
		}
		p.smoothed = w*p.smoothed + (1-w)*rttMs
		p.jitter = w*p.jitter + (1-w)*dev
	}
	p.samples++
	p.lastAt = now
	p.mu.Unlock()
}

// State returns a consistent snapshot.
func (p *PathEstimator) State() Snapshot {
	p.mu.Lock()
	s := Snapshot{SmoothedMs: p.smoothed, JitterMs: p.jitter, Samples: p.samples, LastAt: p.lastAt}
	p.mu.Unlock()
	return s
}

// DefaultHalfLifeSec is the estimator half-life when the caller passes
// zero: long enough to ride out single-sample noise, short enough that
// a genuine path change wins within a few probe rounds.
const DefaultHalfLifeSec = 2.0

// NewPathEstimator returns a standalone path estimator with the given
// half-life (0 means DefaultHalfLifeSec), for callers that track their
// own paths outside the (PoP, prefix) registry — e.g. flowsim's
// per-group overlay/direct delay comparison.
func NewPathEstimator(halfLifeSec float64) *PathEstimator {
	if halfLifeSec <= 0 {
		halfLifeSec = DefaultHalfLifeSec
	}
	return &PathEstimator{invHalfLife: 1 / halfLifeSec}
}

// Estimator owns the per-path estimators. Path registration is the
// cold path (taken once per tracked path); the returned handles carry
// the hot path.
type Estimator struct {
	halfLife float64

	mu    sync.RWMutex
	paths map[Key]*PathEstimator
}

// NewEstimator creates an estimator whose paths smooth with the given
// half-life (seconds of simulated time; 0 means DefaultHalfLifeSec).
func NewEstimator(halfLifeSec float64) *Estimator {
	if halfLifeSec <= 0 {
		halfLifeSec = DefaultHalfLifeSec
	}
	return &Estimator{halfLife: halfLifeSec, paths: make(map[Key]*PathEstimator)}
}

// Path returns the estimator for key, creating it on first use.
func (e *Estimator) Path(key Key) *PathEstimator {
	e.mu.RLock()
	p, ok := e.paths[key]
	e.mu.RUnlock()
	if ok {
		return p
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.paths[key]; ok {
		return p
	}
	p = &PathEstimator{invHalfLife: 1 / e.halfLife}
	e.paths[key] = p
	return p
}

// Lookup returns the estimator for key without creating it.
func (e *Estimator) Lookup(key Key) (*PathEstimator, bool) {
	e.mu.RLock()
	p, ok := e.paths[key]
	e.mu.RUnlock()
	return p, ok
}
