package adaptive

import (
	"math"
	"net/netip"
)

// StabilityConfig tunes the decision layer. Zero values take the
// documented defaults, so a zero StabilityConfig is usable.
type StabilityConfig struct {
	// ApplyMarginMs is how much faster (smoothed ms) the measured-best
	// egress must be than the geographically predicted one before an
	// override is installed — and how much faster a new target must be
	// than the incumbent override before the override switches. The
	// effective margin widens by jitterFactor times the candidate's
	// jitter, so noisy paths need a larger, steadier advantage.
	ApplyMarginMs float64
	// MinSamples is how many samples both the geographic choice's and
	// the challenger's estimators need before a decision trusts them.
	MinSamples uint64
}

// Stability defaults.
const (
	DefaultApplyMarginMs = 20.0
	DefaultMinSamples    = 3
)

// The fixed decision and damping parameters.
const (
	// releaseMarginMs is the advantage below which an installed
	// override is withdrawn. It sits well under the apply margin: the
	// gap between the two thresholds is the switch hysteresis band that
	// keeps a path hovering near the margin from toggling the route.
	releaseMarginMs = 8.0
	// jitterFactor scales the measured-best path's jitter into the
	// apply margin (margin + factor*jitter must be beaten).
	jitterFactor = 2.0
	// maxStalenessSec invalidates estimates whose latest sample is
	// older than this; a stale challenger cannot install an override,
	// and a stale incumbent releases its override.
	maxStalenessSec = 30.0

	// penaltyPerFlap is the damping penalty added per override
	// transition (RFC 2439's fixed per-flap increment).
	penaltyPerFlap = 1000.0
	// penaltyHalfLifeSec is the penalty's exponential-decay half-life.
	penaltyHalfLifeSec = 15.0
	// suppressThreshold suppresses a prefix's overrides when its
	// decayed penalty reaches it; while suppressed the prefix routes
	// purely geographically no matter what the measurements say.
	suppressThreshold = 2500.0
	// reuseThreshold re-enables overrides once the decayed penalty
	// falls below it.
	reuseThreshold = 800.0
)

func (c StabilityConfig) withDefaults() StabilityConfig {
	if c.ApplyMarginMs <= 0 {
		c.ApplyMarginMs = DefaultApplyMarginMs
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	return c
}

// Damper is the per-prefix RFC 2439-style flap damper: every override
// transition (install, switch, withdraw — actual or merely desired
// while suppressed) accumulates a fixed penalty; the penalty decays
// exponentially; crossing suppressThreshold suppresses the prefix's
// overrides and only falling below reuseThreshold releases it.
type Damper struct {
	penalty    float64
	decayedAt  float64
	suppressed bool
	flips      uint64
}

// decay brings the penalty forward to simulated time now.
func (d *Damper) decay(now float64) {
	if dt := now - d.decayedAt; dt > 0 && d.penalty > 0 {
		d.penalty *= math.Exp2(-dt / penaltyHalfLifeSec)
	}
	d.decayedAt = now
}

// Flap records one override transition at simulated time now and
// returns whether the prefix is suppressed afterwards.
func (d *Damper) Flap(now float64) bool {
	d.decay(now)
	d.penalty += penaltyPerFlap
	d.flips++
	if d.penalty >= suppressThreshold {
		d.suppressed = true
	}
	return d.suppressed
}

// Suppressed reports whether overrides are suppressed at simulated
// time now, releasing the suppression if the penalty has decayed to
// the reuse threshold.
func (d *Damper) Suppressed(now float64) bool {
	d.decay(now)
	if d.suppressed && d.penalty < reuseThreshold {
		d.suppressed = false
	}
	return d.suppressed
}

// Penalty returns the decayed penalty at simulated time now.
func (d *Damper) Penalty(now float64) float64 {
	d.decay(now)
	return d.penalty
}

// Flips returns how many transitions the damper has recorded.
func (d *Damper) Flips() uint64 { return d.flips }

// Cand is one candidate egress for a tracked prefix.
type Cand struct {
	// PoP is the egress PoP's 1-based id; Code its display name.
	PoP  int
	Code string
	// Router is the egress router an override would pin, i.e. the
	// candidate session's router at this PoP.
	Router netip.Addr
	// GeoKm is the great-circle distance from this PoP to the prefix's
	// database location — the geographic prediction the measurements
	// are tested against.
	GeoKm float64
}

// decision is the outcome of evaluating one prefix.
type decision struct {
	// target is the desired override egress; nil Router means "no
	// override" (route geographically).
	target Cand
	active bool
	// advantageMs is smoothed(geo) - smoothed(target) when active.
	advantageMs float64
}

// evaluate runs the decision layer for one prefix: among warm, fresh
// candidate estimates, find the measured-best egress and install an
// override only when it contradicts the geographic choice by more than
// the (jitter-widened) apply margin — or keep/release an incumbent
// override per the hysteresis thresholds. cands must be non-empty;
// geoBest is the index of the geographically predicted candidate;
// incumbent is the currently installed override target PoP (0: none).
func evaluate(cfg StabilityConfig, cands []Cand, geoBest int, incumbent int,
	state func(Key) Snapshot, prefix netip.Prefix, now float64) decision {
	geoSnap := state(Key{PoP: cands[geoBest].PoP, Prefix: prefix})
	if !geoSnap.Warm(cfg.MinSamples) || !geoSnap.Fresh(now, maxStalenessSec) {
		// Without a trustworthy measurement of the geographic choice
		// there is nothing to contradict: route geographically.
		return decision{}
	}

	// Measured-best candidate among warm, fresh estimates (the
	// geographic choice competes too). Ties break on lowest PoP id for
	// determinism.
	best := -1
	var bestSnap Snapshot
	for i := range cands {
		s := state(Key{PoP: cands[i].PoP, Prefix: prefix})
		if !s.Warm(cfg.MinSamples) || !s.Fresh(now, maxStalenessSec) {
			continue
		}
		if best < 0 || s.SmoothedMs < bestSnap.SmoothedMs ||
			(s.SmoothedMs == bestSnap.SmoothedMs && cands[i].PoP < cands[best].PoP) {
			best, bestSnap = i, s
		}
	}
	if best < 0 {
		return decision{}
	}

	applyMargin := cfg.ApplyMarginMs + jitterFactor*bestSnap.JitterMs

	if incumbent != 0 {
		// An override is installed: find it among the candidates.
		inc := -1
		for i := range cands {
			if cands[i].PoP == incumbent {
				inc = i
				break
			}
		}
		if inc < 0 {
			return decision{} // target vanished from the candidate set
		}
		incSnap := state(Key{PoP: incumbent, Prefix: prefix})
		if !incSnap.Warm(cfg.MinSamples) || !incSnap.Fresh(now, maxStalenessSec) {
			return decision{} // stale incumbent: release
		}
		if incumbent == cands[geoBest].PoP {
			// Degenerate (should not happen: overrides never target the
			// geographic choice) — release.
			return decision{}
		}
		adv := geoSnap.SmoothedMs - incSnap.SmoothedMs
		if adv < releaseMarginMs {
			return decision{} // hysteresis floor crossed: withdraw
		}
		// Switch hysteresis: a different egress must beat the incumbent
		// by the full apply margin to take over.
		if best != inc && incumbent != cands[best].PoP && best != geoBest &&
			incSnap.SmoothedMs-bestSnap.SmoothedMs > applyMargin {
			return decision{target: cands[best], active: true,
				advantageMs: geoSnap.SmoothedMs - bestSnap.SmoothedMs}
		}
		return decision{target: cands[inc], active: true, advantageMs: adv}
	}

	if best == geoBest {
		return decision{} // measurements agree with geography
	}
	adv := geoSnap.SmoothedMs - bestSnap.SmoothedMs
	if adv <= applyMargin {
		return decision{} // contradiction below the margin: not actionable
	}
	return decision{target: cands[best], active: true, advantageMs: adv}
}
