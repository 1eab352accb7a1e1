package vns

import "vns/internal/loss"

// EmulateOptions tunes the packet-level (netsim) links of the L2
// fabric, over which media sessions run through the full discrete-event
// simulator — queueing, serialization, jitter and all — instead of the
// statistical fast path. The experiments use the fast path for scale
// and the fabric to validate it (TestEmulationAgreesWithFastPath).
type EmulateOptions struct {
	// BandwidthMbps per L2 link; the overlay is well-provisioned, so
	// the default of 1000 leaves media traffic far from saturation.
	BandwidthMbps float64
	// JitterMsSigma models residual cross-traffic on multiplexed
	// long-haul links; intra-cluster links get a tenth of it.
	JitterMsSigma float64
	// LongHaulLoss attaches the residual loss process to long-haul
	// crossings; nil means lossless links.
	LongHaulLoss func(rng *loss.RNG) loss.Model
	// Seed drives the per-link randomness.
	Seed uint64
}

func (o EmulateOptions) withDefaults() EmulateOptions {
	if o.BandwidthMbps == 0 {
		o.BandwidthMbps = 1000
	}
	if o.JitterMsSigma == 0 {
		o.JitterMsSigma = 0.5
	}
	return o
}
