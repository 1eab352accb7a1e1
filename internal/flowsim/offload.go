package flowsim

// The offload controller ("Saving Private WAN"): once per epoch, every
// group's overlay delay estimate is refreshed and compared against its
// direct-Internet alternative. A group whose overlay advantage
// (directMs - overlayMs) stays below offloadBelowMs for DwellSec moves
// off the overlay; it returns only when the advantage climbs above
// reclaimAboveMs for DwellSec. The gap between the two thresholds plus
// the dwell is the hysteresis that keeps borderline groups from
// ping-ponging — the same discipline internal/adaptive applies to
// LOCAL_PREF overrides.
//
// While a group is on the overlay, the estimate is fed by measurement:
// the delivered-weighted effective delay of its epoch batches (the
// slowest usable subpath, i.e. what the reorder buffer actually plays
// out at — so queueing, delay spikes, and multipath skew all show).
// While offloaded, no traffic measures the overlay, so the estimate is
// fed by an analytic probe of the primary path (propagation + installed
// extra delay + tail). The probe cannot see queueing, which is exactly
// why reclaimAboveMs must clear offloadBelowMs by a real margin: a
// reclaimed group that re-congests the overlay will be offloaded again,
// but only after burning a full dwell.

// controllerStep runs once per epoch on the simulation goroutine.
func (e *Engine) controllerStep() {
	if e.stopped {
		return
	}
	now := e.sim.Now()
	cfg := e.cfg.Offload

	offloadedFlows := 0
	for _, g := range e.groups {
		// Refresh the overlay delay estimate.
		var sample float64
		switch {
		case !g.offloaded && g.epochDelivered > 0:
			sample = g.epochDelaySum / float64(g.epochDelivered)
		case len(g.cfg.Paths) > 0:
			sample = g.probeOverlayMs()
		default:
			// Direct-only group: nothing to estimate or decide.
			g.epochDelaySum, g.epochDelivered = 0, 0
			offloadedFlows += g.flows
			continue
		}
		g.est.Ingest(sample, now)
		g.epochDelaySum, g.epochDelivered = 0, 0

		if cfg.Enabled && g.cfg.DirectMs > 0 {
			e.decide(g, now)
		}
		if g.offloaded {
			offloadedFlows += g.flows
		}
	}
	e.tot.OffloadedFlows = offloadedFlows

	e.updateMetrics()
	e.publish()
	e.sim.After(e.cfg.EpochSec, e.controllerStep)
}

// decide applies the hysteresis + dwell state machine to one group.
func (e *Engine) decide(g *group, now float64) {
	st := g.est.State()
	if !st.Warm(minSamples) {
		return
	}
	advantage := g.cfg.DirectMs - st.SmoothedMs

	var pending bool
	if g.offloaded {
		pending = advantage > reclaimAboveMs
	} else {
		pending = advantage < offloadBelowMs
	}
	if !pending {
		g.condSince = -1
		return
	}
	if g.condSince < 0 {
		g.condSince = now
		return
	}
	if now-g.condSince < e.cfg.Offload.DwellSec {
		return
	}
	g.offloaded = !g.offloaded
	g.transitions++
	g.lastTransitionAt = now
	g.condSince = -1
	e.tot.OffloadTransitions++
}

// probeOverlayMs is the analytic overlay delay of the primary path:
// propagation plus any installed delay spike plus the tail. An
// admin-down link makes the path unusable; the probe reports direct
// plus a constant penalty so the estimator converges to "worse than
// direct" without diverging.
func (g *group) probeOverlayMs() float64 {
	p := g.cfg.Paths[0]
	delay := p.TailMs
	for _, l := range p.Links {
		if l.AdminDown() {
			return g.cfg.DirectMs + 1000
		}
		delay += l.PropDelayMs + l.ExtraDelayMs()
	}
	return delay
}
