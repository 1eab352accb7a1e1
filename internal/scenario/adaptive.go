package scenario

import (
	"fmt"
	"net/netip"

	"vns/internal/adaptive"
)

// This file wires internal/adaptive into the scenario harness: the
// controller probes through the data-plane delay model (truth-based,
// with its trans-Pacific waypoints and regional hairpins), optionally
// distorted by scripted probe-bias events, and applies overrides to the
// same GeoRR the invariant suite inspects.

// setupAdaptive builds the spec's adaptive controller. Called after
// selector resolution (tracked prefixes may be "#N" selectors) and
// before the run starts.
func (e *engine) setupAdaptive() error {
	a := e.spec.Adaptive
	e.probeBias = make(map[adaptive.Key]float64)
	e.geoBestPoP = make(map[netip.Prefix]int)

	// The controller's measurement backend: the deployment's own probe
	// (Env.AdaptiveProbe, the delay model's truth-based external RTT from
	// the egress PoP) plus any scripted bias. Everything runs on the sim
	// goroutine, so the bias map needs no lock.
	unbiased := e.AdaptiveProbe()
	e.probe = func(pop int, pfx netip.Prefix) (float64, bool) {
		rtt, ok := unbiased(pop, pfx)
		if !ok {
			return 0, false
		}
		rtt += e.probeBias[adaptive.Key{PoP: pop, Prefix: pfx}]
		if rtt < 0.1 {
			rtt = 0.1
		}
		return rtt, true
	}
	e.adaptive = adaptive.NewController(adaptive.Config{
		Sim:         e.Sim,
		IntervalSec: a.IntervalSec,
		Budget:      a.Budget,
		HalfLifeSec: a.HalfLifeSec,
		Stability:   adaptive.StabilityConfig{MinSamples: a.MinSamples},
		Probe:       e.probe,
		Sink:        e.RR,
		Telemetry:   e.Telemetry,
		Convergence: e.Fwd.Convergence(),
	})

	track := func(pfx netip.Prefix) error {
		tr, ok := e.AdaptiveTrack(pfx)
		if !ok {
			return nil
		}
		e.geoBestPoP[pfx] = tr.GeoBest
		return e.adaptive.Track(tr.Prefix, tr.Cands)
	}
	if len(a.Prefixes) > 0 {
		for _, sel := range a.Prefixes {
			pfx, err := e.resolveSelector(sel)
			if err != nil {
				return err
			}
			if err := track(pfx); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range e.Topo.Prefixes {
		if err := track(e.Topo.Prefixes[i].Prefix); err != nil {
			return err
		}
	}
	return nil
}

// biasKey resolves a probe-bias/probe-oscillate event to its path key.
// PoP "geo" means the prefix's geographically predicted egress.
func (e *engine) biasKey(ev *Event) (adaptive.Key, error) {
	pfx, ok := e.selectors[ev.Prefix]
	if !ok {
		return adaptive.Key{}, fmt.Errorf("unresolved prefix selector %q", ev.Prefix)
	}
	var pop int
	if ev.PoP == "geo" {
		pop, ok = e.geoBestPoP[pfx]
		if !ok {
			return adaptive.Key{}, fmt.Errorf("prefix %v is not adaptively tracked", pfx)
		}
	} else {
		pop = e.Net.PoP(ev.PoP).ID
	}
	return adaptive.Key{PoP: pop, Prefix: pfx}, nil
}

// applyProbeBias handles the probe-bias op: ExtraMs 0 clears.
func (e *engine) applyProbeBias(ev *Event) error {
	k, err := e.biasKey(ev)
	if err != nil {
		return err
	}
	if ev.ExtraMs == 0 {
		delete(e.probeBias, k)
	} else {
		e.probeBias[k] = ev.ExtraMs
	}
	return nil
}

// applyProbeOscillate schedules the bias on for the first half of each
// period and off for the second, Cycles times, ending clear.
func (e *engine) applyProbeOscillate(ev *Event) error {
	k, err := e.biasKey(ev)
	if err != nil {
		return err
	}
	now := e.Sim.Now()
	for i := 0; i < ev.Cycles; i++ {
		at := now + float64(i)*ev.PeriodSec
		e.Sim.Schedule(at, func() { e.probeBias[k] = ev.ExtraMs })
		e.Sim.Schedule(at+ev.PeriodSec/2, func() { delete(e.probeBias, k) })
	}
	return nil
}

// adaptiveGain measures, per overridden prefix, the modeled external
// RTT at the geographic choice vs. the adaptive choice. The means go in
// the final checkpoint's trace: the subsystem's whole point is that the
// adaptive column is lower.
func (e *engine) adaptiveGain() (n int, geoMs, adMs float64) {
	st := e.adaptive.Status(e.Sim.Now())
	for _, o := range st.Overrides {
		g, okG := e.probe(e.geoBestPoP[o.Prefix], o.Prefix)
		a, okA := e.probe(o.PoP, o.Prefix)
		if !okG || !okA {
			continue
		}
		n++
		geoMs += g
		adMs += a
	}
	if n > 0 {
		geoMs /= float64(n)
		adMs /= float64(n)
	}
	return n, geoMs, adMs
}
