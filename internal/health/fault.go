package health

import (
	"vns/internal/netsim"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// Injector schedules data-plane faults into the simulation. Faults act
// directly on the fabric's shared links — packets (traffic and hellos
// alike) start dropping at the scheduled instant — while the control
// plane stays oblivious until liveness detection catches up. All
// schedules run in simulated time, so a given scenario is
// deterministic: the same seed and schedule produce the same packet-
// level outcome every run.
type Injector struct {
	sim *netsim.Sim
	fab *vns.L2Fabric

	// Injected-fault counters, nil when uninstrumented.
	linkDown, linkUp, delaySpike, popDown, popUp *telemetry.Counter
}

// NewInjector builds an injector over the fabric, registering its
// metric families in reg; a nil reg leaves it uninstrumented.
func NewInjector(sim *netsim.Sim, fab *vns.L2Fabric, reg *telemetry.Registry) *Injector {
	in := &Injector{sim: sim, fab: fab}
	if reg != nil {
		in.linkDown = reg.Counter("fault_link_down", "link-down faults injected")
		in.linkUp = reg.Counter("fault_link_up", "link-up restorations injected")
		in.delaySpike = reg.Counter("fault_delay_spike", "delay spikes injected")
		in.popDown = reg.Counter("fault_pop_down", "whole-PoP failures injected")
		in.popUp = reg.Counter("fault_pop_up", "whole-PoP recoveries injected")
	}
	return in
}

func count(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

// LinkDownAt administratively downs both directions of the a-b link at
// simulated time at.
func (in *Injector) LinkDownAt(at netsim.Time, a, b *vns.PoP) {
	in.sim.Schedule(at, func() {
		in.fab.SetAdmin(a, b, true)
		count(in.linkDown)
	})
}

// LinkUpAt restores both directions of the a-b link at simulated time
// at.
func (in *Injector) LinkUpAt(at netsim.Time, a, b *vns.PoP) {
	in.sim.Schedule(at, func() {
		in.fab.SetAdmin(a, b, false)
		count(in.linkUp)
	})
}

// FlapLink schedules cycles down/up cycles on the a-b link: down at
// start + i*period, back up half a period later. The last cycle leaves
// the link up.
func (in *Injector) FlapLink(a, b *vns.PoP, start, period netsim.Time, cycles int) {
	for i := 0; i < cycles; i++ {
		t := start + netsim.Time(i)*period
		in.LinkDownAt(t, a, b)
		in.LinkUpAt(t+period/2, a, b)
	}
}

// DelaySpikeAt adds extraMs of one-way delay to both directions of the
// a-b link at time at, clearing it after durSec.
func (in *Injector) DelaySpikeAt(at netsim.Time, a, b *vns.PoP, extraMs float64, durSec netsim.Time) {
	in.sim.Schedule(at, func() {
		in.fab.SetExtraDelayMs(a, b, extraMs)
		count(in.delaySpike)
	})
	in.sim.Schedule(at+durSec, func() {
		in.fab.SetExtraDelayMs(a, b, 0)
	})
}

// FailPoPAt downs every L2 adjacency of p at time at — a whole-PoP
// failure (power loss, fiber cut at the site).
func (in *Injector) FailPoPAt(at netsim.Time, p *vns.PoP) {
	in.sim.Schedule(at, func() {
		for _, l := range in.fab.Network().L2Links() {
			if l[0] == p || l[1] == p {
				in.fab.SetAdmin(l[0], l[1], true)
			}
		}
		count(in.popDown)
	})
}

// RecoverPoPAt restores every L2 adjacency of p at time at.
func (in *Injector) RecoverPoPAt(at netsim.Time, p *vns.PoP) {
	in.sim.Schedule(at, func() {
		for _, l := range in.fab.Network().L2Links() {
			if l[0] == p || l[1] == p {
				in.fab.SetAdmin(l[0], l[1], false)
			}
		}
		count(in.popUp)
	})
}
