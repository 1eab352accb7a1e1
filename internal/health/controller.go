package health

import (
	"net/netip"
	"sync"
	"time"

	"vns/internal/core"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// Controller is the failover brain: it consumes liveness events and
// drives the control plane back to a consistent state. On a link-down
// it marks the link failed in the IGP (rerouting internal paths); when
// a PoP loses its last adjacency it withdraws the PoP's egress routers
// from the GeoRR, so reselection falls to the geographically next-best
// healthy egress everywhere. Either way it then invalidates the whole
// prefix universe and flushes the forwarding plane: one resolve pass
// that reads each prefix's router preferences once for all PoPs, with
// each publisher's no-spurious-churn fast path keeping the prefixes
// whose next hop didn't move free of publishes. Recovery reverses each
// step, and Drain gives an operator's egress drain the same republish.
// A router is out of service if and only if it is drained or its PoP
// is isolated, so a liveness transition never undoes a drain.
type Controller struct {
	fwd *vns.Forwarding
	rr  *core.GeoRR
	met *ControllerMetrics // nil when uninstrumented

	// mu serializes reconvergence — Apply runs on the simulation
	// goroutine, Drain on the admin endpoint's /mgmt handler — and guards drained.
	mu      sync.Mutex
	drained map[netip.Addr]bool // routers an operator took out of service
}

// ControllerMetrics are the failover controller's pre-resolved
// telemetry handles. How long each reconvergence took is its "failover"
// convergence event's: convergence_seconds{kind="failover"}.
type ControllerMetrics struct {
	// Withdrawals and Restores count egress routers taken out of and
	// returned to service; the link events count effective liveness
	// transitions (stale ones never reach the counters).
	Withdrawals, Restores        *telemetry.Counter
	LinkUpEvents, LinkDownEvents *telemetry.Counter
}

// NewController builds a controller over the forwarding plane and its
// reflector, registering its metric families in reg; a nil reg leaves
// it uninstrumented.
func NewController(fwd *vns.Forwarding, rr *core.GeoRR, reg *telemetry.Registry) *Controller {
	c := &Controller{fwd: fwd, rr: rr, drained: make(map[netip.Addr]bool)}
	if reg != nil {
		c.met = &ControllerMetrics{
			Withdrawals:    reg.Counter("failover_withdrawals", "egress routers withdrawn because their PoP lost its last adjacency"),
			Restores:       reg.Counter("failover_restores", "egress routers restored after their PoP regained an adjacency"),
			LinkUpEvents:   reg.Counter("failover_link_up_events", "effective link-up transitions reconverged"),
			LinkDownEvents: reg.Counter("failover_link_down_events", "effective link-down transitions reconverged"),
		}
	}
	return c
}

// Metrics returns the controller's telemetry handles, nil when it was
// built without a registry.
func (c *Controller) Metrics() *ControllerMetrics { return c.met }

// Bind subscribes the controller to a monitor's liveness events.
func (c *Controller) Bind(m *Monitor) {
	m.OnEvent(func(ev Event) { c.Apply(ev.A, ev.B, ev.Up) })
}

// Apply reconverges the control plane after a liveness transition on
// the a-b link and returns how long the reconvergence took (zero when
// the event was stale — the IGP already agreed). It is the whole
// failover path: IGP update, egress withdrawal/restoration, and one
// universe-wide resolve pass that republishes every PoP's FIB before it
// returns (Flush runs it even under a debounce).
func (c *Controller) Apply(a, b *vns.PoP, up bool) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now() //vnslint:wallclock measures real reconvergence compute, not simulated time
	fab := c.fwd.Fabric()
	if !fab.SetLinkState(a, b, up) {
		return 0
	}
	// One "failover" convergence event per effective liveness transition
	// (stale events returned above and never begin one). The georr stage
	// is the egress withdrawal/restoration sweep; the forwarding stage is
	// the universe republish, minus the compile time the publishers
	// attribute back through the event ID.
	ev := c.fwd.Convergence().Begin(telemetry.ConvFailover)
	mark := ev.Mark()
	net := fab.Network()
	for _, p := range [2]*vns.PoP{a, b} {
		isolated := popIsolated(net, p)
		for _, r := range p.Routers {
			down := isolated || c.drained[r]
			if !c.rr.SetEgressDown(r, down) {
				continue
			}
			if c.met != nil {
				if down {
					c.met.Withdrawals.Inc()
				} else {
					c.met.Restores.Inc()
				}
			}
		}
	}
	mark = ev.Stage(telemetry.StageGeoRR, mark)
	c.fwd.InvalidateAll()
	c.fwd.Flush()
	ev.StageExclusive(telemetry.StageForwarding, mark)
	ev.Finish()
	took := time.Since(start) //vnslint:wallclock measures real reconvergence compute, not simulated time
	if c.met != nil {
		if up {
			c.met.LinkUpEvents.Inc()
		} else {
			c.met.LinkDownEvents.Inc()
		}
	}
	return took
}

// Drain takes an egress router out of service (down) or returns it, as
// the management interface's egress-down and egress-up do, and reports
// whether its state changed. A router returned at an isolated PoP stays
// down until the PoP regains an adjacency. A drain moves no route in
// the reflector, so like a liveness withdrawal it republishes every
// PoP's FIB itself, in one universe-wide resolve pass: one "drain"
// convergence event, serialized with Apply. A drain that changes
// nothing (egress-down of a router already down) returns before the
// event, like Apply's stale transitions, and starts no pass.
func (c *Controller) Drain(router netip.Addr, down bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.drained, router)
	if net := c.fwd.Fabric().Network(); down {
		c.drained[router] = true
	} else if p, ok := net.RouterPoP(router); ok {
		down = popIsolated(net, p)
	}
	if !c.rr.SetEgressDown(router, down) {
		return false
	}
	ev := c.fwd.Convergence().Begin(telemetry.ConvDrain)
	mark := ev.Mark()
	c.fwd.InvalidateAll()
	c.fwd.Flush()
	ev.StageExclusive(telemetry.StageForwarding, mark)
	ev.Finish()
	return true
}

// popIsolated reports whether every L2 adjacency of p is down — the
// condition under which the PoP is unreachable internally and its
// egresses must be withdrawn.
func popIsolated(net *vns.Network, p *vns.PoP) bool {
	for _, l := range net.L2Links() {
		if l[0] != p && l[1] != p {
			continue
		}
		if !net.L2LinkDown(l[0], l[1]) {
			return false
		}
	}
	return true
}
