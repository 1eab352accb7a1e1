package health

import (
	"net/netip"
	"testing"

	"vns/internal/core"
	"vns/internal/geoip"
	"vns/internal/telemetry"
	"vns/internal/topo"
	"vns/internal/vns"
)

// controllerWorld builds a small seed-1 deployment: a topology, the
// peering over it, a reflector over every egress router with a
// ground-truth GeoIP database, and a synchronous forwarding plane with
// telemetry, so convergence events are counted.
func controllerWorld(t *testing.T) (*vns.Forwarding, *core.GeoRR) {
	t.Helper()
	tp := topo.Generate(topo.GenConfig{Seed: 1, NumAS: 40})
	pr := vns.Connect(vns.NewNetwork(), tp, 1)
	db := geoip.New()
	for i := range tp.Prefixes {
		pi := &tp.Prefixes[i]
		if err := db.Insert(geoip.Record{Prefix: pi.Prefix, Pos: pi.Loc, Country: pi.Country, Region: pi.Region}); err != nil {
			t.Fatal(err)
		}
	}
	rr := core.New(core.Config{DB: db})
	for _, p := range pr.Net.PoPs {
		for _, r := range p.Routers {
			rr.AddEgress(core.Egress{ID: r, Pos: p.Place.Pos, PoP: p.Code})
		}
	}
	return vns.NewForwarding(pr, rr, vns.ForwardingConfig{Telemetry: telemetry.New()}), rr
}

// TestDrainUnchangedStartsNoPass checks that a Drain which changes no
// router's state — egress-down of a router already down, egress-up of
// one in service — reports false, runs no resolve pass (no Assign
// call) and begins no convergence event, while each effective drain
// runs its pass as one event.
func TestDrainUnchangedStartsNoPass(t *testing.T) {
	fwd, rr := controllerWorld(t)
	c := NewController(fwd, rr, nil)
	conv := fwd.Convergence()
	router := fwd.Peering.Net.PoP("HK").Routers[0]
	for i, step := range []struct{ down, changed bool }{
		{true, true}, {true, false}, {false, true}, {false, false},
	} {
		assigns, _ := rr.Stats()
		events := conv.Events()
		if got := c.Drain(router, step.down); got != step.changed {
			t.Fatalf("step %d: Drain(%v, down=%v) = %v, want %v", i, router, step.down, got, step.changed)
		}
		after, _ := rr.Stats()
		switch {
		case step.changed && (after == assigns || conv.Events() != events+1):
			t.Errorf("step %d: an effective drain made %d Assign calls and %d events, want a pass and one event", i, after-assigns, conv.Events()-events)
		case !step.changed && (after != assigns || conv.Events() != events):
			t.Errorf("step %d: a drain that changed nothing made %d Assign calls and %d events, want none", i, after-assigns, conv.Events()-events)
		}
	}
}

// TestDrainSurvivesLivenessTransitions checks the controller's one
// rule for an egress router's service state: down if and only if an
// operator drained it or its PoP is isolated. A link transition at a
// drained router's PoP that leaves the PoP connected keeps the drain,
// and an egress-up at an isolated PoP keeps the router down until the
// PoP regains an adjacency.
func TestDrainSurvivesLivenessTransitions(t *testing.T) {
	fwd, rr := controllerWorld(t)
	c := NewController(fwd, rr, nil)
	net := fwd.Peering.Net
	hk, sin, syd := net.PoP("HK"), net.PoP("SIN"), net.PoP("SYD")
	down := func(step string, r netip.Addr, want bool) {
		t.Helper()
		if got := rr.Policy().EgressDown(r); got != want {
			t.Fatalf("%s: EgressDown(%v) = %v, want %v", step, r, got, want)
		}
	}

	drained := hk.Routers[0]
	c.Drain(drained, true)
	c.Apply(hk, sin, false) // HK keeps its TOK link: not isolated
	down("link down at a drained router's PoP", drained, true)
	c.Apply(hk, sin, true)
	down("link up at a drained router's PoP", drained, true)
	c.Drain(drained, false)
	down("egress-up at a connected PoP", drained, false)

	r := syd.Routers[0]
	c.Apply(sin, syd, false) // SYD's only link: isolated
	down("isolated PoP", r, true)
	if c.Drain(r, false) {
		t.Error("egress-up at an isolated PoP reported a change")
	}
	down("egress-up at an isolated PoP", r, true)
	c.Drain(r, true)
	c.Apply(sin, syd, true)
	down("PoP reconnected while drained", r, true)
	c.Drain(r, false)
	down("egress-up after the PoP reconnected", r, false)
}
