package health

import (
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
