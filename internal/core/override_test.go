package core

import (
	"net/netip"
	"testing"
)

func TestSetOverrideAssigns(t *testing.T) {
	rr, _ := testRR(t)
	p := prefix("10.3.0.0/16") // geolocated in Hong Kong

	// Geo baseline: HK egress is closest, AMS far behind.
	if d := rr.Assign(addr("10.0.3.1"), p); d.LocalPref <= 1000 || d.Reason != ReasonGeo {
		t.Fatalf("geo baseline at HK: %+v", d)
	}

	if err := rr.SetOverride(p, addr("10.0.1.1")); err != nil {
		t.Fatal(err)
	}
	d := rr.Assign(addr("10.0.1.1"), p)
	if d.LocalPref != AdaptiveLocalPref || d.Reason != ReasonAdaptive {
		t.Fatalf("override egress: %+v, want LOCAL_PREF %d reason adaptive", d, AdaptiveLocalPref)
	}
	// Other egresses keep their geographic preference, always below the
	// override, so they remain a usable fallback.
	if d := rr.Assign(addr("10.0.3.1"), p); d.LocalPref == 0 || d.LocalPref >= AdaptiveLocalPref {
		t.Fatalf("non-override egress: %+v, want geo preference below %d", d, AdaptiveLocalPref)
	}
}

func TestOverrideOrdering(t *testing.T) {
	rr, _ := testRR(t)
	p := prefix("10.3.0.0/16")
	if err := rr.SetOverride(p, addr("10.0.1.1")); err != nil {
		t.Fatal(err)
	}

	// A management force outranks the measured override.
	if err := rr.ForceExit(p, addr("10.0.2.1")); err != nil {
		t.Fatal(err)
	}
	if d := rr.Assign(addr("10.0.2.1"), p); d.LocalPref != 4000 {
		t.Fatalf("forced egress with override present: %+v", d)
	}
	if d := rr.Assign(addr("10.0.1.1"), p); d.LocalPref != 0 {
		t.Fatalf("override egress under a force: %+v, want no preference", d)
	}
	rr.Unforce(p)
	if d := rr.Assign(addr("10.0.1.1"), p); d.LocalPref != AdaptiveLocalPref {
		t.Fatalf("override after unforce: %+v", d)
	}

	// Egress-down outranks the override at that router (the route is
	// withdrawn from preference; geography takes over elsewhere).
	rr.SetEgressDown(addr("10.0.1.1"), true)
	if d := rr.Assign(addr("10.0.1.1"), p); d.Reason != ReasonEgressDown {
		t.Fatalf("down override egress: %+v", d)
	}
	if d := rr.Assign(addr("10.0.3.1"), p); d.LocalPref <= 1000 {
		t.Fatalf("fallback egress while override target down: %+v", d)
	}
}

func TestOverrideLifecycle(t *testing.T) {
	rr, _ := testRR(t)
	p := prefix("10.1.0.0/16")

	if err := rr.SetOverride(p, addr("10.9.9.9")); err == nil {
		t.Fatal("unknown egress accepted")
	}
	if rr.ClearOverride(p) {
		t.Fatal("cleared an override that was never set")
	}

	var changed []netip.Prefix
	rr.OnChangeBatch(func(pfxs []netip.Prefix) { changed = append(changed, pfxs...) })

	if err := rr.SetOverride(p, addr("10.0.2.1")); err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != p {
		t.Fatalf("change notifications after set: %v", changed)
	}
	// Re-installing the identical override must not re-notify (the
	// controller re-decides every probe round; unchanged decisions must
	// not thrash FIB recompiles).
	if err := rr.SetOverride(p, addr("10.0.2.1")); err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 {
		t.Fatalf("idempotent set re-notified: %v", changed)
	}

	if eg, ok := rr.Policy().OverrideFor(p); !ok || eg != addr("10.0.2.1") {
		t.Fatalf("OverrideFor = %v %v", eg, ok)
	}
	if err := rr.SetOverride(prefix("10.3.0.0/16"), addr("10.0.1.1")); err != nil {
		t.Fatal(err)
	}
	ovs := rr.Policy().Overrides()
	if len(ovs) != 2 || ovs[0].Prefix != p || ovs[1].Prefix != prefix("10.3.0.0/16") {
		t.Fatalf("Overrides = %+v", ovs)
	}

	if !rr.ClearOverride(p) {
		t.Fatal("clear missed the installed override")
	}
	if len(changed) != 3 {
		t.Fatalf("change notifications after clear: %v", changed)
	}
	if _, ok := rr.Policy().OverrideFor(p); ok {
		t.Fatal("override survived clear")
	}
	if d := rr.Assign(addr("10.0.2.1"), p); d.Reason == ReasonAdaptive {
		t.Fatalf("cleared override still assigns: %+v", d)
	}
}

// TestNoOpMutationsNotifyNobody: a mutation that changes nothing
// publishes no new policy and notifies no subscriber, so it costs the
// forwarding plane no resolve pass. Each case runs after a setup that
// makes it a no-op.
func TestNoOpMutationsNotifyNobody(t *testing.T) {
	p, ams, hk := prefix("10.1.0.0/16"), addr("10.0.1.1"), addr("10.0.3.1")
	sub := prefix("10.1.200.0/24")
	covered := func(netip.Prefix) bool { return true }
	cases := []struct {
		name   string
		setup  func(rr *GeoRR)
		mutate func(rr *GeoRR)
	}{
		{"Exempt of an exempt prefix", func(rr *GeoRR) { rr.Exempt(p) }, func(rr *GeoRR) { rr.Exempt(p) }},
		{"Unexempt with nothing exempt", nil, func(rr *GeoRR) { rr.Unexempt(p) }},
		{"Unforce with nothing forced", nil, func(rr *GeoRR) { rr.Unforce(p) }},
		{"ForceExit to the forced egress", func(rr *GeoRR) { _ = rr.ForceExit(p, hk) }, func(rr *GeoRR) { _ = rr.ForceExit(p, hk) }},
		{"ForceExit to an unknown egress", nil, func(rr *GeoRR) { _ = rr.ForceExit(p, addr("10.9.9.9")) }},
		{"AddStatic of an installed static", func(rr *GeoRR) { _ = rr.AddStatic(sub, hk, covered) }, func(rr *GeoRR) { _ = rr.AddStatic(sub, hk, covered) }},
		{"RemoveStatic of an absent static", func(rr *GeoRR) { _ = rr.AddStatic(sub, hk, covered) }, func(rr *GeoRR) { rr.RemoveStatic(sub, ams) }},
		{"SetOverride of the installed override", func(rr *GeoRR) { _ = rr.SetOverride(p, hk) }, func(rr *GeoRR) { _ = rr.SetOverride(p, hk) }},
		{"ClearOverride with nothing installed", nil, func(rr *GeoRR) { rr.ClearOverride(p) }},
		{"SetEgressDown of a live egress to up", nil, func(rr *GeoRR) { rr.SetEgressDown(ams, false) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rr, _ := testRR(t)
			if c.setup != nil {
				c.setup(rr)
			}
			calls := 0
			rr.OnChangeBatch(func([]netip.Prefix) { calls++ })
			before := rr.Policy()
			c.mutate(rr)
			if calls != 0 {
				t.Errorf("%d OnChangeBatch calls, want none", calls)
			}
			if rr.Policy() != before {
				t.Error("published a new policy")
			}
		})
	}
}
