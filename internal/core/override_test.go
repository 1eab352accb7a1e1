package core

import (
	"net/netip"
	"testing"
)

func TestSetOverrideAssigns(t *testing.T) {
	rr, _ := testRR(t)
	p := prefix("10.3.0.0/16") // geolocated in Hong Kong

	// Geo baseline: HK egress is closest, AMS far behind.
	if d := rr.Assign(addr("10.0.3.1"), p); d.LocalPref <= 1000 || d.Reason != "" {
		t.Fatalf("geo baseline at HK: %+v", d)
	}

	if err := rr.SetOverride(p, addr("10.0.1.1")); err != nil {
		t.Fatal(err)
	}
	d := rr.Assign(addr("10.0.1.1"), p)
	if d.LocalPref != AdaptiveLocalPref || d.Reason != "adaptive" {
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
	if d := rr.Assign(addr("10.0.1.1"), p); d.Reason != "egress down" {
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

	if eg, ok := rr.OverrideFor(p); !ok || eg != addr("10.0.2.1") {
		t.Fatalf("OverrideFor = %v %v", eg, ok)
	}
	if err := rr.SetOverride(prefix("10.3.0.0/16"), addr("10.0.1.1")); err != nil {
		t.Fatal(err)
	}
	ovs := rr.Overrides()
	if len(ovs) != 2 || ovs[0].Prefix != p || ovs[1].Prefix != prefix("10.3.0.0/16") {
		t.Fatalf("Overrides = %+v", ovs)
	}

	if !rr.ClearOverride(p) {
		t.Fatal("clear missed the installed override")
	}
	if len(changed) != 3 {
		t.Fatalf("change notifications after clear: %v", changed)
	}
	if _, ok := rr.OverrideFor(p); ok {
		t.Fatal("override survived clear")
	}
	if d := rr.Assign(addr("10.0.2.1"), p); d.Reason == "adaptive" {
		t.Fatalf("cleared override still assigns: %+v", d)
	}
}
