package experiments

import (
	"strings"
	"testing"

	"vns/internal/health"
	"vns/internal/vns"
)

// TestFailoverEndToEnd is the acceptance scenario for internal/health:
// kill Sydney's only L2 link under an active FIB-forwarded RTP stream
// and check the whole chain — detection within the BFD bound, GeoRR
// withdrawal, FIB reconvergence with congruence intact, a bounded loss
// window, and full restoration after recovery.
func TestFailoverEndToEnd(t *testing.T) {
	res := FailoverStudy(Config{Seed: 42, NumAS: 900})
	if !res.Prefix.IsValid() {
		t.Fatal("no routable destination found")
	}
	out := res.Render()
	t.Logf("\n%s", out)
	if want := "after heal (incl. 1000ms up-hold)"; !strings.Contains(out, want) {
		t.Errorf("render missing %q", want)
	}

	if res.OrigEgress != "SYD" {
		t.Errorf("stream did not start via SYD: %q", res.OrigEgress)
	}
	if res.DetectionSec <= 0 || res.DetectionSec > res.DetectionBoundSec {
		t.Errorf("detection %.3fs outside (0, %.3fs]", res.DetectionSec, res.DetectionBoundSec)
	}
	if res.FailEgress == "" || res.FailEgress == "SYD" {
		t.Errorf("no failover egress: %q", res.FailEgress)
	}
	if res.RestoredEgress != "SYD" {
		t.Errorf("recovery did not restore SYD: %q", res.RestoredEgress)
	}
	// Both SYD routers withdrawn once and restored once.
	if res.Withdrawals != vns.RoutersPerPoP || res.Restores != vns.RoutersPerPoP {
		t.Errorf("withdrawals/restores = %d/%d, want %d/%d",
			res.Withdrawals, res.Restores, vns.RoutersPerPoP, vns.RoutersPerPoP)
	}
	// The data plane must agree with the control plane in both the
	// failed-over and the recovered state.
	if res.FailCongruence < 0.99 {
		t.Errorf("congruence during outage = %.4f", res.FailCongruence)
	}
	if res.FinalCongruence < 0.99 {
		t.Errorf("congruence after recovery = %.4f", res.FinalCongruence)
	}
	// Loss is confined to the detection window plus in-flight packets
	// on the long LON->SYD path (about 0.3 s one way).
	if res.LostPackets == 0 {
		t.Error("fault produced no loss — was the stream on the link?")
	}
	if res.OutageSec > res.DetectionBoundSec+1.0 {
		t.Errorf("outage %.2fs exceeds detection bound %.2fs + 1s in-flight margin",
			res.OutageSec, res.DetectionBoundSec)
	}
	// Recovery waits out the up-hold hysteresis, then reconverges.
	const upHold = health.UpHoldMs / 1000
	if res.RecoverySec < upHold || res.RecoverySec > upHold+res.DetectionBoundSec+0.2 {
		t.Errorf("recovery %.3fs outside [%.2f, %.2f]",
			res.RecoverySec, upHold, upHold+res.DetectionBoundSec+0.2)
	}
	// One failover convergence event per effective transition, timed
	// into convergence_seconds{kind="failover"}: the cut and the heal.
	if res.FailoverEvents != 2 || res.FailoverMeanMs <= 0 {
		t.Errorf("convergence_seconds{kind=\"failover\"}: count %d, mean %.3fms; want 2 events of nonzero time",
			res.FailoverEvents, res.FailoverMeanMs)
	}
}

// TestFailoverStudyDeterministic checks the simulated-time half of the
// study (wall-clock convergence samples necessarily vary) is identical
// across runs.
func TestFailoverStudyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full environments")
	}
	cfg := Config{Seed: 42, NumAS: 900}
	a, b := FailoverStudy(cfg), FailoverStudy(cfg)
	if a.Prefix != b.Prefix || a.DetectionSec != b.DetectionSec ||
		a.RecoverySec != b.RecoverySec || a.LostPackets != b.LostPackets ||
		a.OrigEgress != b.OrigEgress || a.FailEgress != b.FailEgress {
		t.Fatalf("study not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestControllerFlapSuppression runs a flapping link through the full
// monitor -> controller -> GeoRR -> FIB chain: the up-hold hysteresis
// must collapse six flap cycles into at most one withdraw/restore
// cycle per router.
func TestControllerFlapSuppression(t *testing.T) {
	d := NewEnv(Config{Seed: 11, NumAS: 400}).Deploy(vns.ForwardingConfig{})
	sin, syd := d.Net.PoP("SIN"), d.Net.PoP("SYD")

	d.Injector.FlapLink(sin, syd, 1.0, 0.5, 6)

	d.Monitor.Start()
	d.Sim.Run(8)
	d.Monitor.Stop()
	d.Sim.RunAll()

	// One down and one up per router across the whole episode.
	cm := d.Controller.Metrics()
	if w := cm.Withdrawals.Value(); w != vns.RoutersPerPoP {
		t.Errorf("withdrawals = %d, want %d", w, vns.RoutersPerPoP)
	}
	if r := cm.Restores.Value(); r != vns.RoutersPerPoP {
		t.Errorf("restores = %d, want %d", r, vns.RoutersPerPoP)
	}
	if d := cm.LinkDownEvents.Value(); d != 1 {
		t.Errorf("link down events = %d, want 1", d)
	}
	for _, r := range syd.Routers {
		if d.RR.Policy().EgressDown(r) {
			t.Errorf("router %v still withdrawn after flapping stopped", r)
		}
	}
	if !d.Net.Reachable(sin, syd) {
		t.Error("SYD unreachable after recovery")
	}
}

// TestControllerRepublishesMovedPoPs: a reconvergence republishes the
// PoPs whose next hops moved, and only those. An OSL–LON failure
// reroutes the IGP but moves no next hop, so no FIB generation moves; a
// LON–ASH failure republishes at least one PoP.
func TestControllerRepublishesMovedPoPs(t *testing.T) {
	d := NewEnv(Config{Seed: 11, NumAS: 400}).Deploy(vns.ForwardingConfig{})
	fwd, ctl := d.Fwd, d.Controller
	// fail downs the a–b link and returns how many PoPs republished.
	fail := func(a, b string) (republished int) {
		var gens []uint64
		for _, eng := range fwd.Engines() {
			gens = append(gens, eng.Current().Generation())
		}
		if ctl.Apply(d.Net.PoP(a), d.Net.PoP(b), false) == 0 {
			t.Fatalf("%s–%s down was not an effective transition", a, b)
		}
		for i, eng := range fwd.Engines() {
			if eng.Current().Generation() != gens[i] {
				republished++
			}
		}
		return republished
	}

	if n := fail("OSL", "LON"); n != 0 {
		t.Fatalf("OSL–LON down republished %d PoPs, want 0", n)
	}
	if fail("LON", "ASH") == 0 {
		t.Fatal("LON–ASH down republished no PoP")
	}
}
