package vns

import (
	"net/netip"
	"testing"
	"time"

	"vns/internal/core"
	"vns/internal/geoip"
	"vns/internal/media"
	"vns/internal/netsim"
)

// forwardingSetup builds a peering with a perfect-GeoIP GeoRR (every
// prefix geolocated exactly) and a synchronous forwarding plane over it.
func forwardingSetup(t *testing.T, cfg ForwardingConfig) (*Peering, *core.GeoRR, *Forwarding) {
	t.Helper()
	_, pr := testSetup(t)
	db := geoip.New()
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		db.Insert(geoip.Record{Prefix: pi.Prefix, Pos: pi.Loc, Country: pi.Country, Region: pi.Region})
	}
	rr := core.New(core.Config{DB: db})
	for _, p := range pr.Net.PoPs {
		for _, r := range p.Routers {
			rr.AddEgress(core.Egress{ID: r, Pos: p.Place.Pos, PoP: p.Code})
		}
	}
	return pr, rr, NewForwarding(pr, rr, cfg)
}

// TestForwardingCongruence checks the ISSUE's core acceptance property:
// the compiled per-PoP FIBs agree with a fresh control-plane decision
// for (at least) 99% of destinations — with synchronous recompiles it
// should be all of them, at every PoP.
func TestForwardingCongruence(t *testing.T) {
	pr, _, f := forwardingSetup(t, ForwardingConfig{})
	for _, p := range pr.Net.PoPs {
		match, total := f.Congruence(p)
		if total == 0 {
			t.Fatalf("%s: no destinations counted", p.Code)
		}
		if float64(match) < 0.99*float64(total) {
			t.Errorf("%s: congruence %d/%d below 99%%", p.Code, match, total)
		}
	}
}

// TestForwardingForceExit pins a prefix to a non-default egress and
// checks the change propagates through the reflector's notification into
// the compiled FIB — and back out again on Unforce.
func TestForwardingForceExit(t *testing.T) {
	pr, rr, f := forwardingSetup(t, ForwardingConfig{})
	lon := pr.Net.PoP("LON")
	eng := f.Engine("LON")

	// Find a prefix with candidate sessions at more than one PoP.
	var prefix netip.Prefix
	var before int
	var altRouter netip.Addr
	var altPoP int
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		nh, ok := eng.Lookup(pi.Prefix.Addr())
		if !ok {
			continue
		}
		for _, c := range pr.Candidates(pi.Origin) {
			if c.Session.PoP.ID != nh.PoP {
				prefix, before = pi.Prefix, nh.PoP
				altRouter, altPoP = c.Session.Router, c.Session.PoP.ID
				break
			}
		}
		if prefix.IsValid() {
			break
		}
	}
	if !prefix.IsValid() {
		t.Fatal("no multi-PoP prefix found")
	}

	if err := rr.ForceExit(prefix, altRouter); err != nil {
		t.Fatal(err)
	}
	if nh, ok := eng.Lookup(prefix.Addr()); !ok || nh.PoP != altPoP {
		t.Errorf("after ForceExit: egress PoP %d, want forced %d", nh.PoP, altPoP)
	}
	// The override must hold at every PoP, not just the vantage.
	for _, e := range f.Engines() {
		if nh, ok := e.Lookup(prefix.Addr()); !ok || nh.PoP != altPoP {
			t.Errorf("%s: forced exit not honored (pop %d)", e.String(), nh.PoP)
		}
	}
	// Congruence holds under management overrides too.
	if match, total := f.Congruence(lon); match != total {
		t.Errorf("congruence with forced exit: %d/%d", match, total)
	}

	rr.Unforce(prefix)
	if nh, ok := eng.Lookup(prefix.Addr()); !ok || nh.PoP != before {
		t.Errorf("after Unforce: egress PoP %d, want original %d", nh.PoP, before)
	}
}

// TestForwardingStaticMoreSpecific installs a static /24 inside an
// originated prefix and checks addresses under it divert to the pinned
// egress while the covering prefix keeps its geographic exit.
func TestForwardingStaticMoreSpecific(t *testing.T) {
	pr, rr, f := forwardingSetup(t, ForwardingConfig{})
	eng := f.Engine("LON")

	// Find a covering prefix shorter than /24 with a known egress.
	var cover netip.Prefix
	var coverPoP int
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		if pi.Prefix.Bits() >= 24 {
			continue
		}
		if nh, ok := eng.Lookup(pi.Prefix.Addr()); ok {
			cover, coverPoP = pi.Prefix, nh.PoP
			break
		}
	}
	if !cover.IsValid() {
		t.Fatal("no covering prefix found")
	}
	// Pin a /24 inside it to a PoP that is not the cover's egress.
	syd := pr.Net.PoP("SYD")
	pin := syd
	if coverPoP == syd.ID {
		pin = pr.Net.PoP("OSL")
	}
	more, err := cover.Addr().Prefix(24)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.AddStatic(more, pin.Routers[0], func(netip.Prefix) bool { return true }); err != nil {
		t.Fatal(err)
	}

	if nh, ok := eng.Lookup(more.Addr()); !ok || nh.PoP != pin.ID {
		t.Errorf("static more-specific: egress PoP %d, want pinned %d", nh.PoP, pin.ID)
	}
	// An address in the cover but outside the /24 keeps the original exit.
	outside := netip.AddrFrom4([4]byte{
		more.Addr().As4()[0], more.Addr().As4()[1],
		more.Addr().As4()[2] + 1, 1,
	})
	if cover.Contains(outside) {
		if nh, ok := eng.Lookup(outside); !ok || nh.PoP != coverPoP {
			t.Errorf("outside static: egress PoP %d, want cover's %d", nh.PoP, coverPoP)
		}
	}

	rr.RemoveStatic(more, pin.Routers[0])
	if nh, ok := eng.Lookup(more.Addr()); !ok || nh.PoP != coverPoP {
		t.Errorf("after RemoveStatic: egress PoP %d, want cover's %d", nh.PoP, coverPoP)
	}
}

// TestForwardStreamReachesControlPlaneEgress plays an RTP trace from
// London through the forwarding plane and checks every packet leaves at
// the egress PoP the control plane selected — media rides the compiled
// routing state, hop by hop through netsim.
func TestForwardStreamReachesControlPlaneEgress(t *testing.T) {
	pr, _, f := forwardingSetup(t, ForwardingConfig{})
	lon := pr.Net.PoP("LON")
	eng := f.Engine("LON")

	// A destination whose egress is remote, so the stream crosses the
	// internal fabric.
	var dst netip.Addr
	var wantPoP int
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		if nh, ok := eng.Lookup(pi.Prefix.Addr()); ok && nh.PoP != lon.ID {
			dst, wantPoP = pi.Prefix.Addr(), nh.PoP
			break
		}
	}
	if !dst.IsValid() {
		t.Fatal("no remote-egress destination found")
	}

	tr := media.GenerateTrace(media.TraceConfig{DurationSec: 10, Seed: 7})
	var sim netsim.Sim
	st, egress := f.ForwardStream(&sim, lon, dst, tr)
	sim.RunAll()

	if len(egress) != 1 {
		t.Fatalf("egress PoPs = %v, want exactly one", egress)
	}
	if egress[wantPoP] != tr.NumPackets() {
		t.Errorf("delivered %d/%d packets at PoP %d (map %v)",
			egress[wantPoP], tr.NumPackets(), wantPoP, egress)
	}
	if st.LossPct() != 0 {
		t.Errorf("loss %.2f%% on lossless fabric", st.LossPct())
	}
	es := f.EngineByID(lon.ID).Stats()
	if es.Relayed == 0 || es.NoRoute != 0 {
		t.Errorf("engine stats: %+v", es)
	}
}

// TestForwardingDebounce checks that a debounced invalidation waits in
// the forwarding plane's dirty set and Flush forces it visible.
func TestForwardingDebounce(t *testing.T) {
	pr, rr, f := forwardingSetup(t, ForwardingConfig{Debounce: time.Hour})
	eng := f.Engine("LON")

	var prefix netip.Prefix
	var altRouter netip.Addr
	var altPoP int
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		nh, ok := eng.Lookup(pi.Prefix.Addr())
		if !ok {
			continue
		}
		for _, c := range pr.Candidates(pi.Origin) {
			if c.Session.PoP.ID != nh.PoP {
				prefix, altRouter, altPoP = pi.Prefix, c.Session.Router, c.Session.PoP.ID
				break
			}
		}
		if prefix.IsValid() {
			break
		}
	}
	if !prefix.IsValid() {
		t.Fatal("no multi-PoP prefix found")
	}

	genBefore := eng.Stats().FIB.Generation
	if err := rr.ForceExit(prefix, altRouter); err != nil {
		t.Fatal(err)
	}
	// Debounced: the override is pending, not yet compiled.
	if gen := eng.Stats().FIB.Generation; gen != genBefore {
		t.Fatalf("recompile ran before debounce: gen %d -> %d", genBefore, gen)
	}
	if got := f.Pending(); got != 1 {
		t.Errorf("pending = %d after ForceExit, want 1", got)
	}
	f.Flush()
	if nh, ok := eng.Lookup(prefix.Addr()); !ok || nh.PoP != altPoP {
		t.Errorf("after Flush: egress PoP %d, want forced %d", nh.PoP, altPoP)
	}
	if got := f.Pending(); got != 0 {
		t.Errorf("pending = %d after Flush", got)
	}
}
