package vns

import (
	"net/netip"
	"sync"
	"testing"

	"vns/internal/core"
	"vns/internal/geo"
	"vns/internal/geoip"
	"vns/internal/topo"
)

func testSetup(t *testing.T) (*Network, *Peering) {
	t.Helper()
	n := NewNetwork()
	tp := topo.Generate(topo.GenConfig{Seed: 3, NumAS: 800})
	pr := Connect(n, tp, 1)
	return n, pr
}

func TestNetworkFootprint(t *testing.T) {
	n := NewNetwork()
	if len(n.PoPs) != 11 {
		t.Fatalf("PoPs = %d, want 11", len(n.PoPs))
	}
	// Paper anchors: PoPs 3 and 5 on the US east coast, 7 in AP, 9 in
	// EU, 10 is London.
	if n.PoPByID(3).Code != "ASH" || n.PoPByID(5).Code != "ATL" {
		t.Error("PoPs 3/5 should be US east coast")
	}
	if n.PoPByID(7).Region() != geo.RegionAP {
		t.Error("PoP 7 should be AP")
	}
	if n.PoPByID(9).Region() != geo.RegionEU {
		t.Error("PoP 9 should be EU")
	}
	if n.PoPByID(10).Code != "LON" {
		t.Error("PoP 10 should be London")
	}
	routers := 0
	for _, p := range n.PoPs {
		routers += len(p.Routers)
	}
	if routers <= 20 {
		t.Errorf("routers = %d, paper says over 20", routers)
	}
}

func TestNetworkClusters(t *testing.T) {
	n := NewNetwork()
	want := map[geo.Region]int{geo.RegionEU: 4, geo.RegionNA: 3, geo.RegionAP: 3, geo.RegionOC: 1}
	for r, count := range want {
		if got := len(n.PoPsInRegion(r)); got != count {
			t.Errorf("region %v has %d PoPs, want %d", r, got, count)
		}
	}
	// Intra-cluster full mesh.
	for _, r := range []geo.Region{geo.RegionEU, geo.RegionNA, geo.RegionAP} {
		pops := n.PoPsInRegion(r)
		for i, a := range pops {
			for _, b := range pops[i+1:] {
				if !n.HasL2Link(a, b) {
					t.Errorf("cluster %v: no L2 link %s-%s", r, a.Code, b.Code)
				}
			}
		}
	}
	// Not fully meshed globally.
	if n.HasL2Link(n.PoP("OSL"), n.PoP("SYD")) {
		t.Error("OSL-SYD should not be a direct link")
	}
}

func TestIGPMetricProperties(t *testing.T) {
	n := NewNetwork()
	for _, a := range n.PoPs {
		for _, b := range n.PoPs {
			d := n.IGPMetricMs(a, b)
			if a == b && d != 0 {
				t.Errorf("self distance %s = %v", a.Code, d)
			}
			if a != b && d <= 0 {
				t.Errorf("distance %s-%s = %v", a.Code, b.Code, d)
			}
			if d > 1e6 {
				t.Errorf("PoPs %s-%s disconnected", a.Code, b.Code)
			}
			if got := n.IGPMetricMs(b, a); got != d {
				t.Errorf("IGP asymmetric %s-%s", a.Code, b.Code)
			}
		}
	}
	// Triangle inequality via Floyd-Warshall is structural; spot-check a
	// multi-hop path: OSL->SYD must go via SIN.
	path := n.InternalPath(n.PoP("OSL"), n.PoP("SYD"))
	if len(path) < 3 {
		t.Errorf("OSL->SYD path too short: %v", path)
	}
	if path[len(path)-2].Code != "SIN" {
		t.Errorf("OSL->SYD should transit SIN, got %v", path)
	}
	if got := n.InternalPath(n.PoP("AMS"), n.PoP("AMS")); len(got) != 1 {
		t.Errorf("self path = %v", got)
	}
}

func TestConnectNeighborShape(t *testing.T) {
	_, pr := testSetup(t)
	ups, peers := 0, 0
	for _, nb := range pr.Neighbors {
		switch nb.Kind {
		case Upstream:
			ups++
		case Peer:
			peers++
		}
		if len(nb.Sessions) == 0 {
			t.Errorf("neighbor %d has no sessions", nb.Index)
		}
	}
	if ups != 7 || peers != 26 {
		t.Errorf("ups/peers = %d/%d, want 7 upstreams and 26 open peers", ups, peers)
	}
	// Indexes 1..7 are upstreams (paper's figure 5 layout).
	for _, nb := range pr.Neighbors {
		if nb.Index <= 7 && nb.Kind != Upstream {
			t.Errorf("neighbor %d should be an upstream", nb.Index)
		}
		if nb.Index > 7 && nb.Kind != Peer {
			t.Errorf("neighbor %d should be a peer", nb.Index)
		}
	}
}

func TestUpstream1IsNAHeavyAndServesLondon(t *testing.T) {
	_, pr := testSetup(t)
	u1 := pr.Neighbors[0]
	if u1.Index != 1 || u1.Kind != Upstream {
		t.Fatal("first neighbor should be upstream 1")
	}
	hasLON := false
	for _, s := range u1.Sessions {
		if s.PoP.Code == "LON" {
			hasLON = true
		}
	}
	if !hasLON {
		t.Error("upstream 1 must serve London (the paper's anomaly config)")
	}
}

func TestEveryPoPHasTransit(t *testing.T) {
	_, pr := testSetup(t)
	counts := map[string]int{}
	for _, s := range pr.Sessions() {
		if s.Neighbor.Kind == Upstream {
			counts[s.PoP.Code]++
		}
	}
	for _, p := range pr.Net.PoPs {
		if counts[p.Code] < 2 {
			t.Errorf("PoP %s has %d upstream sessions, want >= 2", p.Code, counts[p.Code])
		}
	}
}

func TestPeersAreRegional(t *testing.T) {
	_, pr := testSetup(t)
	for _, nb := range pr.Neighbors {
		if nb.Kind != Peer {
			continue
		}
		home := geo.PoPRegion(pr.Topo.AS(nb.ASN).Region)
		for _, s := range nb.Sessions {
			if s.PoP.Region() != home {
				t.Errorf("peer %d (region %v) has session at %s (%v)", nb.Index, home, s.PoP.Code, s.PoP.Region())
			}
		}
	}
}

func TestCandidatesCoverage(t *testing.T) {
	_, pr := testSetup(t)
	missing := 0
	for _, asn := range pr.Topo.ASNs() {
		if len(pr.Candidates(asn)) == 0 {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d ASes unreachable from VNS", missing)
	}
	// A second call returns the same offers.
	a := pr.Candidates(pr.Topo.ASNs()[0])
	b := pr.Candidates(pr.Topo.ASNs()[0])
	if len(a) != len(b) {
		t.Error("candidates inconsistent")
	}
}

// TestCandidatesConcurrent: a Peering is immutable after Connect, so
// any number of goroutines may ask it for candidates (publisher flushes
// on debounce timers do). Run under -race.
func TestCandidatesConcurrent(t *testing.T) {
	_, pr := testSetup(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, asn := range pr.Topo.ASNs() {
				pr.Candidates(asn)
			}
		}()
	}
	wg.Wait()
}

func TestSelectHotPotatoPrefersLocalEBGP(t *testing.T) {
	_, pr := testSetup(t)
	lon := pr.Net.PoP("LON")
	// Find a destination with a session at LON offering the (joint)
	// shortest path; hot potato must pick a local session then.
	prefixes := pr.Topo.Prefixes
	localWins, total := 0, 0
	for i := range prefixes {
		pi := &prefixes[i]
		cands := pr.Candidates(pi.Origin)
		if len(cands) == 0 {
			continue
		}
		best, ok := pr.SelectHotPotato(lon, cands, pi.Prefix)
		if !ok {
			continue
		}
		total++
		shortest := 1 << 30
		shortestLocal := 1 << 30
		for _, c := range cands {
			if c.PathLen < shortest {
				shortest = c.PathLen
			}
			if c.Session.PoP == lon && c.PathLen < shortestLocal {
				shortestLocal = c.PathLen
			}
		}
		if shortestLocal == shortest {
			// A local candidate ties for shortest: eBGP-over-iBGP must
			// keep traffic local.
			if best.Session.PoP != lon {
				t.Fatalf("prefix %v: local tie but egress %s", pi.Prefix, best.Session.PoP.Code)
			}
			localWins++
		} else if best.PathLen > shortest {
			t.Fatalf("prefix %v: selected path %d > shortest %d", pi.Prefix, best.PathLen, shortest)
		}
	}
	if total == 0 || localWins == 0 {
		t.Fatalf("degenerate test: total=%d localWins=%d", total, localWins)
	}
}

func TestSelectGeoPicksClosestPoP(t *testing.T) {
	_, pr := testSetup(t)
	// Perfect GeoIP database: selection must pick the session whose PoP
	// is geographically closest to the prefix, among sessions that have
	// a route.
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
	lon := pr.Net.PoP("LON")
	checked := 0
	for i := 0; i < len(pr.Topo.Prefixes) && checked < 300; i += 7 {
		pi := &pr.Topo.Prefixes[i]
		cands := pr.Candidates(pi.Origin)
		if len(cands) == 0 {
			continue
		}
		best, ok := pr.SelectGeo(rr, lon, cands, pi.Prefix)
		if !ok {
			continue
		}
		checked++
		// No candidate PoP may be meaningfully closer than the winner.
		bestDist := geo.DistanceKm(best.Session.PoP.Place.Pos, pi.Loc)
		for _, c := range cands {
			d := geo.DistanceKm(c.Session.PoP.Place.Pos, pi.Loc)
			if d < bestDist-1 {
				t.Fatalf("prefix %v: egress %s at %.0f km but %s at %.0f km available",
					pi.Prefix, best.Session.PoP.Code, bestDist, c.Session.PoP.Code, d)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d prefixes checked", checked)
	}
}

func TestSelectFirstArrivalDeterministic(t *testing.T) {
	_, pr := testSetup(t)
	pi := &pr.Topo.Prefixes[0]
	cands := pr.Candidates(pi.Origin)
	a, ok1 := pr.SelectFirstArrival(cands, pi.Prefix)
	b, ok2 := pr.SelectFirstArrival(cands, pi.Prefix)
	if !ok1 || !ok2 || a != b {
		t.Error("first-arrival selection not deterministic")
	}
}

func TestSelectEmptyCandidates(t *testing.T) {
	_, pr := testSetup(t)
	lon := pr.Net.PoP("LON")
	if _, ok := pr.SelectHotPotato(lon, nil, netip.Prefix{}); ok {
		t.Error("empty candidates should not select")
	}
	if _, ok := pr.SelectFirstArrival(nil, netip.Prefix{}); ok {
		t.Error("empty candidates should not select")
	}
}

func TestDataPlaneExternalRTT(t *testing.T) {
	_, pr := testSetup(t)
	dp := NewDataPlane(pr, 99)
	ams := pr.Net.PoP("AMS")
	syd := pr.Net.PoP("SYD")
	// Pick an EU prefix; AMS must be much closer than SYD.
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		if pi.Region != geo.RegionEU {
			continue
		}
		amsRTT, ok1 := dp.ExternalRTT(ams, pi)
		sydRTT, ok2 := dp.ExternalRTT(syd, pi)
		if !ok1 || !ok2 {
			t.Fatal("unreachable EU prefix")
		}
		if amsRTT >= sydRTT {
			t.Fatalf("EU prefix: AMS RTT %.0f >= SYD RTT %.0f", amsRTT, sydRTT)
		}
		return
	}
	t.Fatal("no EU prefix found")
}

func TestThroughVNSUsesInternalLeg(t *testing.T) {
	_, pr := testSetup(t)
	dp := NewDataPlane(pr, 99)
	ams, sin := pr.Net.PoP("AMS"), pr.Net.PoP("SIN")
	var pi *topo.PrefixInfo
	for i := range pr.Topo.Prefixes {
		if pr.Topo.Prefixes[i].Region == geo.RegionAP {
			pi = &pr.Topo.Prefixes[i]
			break
		}
	}
	if pi == nil {
		t.Fatal("no AP prefix")
	}
	through, ok := dp.ThroughVNSRTT(ams, sin, pi)
	if !ok {
		t.Fatal("unreachable")
	}
	internal := dp.InternalRTTMs(ams, sin)
	if through <= internal {
		t.Errorf("through-VNS RTT %.0f should exceed internal leg %.0f", through, internal)
	}
	if internal <= 0 {
		t.Error("internal RTT should be positive")
	}
}

func TestEntryPoPFollowsGeography(t *testing.T) {
	_, pr := testSetup(t)
	// Count how many client ASes in each region land at a PoP in the
	// matching PoP region; the diagonal must dominate (Figure 7).
	match, total := 0, 0
	for _, asn := range pr.Topo.ASNs() {
		a := pr.Topo.AS(asn)
		entry := pr.EntryPoP(asn)
		if entry == nil {
			continue
		}
		total++
		if entry.Region() == geo.PoPRegion(a.Region) {
			match++
		}
	}
	if total < 100 {
		t.Fatalf("too few entries resolved: %d", total)
	}
	if frac := float64(match) / float64(total); frac < 0.7 {
		t.Errorf("only %.0f%% of traffic follows geography", frac*100)
	}
}

func TestEntryPoPUnknownClient(t *testing.T) {
	_, pr := testSetup(t)
	if pr.EntryPoP(64999) != nil {
		t.Error("unknown client should have no entry PoP")
	}
}

func TestPoPLookupPanics(t *testing.T) {
	n := NewNetwork()
	defer func() {
		if recover() == nil {
			t.Error("unknown PoP code should panic")
		}
	}()
	n.PoP("XXX")
}

func BenchmarkCandidates(b *testing.B) {
	n := NewNetwork()
	tp := topo.Generate(topo.GenConfig{Seed: 3, NumAS: 2000})
	pr := Connect(n, tp, 0)
	asns := tp.ASNs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Candidates(asns[i%len(asns)])
	}
}
