package vns

import (
	"cmp"
	"fmt"
	"net/netip"
	"testing"

	"vns/internal/bgp"
	"vns/internal/core"
	"vns/internal/fib"
	"vns/internal/geoip"
	"vns/internal/loss"
	"vns/internal/rib"
	"vns/internal/topo"
)

// decisionWorld builds the world experiments.NewEnv builds for seed and
// numAS (topology, peering, the commercial-quality GeoIP database and a
// reflector over every egress router) with a synchronous forwarding
// plane over it.
func decisionWorld(tb testing.TB, seed uint64, numAS int) (*Peering, *core.GeoRR, *Forwarding) {
	tb.Helper()
	tp := topo.Generate(topo.GenConfig{Seed: seed, NumAS: numAS})
	pr := Connect(NewNetwork(), tp, seed)
	corr := geoip.NewCorruptor(loss.NewRNG(seed).Fork(0xDB))
	db := geoip.New()
	for i := range tp.Prefixes {
		pi := &tp.Prefixes[i]
		if err := db.Insert(corr.Apply(geoip.Record{Prefix: pi.Prefix, Pos: pi.Loc, Country: pi.Country, Region: pi.Region})); err != nil {
			tb.Fatal(err)
		}
	}
	rr := core.New(core.Config{DB: db})
	for _, p := range pr.Net.PoPs {
		for _, r := range p.Routers {
			rr.AddEgress(core.Egress{ID: r, Pos: p.Place.Pos, PoP: p.Code})
		}
	}
	return pr, rr, NewForwarding(pr, rr, ForwardingConfig{})
}

// The reference decision, the differential oracle for Resolve and
// SelectHotPotato: the per-session resolver. It filters the candidates
// through refHealthyCandidates, calls Assign once per candidate session,
// reads the IGP once per candidate and heap-allocates a route per
// candidate.

func refResolve(f *Forwarding, vantage *PoP, prefix netip.Prefix) (fib.NextHop, bool) {
	for _, s := range f.RR.Policy().Statics() {
		if s.Prefix == prefix {
			if p, ok := f.Peering.Net.RouterPoP(s.Egress); ok && refUsable(f, vantage, p, s.Egress) {
				return fib.NextHop{PoP: p.ID, Router: s.Egress}, true
			}
		}
	}
	pi, ok := f.Peering.Topo.PrefixInfoFor(prefix)
	if !ok {
		return fib.NextHop{}, false
	}
	cands := f.Peering.Candidates(pi.Origin)
	cands = refHealthyCandidates(f, vantage, cands)
	best, ok := refSelectGeo(f.Peering, f.RR, vantage, cands, prefix)
	if !ok {
		return fib.NextHop{}, false
	}
	return fib.NextHop{
		PoP:      best.Session.PoP.ID,
		Router:   best.Session.Router,
		Neighbor: best.Session.Neighbor.Index,
	}, true
}

// refUsable reports whether a router at a PoP can carry traffic from the
// vantage: not withdrawn by liveness, and the PoP IGP-reachable.
func refUsable(f *Forwarding, vantage, at *PoP, router netip.Addr) bool {
	return !f.RR.Policy().EgressDown(router) && f.Peering.Net.Reachable(vantage, at)
}

func refHealthyCandidates(f *Forwarding, vantage *PoP, cands []Candidate) []Candidate {
	for i, c := range cands {
		if !refUsable(f, vantage, c.Session.PoP, c.Session.Router) {
			out := make([]Candidate, 0, len(cands)-1)
			out = append(out, cands[:i]...)
			for _, c := range cands[i+1:] {
				if refUsable(f, vantage, c.Session.PoP, c.Session.Router) {
					out = append(out, c)
				}
			}
			return out
		}
	}
	return cands
}

func refCandidateRoute(pr *Peering, vantage *PoP, c Candidate, prefix netip.Prefix, lp uint32) *rib.Route {
	pathLen := c.PathLen
	if pathLen > len(dummyPath) {
		pathLen = len(dummyPath)
	}
	igpMs := pr.Net.IGPMetricMs(vantage, c.Session.PoP)
	if igpMs > 1e9 {
		igpMs = 1e9
	}
	r := &rib.Route{
		Prefix:    prefix,
		EBGP:      c.Session.PoP == vantage,
		PeerAS:    c.Session.Neighbor.ASN,
		PeerID:    c.Session.Router,
		PeerAddr:  c.Session.peerAddr,
		IGPMetric: int(igpMs*1000) + c.Session.PoP.ID,
	}
	if pathLen > 0 {
		r.Attrs.ASPath = []bgp.ASPathSegment{{ASNs: dummyPath[:pathLen]}}
	}
	if lp > 0 {
		r.Attrs.LocalPref = lp
		r.Attrs.HasLocalPref = true
	}
	return r
}

func refSelectHotPotato(pr *Peering, vantage *PoP, cands []Candidate, prefix netip.Prefix) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := -1
	var bestRoute *rib.Route
	for i, c := range cands {
		r := refCandidateRoute(pr, vantage, c, prefix, 0)
		if bestRoute == nil || rib.Compare(r, bestRoute) < 0 {
			bestRoute, best = r, i
		}
	}
	return cands[best], true
}

func refSelectGeo(pr *Peering, rr *core.GeoRR, vantage *PoP, cands []Candidate, prefix netip.Prefix) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := -1
	var bestRoute *rib.Route
	for i, c := range cands {
		dec := rr.Assign(c.Session.Router, prefix)
		r := refCandidateRoute(pr, vantage, c, prefix, dec.LocalPref)
		if bestRoute == nil || rib.Compare(r, bestRoute) < 0 {
			bestRoute, best = r, i
		}
	}
	return cands[best], true
}

// TestResolveMatchesReference drives the seed-1 world through the
// decision states (driveDecisionStates) and requires Resolve to give the
// reference decision's answer for every prefix (statics included) at
// every PoP, and SelectHotPotato to give its reference's.
func TestResolveMatchesReference(t *testing.T) {
	pr, rr, f := decisionWorld(t, 1, 120)
	net := pr.Net

	checked := 0
	driveDecisionStates(t, pr, rr, func(state string) {
		t.Helper()
		bad := 0
		for _, pfx := range refUniverse(pr, rr) {
			pi, known := pr.Topo.PrefixInfoFor(pfx)
			for _, v := range net.PoPs {
				got, gotOK := f.Resolve(v, pfx)
				want, wantOK := refResolve(f, v, pfx)
				if got != want || gotOK != wantOK {
					bad++
					if bad <= 5 {
						t.Errorf("%s: Resolve(%s, %v) = %+v %v, reference %+v %v", state, v.Code, pfx, got, gotOK, want, wantOK)
					}
				}
				if !known {
					continue
				}
				cands := pr.Candidates(pi.Origin)
				hot, hotOK := pr.SelectHotPotato(v, cands, pfx)
				refHot, refHotOK := refSelectHotPotato(pr, v, cands, pfx)
				if hot != refHot || hotOK != refHotOK {
					bad++
					if bad <= 5 {
						t.Errorf("%s: SelectHotPotato(%s, %v) = %v, reference %v", state, v.Code, pfx, hot.Session.Router, refHot.Session.Router)
					}
				}
				checked++
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d decisions differ from the reference", state, bad)
		}
	})
	if want := 11 * len(pr.Topo.Prefixes) * 10; checked < want {
		t.Fatalf("checked %d decisions, want at least %d", checked, want)
	}
}

// refUniverse is every prefix the forwarding plane knows: the
// originated prefixes, then the statics.
func refUniverse(pr *Peering, rr *core.GeoRR) []netip.Prefix {
	var universe []netip.Prefix
	for i := range pr.Topo.Prefixes {
		universe = append(universe, pr.Topo.Prefixes[i].Prefix)
	}
	for _, s := range rr.Policy().Statics() {
		universe = append(universe, s.Prefix)
	}
	return universe
}

// driveDecisionStates walks the world through a seeded sequence of
// states, calling check in each. The states cover every input the
// decision reads: an isolated PoP with its routers in service and then
// withdrawn, an IGP change that withdraws nothing, a drained egress, a
// force-exit to one router of a two-router PoP (a preference keyed by
// PoP instead of router fails here), exemption, an adaptive override,
// and a static more-specific whose egress is then drained.
func driveDecisionStates(t *testing.T, pr *Peering, rr *core.GeoRR, check func(state string)) {
	t.Helper()
	net := pr.Net
	rng := loss.NewRNG(29)

	check("steady")

	// SIN–SYD down isolates SYD. Until the failover controller's
	// withdrawal sweep, its routers are still in service: every other
	// vantage has to look past SYD's candidates, the best on their own
	// attributes for many prefixes, to ones that rank lower. Then the
	// sweep withdraws them.
	sin, syd := net.PoP("SIN"), net.PoP("SYD")
	net.SetL2LinkState(sin, syd, false)
	check("SIN-SYD down, SYD in service")
	for _, r := range syd.Routers {
		rr.SetEgressDown(r, true)
	}
	check("SIN-SYD down")
	net.SetL2LinkState(sin, syd, true)
	for _, r := range syd.Routers {
		rr.SetEgressDown(r, false)
	}

	// A long-haul link down reroutes the IGP but isolates no PoP.
	transit := [][2]string{{"LON", "ASH"}, {"SJS", "TOK"}, {"SIN", "SJS"}, {"SIN", "AMS"}}[rng.Intn(4)]
	a, b := net.PoP(transit[0]), net.PoP(transit[1])
	net.SetL2LinkState(a, b, false)
	check(transit[0] + "-" + transit[1] + " down")
	net.SetL2LinkState(a, b, true)

	p := net.PoPs[rng.Intn(len(net.PoPs))]
	drained := p.Routers[rng.Intn(len(p.Routers))]
	rr.SetEgressDown(drained, true)
	check(fmt.Sprintf("%v drained", drained))
	rr.SetEgressDown(drained, false)

	// Force each chosen prefix to the router of a two-router PoP that
	// its first candidate session there does not use, so the forced
	// preference holds for one router of the PoP and not the other.
	var forced []netip.Prefix
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		if rng.Intn(4) != 0 {
			continue
		}
		first := map[*PoP]netip.Addr{}
		var to netip.Addr
		for _, c := range pr.Candidates(pi.Origin) {
			r, seen := first[c.Session.PoP]
			if !seen {
				first[c.Session.PoP] = c.Session.Router
			} else if r != c.Session.Router && !to.IsValid() {
				to = c.Session.Router
			}
		}
		if !to.IsValid() {
			continue
		}
		if err := rr.ForceExit(pi.Prefix, to); err != nil {
			t.Fatal(err)
		}
		forced = append(forced, pi.Prefix)
	}
	if len(forced) == 0 {
		t.Fatal("no prefix has two routers of one PoP among its candidates")
	}
	check(fmt.Sprintf("%d prefixes forced", len(forced)))
	for _, pfx := range forced {
		rr.Unforce(pfx)
	}
	check("unforced")

	var exempt []netip.Prefix
	for i := range pr.Topo.Prefixes {
		if rng.Intn(3) == 0 {
			exempt = append(exempt, pr.Topo.Prefixes[i].Prefix)
			rr.Exempt(pr.Topo.Prefixes[i].Prefix)
		}
	}
	check(fmt.Sprintf("%d prefixes exempt", len(exempt)))
	for _, pfx := range exempt {
		rr.Unexempt(pfx)
	}
	check("unexempt")

	// An adaptive override on a random candidate router per chosen
	// prefix; other routers keep their geographic preference.
	overridden := 0
	for i := range pr.Topo.Prefixes {
		pi := &pr.Topo.Prefixes[i]
		cands := pr.Candidates(pi.Origin)
		if len(cands) == 0 || rng.Intn(4) != 0 {
			continue
		}
		if err := rr.SetOverride(pi.Prefix, cands[rng.Intn(len(cands))].Session.Router); err != nil {
			t.Fatal(err)
		}
		overridden++
	}
	check(fmt.Sprintf("%d adaptive overrides", overridden))

	// A static more-specific inside a covering prefix, then its egress
	// drained so the static falls back to no route.
	var cover netip.Prefix
	for i := range pr.Topo.Prefixes {
		if pfx := pr.Topo.Prefixes[i].Prefix; pfx.Bits() < 24 {
			cover = pfx
			break
		}
	}
	more, err := cover.Addr().Prefix(24)
	if err != nil {
		t.Fatal(err)
	}
	p = net.PoPs[rng.Intn(len(net.PoPs))]
	pinned := p.Routers[rng.Intn(len(p.Routers))]
	if err := rr.AddStatic(more, pinned, func(netip.Prefix) bool { return true }); err != nil {
		t.Fatal(err)
	}
	check("static " + more.String())
	rr.SetEgressDown(pinned, true)
	check("static egress drained")
}

// TestAttrKeyOrdersAsCompareAttrs holds the attribute tier's key to the
// decision process: for every pair of routes a candidate list offers —
// the widest seed-1 prefix's candidates plus path lengths around the
// synthetic AS_PATH's clamp, under seeded router ranks — attrKey orders
// them as rib.CompareAttrs orders the routes fillAttrs builds.
func TestAttrKeyOrdersAsCompareAttrs(t *testing.T) {
	pr, _, _ := decisionWorld(t, 1, 120)
	pfx, _, _ := widestPrefix(pr)
	pi, _ := pr.Topo.PrefixInfoFor(pfx)
	cands := pr.Candidates(pi.Origin)
	// On one session, so they tie on the rank and differ by path alone.
	for _, n := range []int{1, 2, len(dummyPath) - 1, len(dummyPath), len(dummyPath) + 1, 255} {
		cands = append(cands, Candidate{Session: cands[0].Session, PathLen: n})
	}
	rng := loss.NewRNG(0xA77)
	var rank [numEgress]uint8
	for e := range rank {
		rank[e] = uint8(1 + rng.Intn(4))
	}
	var a, b rib.Route
	sign := func(x int) int { return cmp.Compare(x, 0) }
	for _, x := range cands {
		for _, y := range cands {
			kx, ky := attrKey(x, rank[x.Session.egress]), attrKey(y, rank[y.Session.egress])
			fillAttrs(&a, x, uint32(rank[x.Session.egress]))
			fillAttrs(&b, y, uint32(rank[y.Session.egress]))
			if got, want := sign(int(ky)-int(kx)), sign(rib.CompareAttrs(&a, &b)); got != want {
				t.Fatalf("path lengths %d, %d at ranks %d, %d: attrKey orders %d, CompareAttrs %d",
					x.PathLen, y.PathLen, rank[x.Session.egress], rank[y.Session.egress], got, want)
			}
		}
	}
}
