package vns

import (
	"net/netip"
	"sort"

	"vns/internal/bgp"
	"vns/internal/core"
	"vns/internal/geo"
	"vns/internal/loss"
	"vns/internal/rib"
	"vns/internal/topo"
)

// NeighborKind distinguishes transit from settlement-free peering.
type NeighborKind uint8

const (
	// Upstream is a transit provider VNS buys from.
	Upstream NeighborKind = iota
	// Peer is a settlement-free peer at an IXP.
	Peer
)

func (k NeighborKind) String() string {
	if k == Upstream {
		return "upstream"
	}
	return "peer"
}

// Neighbor is one external AS VNS has sessions with.
type Neighbor struct {
	// Index is the 1-based display ID of Figure 5: indexes 1..numUpstreams
	// are upstreams (1 = the NA-heavy tier-1), the rest peers.
	Index    int
	ASN      uint16
	Kind     NeighborKind
	Sessions []*Session
	// View holds this neighbor's valley-free routes over the synthetic
	// Internet, which determine what it can export to VNS.
	View *topo.RouteView
}

// Session is one eBGP session between a VNS egress router and a
// neighbor at a PoP.
type Session struct {
	Neighbor *Neighbor
	PoP      *PoP
	// Router is the VNS-side egress router ID.
	Router netip.Addr
	// peerAddr uniquely identifies the remote end for tie-breaking.
	peerAddr netip.Addr
	// egress indexes Router among the deployment's egress routers (PoP
	// id major); it keys a decision's per-router table (routerPrefs).
	egress int
}

// The neighbor set: seven transit providers, per Figure 5, and 26
// settlement-free peers. VNS peers openly with any interested AS; 26
// gives the deployment's open-peering posture while Figure 5 displays
// the top 20 neighbors (7 upstreams + 13 peers) as the paper does.
const (
	numUpstreams = 7
	numPeers     = 26
)

// Peering is the VNS control plane attached to a synthetic Internet:
// the neighbor set, all eBGP sessions, and the route candidates they
// yield. It is immutable once Connect returns, so any number of
// goroutines may read it.
type Peering struct {
	Net       *Network
	Topo      *topo.Topology
	Neighbors []*Neighbor

	// candidates holds the route offers of every origin AS in
	// Topo.Prefixes, built by Connect.
	candidates map[uint16][]Candidate
}

// Connect selects upstreams and peers from the topology and establishes
// sessions following the deployment's placement policy: upstreams where
// they have regional presence (with guaranteed transit coverage at every
// PoP), peers at every PoP in their home region. seed drives
// tie-breaking randomness in neighbor selection.
func Connect(n *Network, t *topo.Topology, seed uint64) *Peering {
	rng := loss.NewRNG(seed ^ 0xa5a5)

	pr := &Peering{Net: n, Topo: t, candidates: make(map[uint16][]Candidate)}

	// Upstream selection: LTPs ranked by North-American presence so
	// neighbor 1 is the big US-based tier-1 (the paper's upstream 1 and
	// London's main upstream).
	var ltps []*topo.AS
	for _, asn := range t.ASNs() {
		if a := t.AS(asn); a.Type == topo.LTP {
			ltps = append(ltps, a)
		}
	}
	sort.SliceStable(ltps, func(i, j int) bool {
		ni, nj := naSites(ltps[i]), naSites(ltps[j])
		if ni != nj {
			return ni > nj
		}
		return ltps[i].ASN < ltps[j].ASN
	})
	if len(ltps) > numUpstreams {
		ltps = ltps[:numUpstreams]
	}
	for i, a := range ltps {
		nb := &Neighbor{Index: i + 1, ASN: a.ASN, Kind: Upstream, View: t.RoutesFrom(a.ASN)}
		pr.Neighbors = append(pr.Neighbors, nb)
	}

	// Peer selection: transit/content networks homed in PoP regions.
	// VNS peers openly with any interested AS, so the established peers
	// skew toward the networks worth peering with: large customer cones
	// (they absorb the most traffic at the IXP). Rank by cone size.
	type scored struct {
		a    *topo.AS
		cone float64
	}
	var peerPool []scored
	for _, asn := range t.ASNs() {
		a := t.AS(asn)
		if a.Type != topo.STP && a.Type != topo.CAHP {
			continue
		}
		if len(n.PoPsInRegion(geo.PoPRegion(a.Region))) == 0 {
			continue
		}
		peerPool = append(peerPool, scored{a, float64(t.CustomerConeSize(asn)) + rng.Float64()})
	}
	sort.Slice(peerPool, func(i, j int) bool { return peerPool[i].cone > peerPool[j].cone })
	for i := 0; i < numPeers && i < len(peerPool); i++ {
		a := peerPool[i].a
		nb := &Neighbor{Index: numUpstreams + i + 1, ASN: a.ASN, Kind: Peer, View: t.RoutesFrom(a.ASN)}
		pr.Neighbors = append(pr.Neighbors, nb)
	}

	pr.placeSessions()
	for i := range t.Prefixes {
		origin := t.Prefixes[i].Origin
		if _, ok := pr.candidates[origin]; !ok {
			pr.candidates[origin] = pr.offers(origin)
		}
	}
	return pr
}

func naSites(a *topo.AS) int {
	c := 0
	for _, s := range a.Sites {
		if geo.PoPRegion(s.Region) == geo.RegionNA {
			c++
		}
	}
	return c
}

// placeSessions establishes eBGP sessions per the deployment policy.
func (pr *Peering) placeSessions() {
	n := pr.Net
	for _, nb := range pr.Neighbors {
		a := pr.Topo.AS(nb.ASN)
		switch nb.Kind {
		case Upstream:
			// Session at every PoP in a region where the upstream has a
			// site. Upstream 1 additionally serves London as its main
			// upstream, the configuration behind the Figure 11 anomaly.
			regions := map[geo.Region]bool{}
			for _, s := range a.Sites {
				regions[geo.PoPRegion(s.Region)] = true
			}
			for _, p := range n.PoPs {
				if regions[p.Region()] || (nb.Index == 1 && p.Code == "LON") {
					pr.addSession(nb, p)
				}
			}
		case Peer:
			// "VNS usually peers with networks close to their geographic
			// location" and establishes peering at all shared sites.
			for _, p := range n.PoPsInRegion(geo.PoPRegion(a.Region)) {
				pr.addSession(nb, p)
			}
		}
	}
	// Transit coverage: every PoP needs at least two upstream sessions
	// so probes can always exit locally.
	for _, p := range n.PoPs {
		ups := 0
		for _, nb := range pr.Neighbors {
			if nb.Kind != Upstream {
				continue
			}
			for _, s := range nb.Sessions {
				if s.PoP == p {
					ups++
				}
			}
		}
		for i := 0; ups < 2 && i < len(pr.Neighbors); i++ {
			nb := pr.Neighbors[i]
			if nb.Kind != Upstream || pr.hasSession(nb, p) {
				continue
			}
			pr.addSession(nb, p)
			ups++
		}
	}
}

func (pr *Peering) addSession(nb *Neighbor, p *PoP) {
	// Spread sessions across the PoP's routers.
	ri := len(nb.Sessions) % len(p.Routers)
	s := &Session{
		Neighbor: nb,
		PoP:      p,
		Router:   p.Routers[ri],
		peerAddr: netip.AddrFrom4([4]byte{172, byte(nb.Index), byte(p.ID), 1}),
		egress:   (p.ID-1)*RoutersPerPoP + ri,
	}
	nb.Sessions = append(nb.Sessions, s)
}

func (pr *Peering) hasSession(nb *Neighbor, p *PoP) bool {
	for _, s := range nb.Sessions {
		if s.PoP == p {
			return true
		}
	}
	return false
}

// Sessions returns all sessions in deterministic order.
func (pr *Peering) Sessions() []*Session {
	var out []*Session
	for _, nb := range pr.Neighbors {
		out = append(out, nb.Sessions...)
	}
	return out
}

// Candidate is one route offer for a destination: a session plus the
// AS-path length of the route the neighbor exports there.
type Candidate struct {
	Session *Session
	// PathLen is the received AS_PATH length (neighbor included).
	PathLen int
}

// Candidates returns the route offers for a destination origin AS,
// applying Gao–Rexford export policy: upstreams export their best route
// of any class, peers only customer routes. All prefixes of an AS share
// one slice, which callers must not modify; an origin that announces no
// prefix is computed on the spot.
func (pr *Peering) Candidates(origin uint16) []Candidate {
	if c, ok := pr.candidates[origin]; ok {
		return c
	}
	return pr.offers(origin)
}

func (pr *Peering) offers(origin uint16) []Candidate {
	var out []Candidate
	for _, nb := range pr.Neighbors {
		var hops int
		var ok bool
		switch nb.Kind {
		case Upstream:
			hops, ok = nb.View.ExportToCustomer(origin)
		case Peer:
			hops, ok = nb.View.ExportToPeer(origin)
		}
		if !ok {
			continue
		}
		for _, s := range nb.Sessions {
			out = append(out, Candidate{Session: s, PathLen: hops + 1})
		}
	}
	return out
}

// dummyPath backs the synthetic AS_PATH segments used for selection; the
// decision process only reads path length, so candidates share it.
var dummyPath = func() []uint16 {
	p := make([]uint16, 64)
	for i := range p {
		p[i] = 64000 + uint16(i)
	}
	return p
}()

// dummySegments[n] is a one-segment AS_PATH of length n over dummyPath
// (nil for n = 0), shared read-only by every synthetic route.
var dummySegments = func() [][]bgp.ASPathSegment {
	s := make([][]bgp.ASPathSegment, len(dummyPath)+1)
	for n := 1; n < len(s); n++ {
		s[n] = []bgp.ASPathSegment{{ASNs: dummyPath[:n]}}
	}
	return s
}()

// fillRoute writes into r, field by field, the route candidate c offers
// as seen from the vantage PoP, igpMs away over the IGP. lp == 0 means
// no LOCAL_PREF attribute (pre-geo routing). The fields it leaves
// alone stay zero for a route only fillRoute writes, so a decision can
// refill two routes in turn without copying either.
func fillRoute(r *rib.Route, vantage *PoP, c Candidate, prefix netip.Prefix, igpMs float64, lp uint32) {
	// The IGP metric is the microsecond-scale internal delay; the PoP ID
	// breaks exact ties deterministically. Unreachable PoPs (partitions
	// under link failures) clamp to a huge finite metric so the route
	// ranks last instead of overflowing the conversion.
	if igpMs > 1e9 {
		igpMs = 1e9
	}
	s := c.Session
	r.Prefix = prefix
	r.EBGP = s.PoP == vantage
	r.PeerAS = s.Neighbor.ASN
	r.PeerID = s.Router
	r.PeerAddr = s.peerAddr
	r.IGPMetric = int(igpMs*1000) + s.PoP.ID
	fillAttrs(r, c, lp)
}

// fillAttrs writes the attributes of the route candidate c offers, the
// same from every vantage: the AS_PATH, synthetic since only its length
// enters the decision process, and the LOCAL_PREF lp (0 for none).
func fillAttrs(r *rib.Route, c Candidate, lp uint32) {
	r.Attrs.ASPath = dummySegments[min(c.PathLen, len(dummyPath))]
	r.Attrs.LocalPref = lp
	r.Attrs.HasLocalPref = lp > 0
}

// SelectHotPotato runs the pre-geo-routing decision process from the
// vantage PoP: default local preference everywhere, so selection falls
// to AS-path length, then eBGP-over-iBGP, then the IGP metric — classic
// hot-potato. It returns the winning candidate, or ok=false when the
// destination is unreachable. Candidates are compared as two routes on
// the stack; nothing is allocated.
func (pr *Peering) SelectHotPotato(vantage *PoP, cands []Candidate, prefix netip.Prefix) (Candidate, bool) {
	var routes [2]rib.Route
	r, bestRoute := &routes[0], &routes[1]
	best := -1
	for i, c := range cands {
		fillRoute(r, vantage, c, prefix, pr.Net.IGPMetricMs(vantage, c.Session.PoP), 0)
		if best < 0 || rib.Compare(r, bestRoute) < 0 {
			r, bestRoute, best = bestRoute, r, i
		}
	}
	if best < 0 {
		return Candidate{}, false
	}
	return cands[best], true
}

// numEgress is the deployment's egress router count (Session.egress
// ranges over it).
const numEgress = len(popSpec) * RoutersPerPoP

// routerPref is an egress router's standing for one prefix, the same at
// every vantage: withdrawn by liveness (down), or else the LOCAL_PREF
// the GeoRR assigns its route.
type routerPref struct {
	lp   uint32
	down bool
}

// routerPrefs holds, by Session.egress, the preference of each distinct
// router among a prefix's candidates; slots of other routers are never
// read.
type routerPrefs [numEgress]routerPref

// read fills p for cands under one reflector policy: one EgressDown
// and, for a router in service, one Assign per distinct router.
func (p *routerPrefs) read(pol *core.Policy, cands []Candidate, prefix netip.Prefix) {
	var seen [numEgress]bool
	for _, c := range cands {
		s := c.Session
		if seen[s.egress] {
			continue
		}
		seen[s.egress] = true
		pref := routerPref{down: pol.EgressDown(s.Router)}
		if !pref.down {
			pref.lp = pol.Assign(s.Router, prefix).LocalPref
		}
		p[s.egress] = pref
	}
}

// SelectGeo runs the post-geo-routing decision process from the vantage
// PoP: the GeoRR assigns each route a distance-derived LOCAL_PREF, which
// dominates every later step, so the geographically closest egress (per
// the GeoIP database) wins network-wide and the vantage only breaks ties
// through its IGP metric. It is the decision a resolve pass makes
// (prefixFacts.pick), over facts freshly read under the reflector's
// current policy: each distinct router among the candidates costs one
// liveness read and one Assign, and the vantage's IGP row one read. A
// candidate whose router is withdrawn (Policy.EgressDown) or whose PoP
// the vantage cannot reach is skipped; ok=false when none is left.
func (pr *Peering) SelectGeo(rr *core.GeoRR, vantage *PoP, cands []Candidate, prefix netip.Prefix) (Candidate, bool) {
	var r prefixFacts
	var buf [8]int32 // the tier, on the stack unless it is wider
	r.tier = r.readCandidates(rr.Policy(), cands, prefix, buf[:0])
	igp := pr.Net.igpRow(vantage)
	if i := r.pick(vantage, &igp, prefix); i >= 0 {
		return cands[i], true
	}
	return Candidate{}, false
}

// maxSessions bounds a candidate list: every session is one neighbor at
// one PoP, and an origin's candidates hold each session at most once.
const maxSessions = (numUpstreams + numPeers) * len(popSpec)

// candOrder is 0, 1, …: its first n entries index every candidate of a
// list of n, in order — pickGeo's scan over all of them.
var candOrder = func() (o [maxSessions]int32) {
	for i := range o {
		o[i] = int32(i)
	}
	return o
}()

// appendTier appends to tier the attribute tier of cands: the indexes,
// in candidate order, of the candidates whose router is in service and
// that tie for best under rib.CompareAttrs. It is one scan, and it reads
// only what a route's own attributes hold (its router's LOCAL_PREF and
// its AS-path length), so the tier is the same at every vantage.
func appendTier(tier []int32, cands []Candidate, prefs *routerPrefs) []int32 {
	var routes [2]rib.Route
	r, top := &routes[0], &routes[1]
	start := len(tier)
	for i, c := range cands {
		p := prefs[c.Session.egress]
		if p.down {
			continue
		}
		fillAttrs(r, c, p.lp)
		if len(tier) > start {
			cmp := rib.CompareAttrs(r, top)
			if cmp > 0 {
				continue
			}
			if cmp < 0 {
				tier = tier[:start]
			}
		}
		if len(tier) == start {
			r, top = top, r // the tier's new representative
		}
		tier = append(tier, int32(i))
	}
	return tier
}

// pickGeo is the geo decision itself, the one every forwarding-plane
// decision and SelectGeo run (prefixFacts.pick): over the candidates
// that order indexes, in that order, skip those on a withdrawn router or
// an unreachable PoP, and keep the best by rib.Compare of each
// candidate's route with its router's LOCAL_PREF and the vantage's IGP
// metric. It returns the winner's index into cands, or -1. The candidate
// and the running best are two routes on the stack that swap roles when
// the candidate wins, so no route is copied or allocated.
//
//vnslint:hotpath
func pickGeo(vantage *PoP, cands []Candidate, order []int32, prefix netip.Prefix, prefs *routerPrefs, igp *igpRow) int {
	var routes [2]rib.Route
	r, bestRoute := &routes[0], &routes[1]
	best := -1
	for _, i := range order {
		c := cands[i]
		s := c.Session
		p, ms := prefs[s.egress], igp[s.PoP.ID-1]
		if p.down || ms >= igpInf {
			continue
		}
		fillRoute(r, vantage, c, prefix, ms, p.lp)
		if best < 0 || rib.Compare(r, bestRoute) < 0 {
			r, bestRoute, best = bestRoute, r, int(i)
		}
	}
	return best
}

// SelectFirstArrival models the hidden-route failure mode the paper
// mitigates with BGP best-external: without it, the first route the
// reflector learns gets the high geo preference and suppresses every
// alternative, so the egress is decided by arrival order, not
// geography. Arrival order is a deterministic hash of (prefix, session).
func (pr *Peering) SelectFirstArrival(cands []Candidate, prefix netip.Prefix) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	bestHash := uint64(0)
	best := -1
	addr := prefix.Addr().As4()
	for i, c := range cands {
		h := uint64(14695981039346656037)
		for _, b := range addr {
			h = (h ^ uint64(b)) * 1099511628211
		}
		h = (h ^ uint64(c.Session.Neighbor.Index)) * 1099511628211
		h = (h ^ uint64(c.Session.PoP.ID)) * 1099511628211
		if best == -1 || h < bestHash {
			bestHash, best = h, i
		}
	}
	return cands[best], true
}
