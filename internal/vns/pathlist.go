package vns

import (
	"encoding/binary"
	"net/netip"
	"slices"

	"vns/internal/core"
	"vns/internal/fib"
	"vns/internal/rib"
)

// This file is the forwarding plane's path-lists, its half of BGP
// Prefix Independent Convergence (draft-ietf-rtgwg-bgp-pic): prefixes
// point at shared path-lists, and a liveness or IGP change re-resolves
// the lists, not the prefixes. Geography makes the lists few: the
// decision's inputs are shared by every prefix of an origin that ranks
// its candidate routers alike, so at seed 1 the 358 prefixes share 211
// lists.

// pathList is what a prefix's decision reads that no liveness or IGP
// change can move: its statics, its origin's candidate sessions with
// their path lengths, and each candidate router's LOCAL_PREF as if in
// service (core.Policy.Preference). The LOCAL_PREFs are kept as ranks:
// the decision process only compares them, so prefixes whose candidate
// routers rank alike share a list.
type pathList struct {
	statics []staticHop // the prefix's statics, in installation order
	cands   []Candidate // the origin's candidate sessions
	// rank holds, by Session.egress, each candidate router's dense rank
	// among the candidate routers' effective LOCAL_PREFs
	// (rib.DefaultLocalPref where the GeoRR assigns none), from 1 for
	// the least preferred; slots of other routers are 0.
	rank [numEgress]uint8
	// hash is an interned list's hash (pathLists.index).
	hash uint64
}

// staticHop is a static more-specific as a path-list holds it: the
// pinned router, its PoP (nil for an unknown router) and its egress
// index (Session.egress; meaningless without a PoP).
type staticHop struct {
	router netip.Addr
	pop    *PoP
	egress int
}

// liveness is one policy's liveness of the deployment's egress routers,
// by Session.egress: down marks a withdrawn one. A pass reads it once,
// so its decisions probe no map per candidate.
type liveness [numEgress]bool

// readLiveness returns pol's liveness of n's egress routers.
func (n *Network) readLiveness(pol *core.Policy) (down liveness) {
	for _, r := range pol.DownEgresses() {
		if _, e, ok := n.egressOf(r); ok {
			down[e] = true
		}
	}
	return down
}

// egressOf returns router's PoP and egress index (Session.egress), and
// false for a router of no PoP.
func (n *Network) egressOf(router netip.Addr) (*PoP, int, bool) {
	p, ok := n.RouterPoP(router)
	if !ok {
		return nil, 0, false
	}
	return p, (p.ID-1)*RoutersPerPoP + slices.Index(p.Routers, router), true
}

// readList fills l, a zero pathList, with prefix's path-list under pol:
// its statics, each with its router's PoP, and for an originated prefix
// the origin's candidates and their routers' ranks (readRanks). A list
// with neither routes nowhere.
func (f *Forwarding) readList(l *pathList, pol *core.Policy, prefix netip.Prefix) {
	// Gathered in a local and stored once: appending to l.statics in
	// place would count as l's content leaking and move a caller's l to
	// the heap. Only a prefix with statics allocates.
	var statics []staticHop
	for _, s := range pol.StaticsFor(prefix) {
		h := staticHop{router: s.Egress}
		h.pop, h.egress, _ = f.Peering.Net.egressOf(s.Egress)
		statics = append(statics, h)
	}
	l.statics = statics
	if pi, ok := f.Peering.Topo.PrefixInfoFor(prefix); ok {
		l.cands = f.Peering.Candidates(pi.Origin)
		l.rank = readRanks(pol, l.cands, prefix)
	}
}

// readRanks returns the ranks of cands' routers for prefix under pol:
// one Preference per distinct candidate router, its effective
// LOCAL_PREF ranked densely among theirs.
func readRanks(pol *core.Policy, cands []Candidate, prefix netip.Prefix) (rank [numEgress]uint8) {
	var lp [numEgress]uint32 // effective LOCAL_PREF by egress; 0 for a router not read
	var vals [numEgress]uint32
	n := 0
	for _, c := range cands {
		s := c.Session
		if lp[s.egress] != 0 {
			continue
		}
		v := pol.Preference(s.Router, prefix).LocalPref
		if v == 0 {
			v = rib.DefaultLocalPref
		}
		lp[s.egress], vals[n] = v, v
		n++
	}
	sorted := vals[:n]
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	for e, v := range lp {
		if v != 0 {
			i, _ := slices.BinarySearch(sorted, v)
			rank[e] = uint8(i + 1)
		}
	}
	return rank
}

// same reports whether l and o are one path-list: the same statics,
// candidates and ranks, so they decide alike everywhere.
func (l *pathList) same(o *pathList) bool {
	return l.rank == o.rank && slices.Equal(l.statics, o.statics) && slices.Equal(l.cands, o.cands)
}

// sum hashes what same compares (FNV-1a over 64-bit words).
func (l *pathList) sum() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	mix(uint64(len(l.statics)))
	for _, s := range l.statics {
		a := s.router.As16()
		mix(binary.LittleEndian.Uint64(a[:8]))
		mix(binary.LittleEndian.Uint64(a[8:]))
	}
	for _, c := range l.cands {
		// A session is its neighbor at its PoP.
		s := c.Session
		mix(uint64(s.Neighbor.Index)<<48 | uint64(s.PoP.ID)<<40 | uint64(l.rank[s.egress])<<32 | uint64(uint32(c.PathLen)))
	}
	return h
}

// standing fills prefs, the decision's per-router table, under the
// liveness down: each candidate router's rank as its preference, and
// whether it is withdrawn.
func (l *pathList) standing(prefs *routerPrefs, down *liveness) {
	for _, c := range l.cands {
		e := c.Session.egress
		prefs[e] = routerPref{lp: uint32(l.rank[e]), down: down[e]}
	}
}

// attrKey orders the route candidate c offers, its router ranked rank,
// as rib.CompareAttrs orders the routes fillAttrs builds: a higher key
// is better. The steps are its LOCAL_PREF, the rank, higher first, then
// its AS_PATH length, shorter first; the synthetic routes share their
// ORIGIN.
func attrKey(c Candidate, rank uint8) uint32 {
	return uint32(rank)<<8 | uint32(255-min(c.PathLen, len(dummyPath)))
}

// tier appends to buf, empty, the attribute tier of l under prefs: the
// in-service candidates tied for best by attrKey, the steps a route's
// own attributes decide, which are the same at every vantage. Every
// other in-service candidate loses to each of them before any
// vantage-dependent step, so wherever one of them is usable the
// decision is among them.
func (l *pathList) tier(prefs *routerPrefs, buf []uint16) []uint16 {
	var top uint32 // every key is above 0: ranks start at 1
	for i, c := range l.cands {
		p := prefs[c.Session.egress]
		if p.down {
			continue
		}
		switch k := attrKey(c, uint8(p.lp)); {
		case k > top:
			buf, top = append(buf[:0], uint16(i)), k
		case k == top:
			buf = append(buf, uint16(i))
		}
	}
	return buf
}

// resolve writes l's next hop at every PoP of pops, in order, into
// row: the decision under the liveness down and each PoP's IGP row
// (igps, by PoP id−1). buf is scratch for the tier.
func (l *pathList) resolve(row []fib.NextHop, down *liveness, pops []*PoP, igps *[len(popSpec)]igpRow, buf []uint16) {
	var prefs routerPrefs
	l.standing(&prefs, down)
	tier := l.tier(&prefs, buf)
	for k, v := range pops {
		row[k] = l.decide(v, &igps[k], down, tier, &prefs)
	}
}

// decide is a vantage's decision over l: the first static whose router
// is up and whose PoP the vantage reaches pins the egress; everything
// else is the geo decision over the candidates (pick). An invalid next
// hop means no route.
func (l *pathList) decide(vantage *PoP, igp *igpRow, down *liveness, tier []uint16, prefs *routerPrefs) fib.NextHop {
	for _, s := range l.statics {
		if s.pop != nil && igp[s.pop.ID-1] < igpInf && !down[s.egress] {
			return fib.NextHop{PoP: s.pop.ID, Router: s.router}
		}
	}
	i := l.pick(vantage, igp, tier, prefs)
	if i < 0 {
		return fib.NextHop{}
	}
	s := l.cands[i].Session
	return fib.NextHop{PoP: s.PoP.ID, Router: s.Router, Neighbor: s.Neighbor.Index}
}

// pick is the geo decision at a vantage over l's candidates: pickGeo
// over the attribute tier (pathList.tier), and only when no tier
// candidate is usable here — the tier's PoPs are cut off from the
// vantage while their routers are still in service — pickGeo over
// every candidate. Both answer what pickGeo over every candidate
// would: a candidate outside the tier loses to each tier candidate at
// rib.CompareAttrs, from every vantage, so it never displaces a usable
// tier candidate from pickGeo's running best, and the tier scan makes
// the same comparisons among tier candidates, in the same order, as the
// full one. It returns the winner's index into l.cands, or -1.
func (l *pathList) pick(vantage *PoP, igp *igpRow, tier []uint16, prefs *routerPrefs) int {
	if i := pickGeo(vantage, l.cands, tier, prefs, igp); i >= 0 {
		return i
	}
	return pickGeo(vantage, l.cands, candOrder[:len(l.cands)], prefs, igp)
}

// pathLists is the forwarding plane's interned path-lists and the row
// table it publishes them through: list id r's next hop at the k-th PoP
// is rows[(r-1)*len(PoPs)+k]. A list no prefix points at (the plane's
// writer counts them, fib.Publisher.Pointed) stays interned, and its
// row current, until the next re-resolution, which frees its id; a new
// list takes a freed id before a new one. Freed rows are rewritten in
// place: no published trie names them, so no lookup reads them
// (fib.Publisher.Repoint's contract).
type pathLists struct {
	lists []pathList // by id−1; a freed one is the zero pathList
	// index maps a list's hash (sum) to its id. Two lists sharing a
	// hash both stay, the second unindexed, so a third like it is
	// interned again: equal lists are redundant, never wrong.
	index map[uint64]int32
	free  []int32 // freed ids
	rows  []fib.NextHop
}

// intern returns the id of l, adding it on first sight with its row
// resolved at pops under down and igps.
func (p *pathLists) intern(l *pathList, down *liveness, pops []*PoP, igps *[len(popSpec)]igpRow) int32 {
	h := l.sum()
	id, hashed := p.index[h]
	if hashed && p.lists[id-1].same(l) {
		return id
	}
	l.hash = h
	cols := len(pops)
	if n := len(p.free); n > 0 {
		id, p.free = p.free[n-1], p.free[:n-1]
		p.lists[id-1] = *l
	} else {
		p.lists = append(p.lists, *l)
		p.rows = slices.Grow(p.rows, cols)[:len(p.rows)+cols]
		id = int32(len(p.lists))
	}
	if !hashed {
		p.index[h] = id
	}
	var buf [maxSessions]uint16
	l.resolve(p.rows[int(id-1)*cols:int(id)*cols], down, pops, igps, buf[:0])
	return id
}

// resolveAll resolves every list some prefix points at, per pub, into a
// new row table under down and igps, and frees every other list.
func (p *pathLists) resolveAll(pub *fib.Publisher, down *liveness, pops []*PoP, igps *[len(popSpec)]igpRow) []fib.NextHop {
	cols := len(pops)
	rows := make([]fib.NextHop, len(p.rows))
	var buf [maxSessions]uint16
	for i := range p.lists {
		l := &p.lists[i]
		switch id := int32(i + 1); {
		case len(l.cands) == 0 && len(l.statics) == 0: // freed
		case pub.Pointed(id):
			l.resolve(rows[i*cols:(i+1)*cols], down, pops, igps, buf[:0])
		default:
			if p.index[l.hash] == id {
				delete(p.index, l.hash)
			}
			*l = pathList{}
			p.free = append(p.free, id)
		}
	}
	p.rows = rows
	return rows
}
