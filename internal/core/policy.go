package core

import (
	"net/netip"

	"vns/internal/bgp"
	"vns/internal/geo"
)

// Policy is one state of the reflector's routing policy: the registered
// egress routers, those liveness monitoring (internal/health) has
// withdrawn, the management overrides and the measured-delay overrides
// of internal/adaptive. A published Policy never changes: each GeoRR
// mutation builds the next one, copying only the map it changes, so a
// reader that loads one (GeoRR.Policy) decides from one state and takes
// no lock. Slices its accessors return are its own, not to be written.
type Policy struct {
	rr *GeoRR // the configuration, and the outcome counters Assign adds to

	egresses   map[netip.Addr]registered
	egressList []Egress // by router id
	down       map[netip.Addr]bool
	downList   []netip.Addr // by address

	forced       map[netip.Prefix]netip.Addr    // prefix -> forced egress router
	exempt       map[netip.Prefix]bool          // prefixes excluded from geo-routing
	statics      map[netip.Prefix][]StaticRoute // by prefix, in installation order
	staticList   []StaticRoute                  // by prefix text, then installation order
	overrides    map[netip.Prefix]Override
	overrideList []Override // by prefix text

	onBatch []func([]netip.Prefix) // the change subscribers
	// changed is the prefix whose change published this policy (zero
	// when it notified nobody); subscribers receive it sliced, and an
	// array makes that slice cost no allocation beyond the policy's.
	changed [1]netip.Prefix
}

// Assign computes the local preference for a route to prefix learned
// from egress router from, under this policy. This is the heart of the
// paper's mechanism. Every call counts in the GeoRR's Stats. The
// distance is a read from the egress's row, which holds what
// geo.DistanceKm returns for every GeoIP record; LOCAL_PREF is the
// configured function of it, applied per call.
//
//vnslint:hotpath
func (p *Policy) Assign(from netip.Addr, prefix netip.Prefix) Decision {
	rr := p.rr
	if p.exempt[prefix] {
		return p.assigned(Decision{Reason: ReasonExempt})
	}
	eg, ok := p.egresses[from]
	if !ok {
		return p.assigned(Decision{Reason: ReasonUnknownEgress})
	}
	if p.down[from] {
		// Withdrawn by liveness monitoring: no preference, so the route
		// never beats a geo-processed alternative while the egress is
		// out of service.
		return p.assigned(Decision{Reason: ReasonEgressDown})
	}
	if forcedTo, ok := p.forced[prefix]; ok {
		// A forced prefix gets maximum preference at its designated
		// egress and none elsewhere, overriding geography.
		if forcedTo == from {
			return p.assigned(Decision{LocalPref: 4000, Reason: ReasonForcedHere})
		}
		return p.assigned(Decision{Reason: ReasonForcedOther})
	}
	if over, ok := p.overrides[prefix]; ok && over.Egress == from {
		// Measured delay contradicts geography here: the adaptive
		// controller pinned this egress. Other egresses keep their
		// geographic preference (always below AdaptiveLocalPref), so if
		// this router is withdrawn the prefix degrades to geo-routing
		// instead of losing all preference.
		return p.assigned(Decision{LocalPref: AdaptiveLocalPref, Reason: ReasonAdaptive})
	}
	db := rr.cfg.DB
	i := db.IndexPrefix(prefix)
	if i == 0 {
		return p.assigned(Decision{Reason: ReasonNoGeolocation})
	}
	var d float64
	if eg.row.gen == db.Generation() {
		d = eg.row.km[i]
	} else {
		// The DB took an Insert after the row was built (a deployment
		// loads its DB before it builds the GeoRR, so only a caller that
		// edits it later gets here): its records may have moved.
		d = geo.DistanceKm(eg.Pos, db.At(i).Pos)
	}
	// Dynamic dispatch hotalloc cannot chase: every LocalPrefFunc in
	// the tree (LinearLocalPref, StepLocalPref) is float arithmetic.
	lp := rr.cfg.LocalPref(d) //vnslint:hotalloc
	return p.assigned(Decision{LocalPref: lp, DistanceKm: d})
}

// assigned counts one Assign outcome and returns it.
func (p *Policy) assigned(d Decision) Decision {
	p.rr.outcomes[d.Reason].Add(1)
	return d
}

// Egresses returns the registered egress routers in router-id order, so
// listings (the management interface's `egresses` command) are stable.
func (p *Policy) Egresses() []Egress { return p.egressList }

// EgressDown reports whether liveness monitoring has withdrawn the
// egress router.
func (p *Policy) EgressDown(id netip.Addr) bool { return p.down[id] }

// DownEgresses returns the withdrawn egress routers in address order.
func (p *Policy) DownEgresses() []netip.Addr { return p.downList }

// IsExempt reports whether prefix is exempted.
func (p *Policy) IsExempt(prefix netip.Prefix) bool { return p.exempt[prefix.Masked()] }

// ForcedExit returns the forced egress for prefix, if any.
func (p *Policy) ForcedExit(prefix netip.Prefix) (netip.Addr, bool) {
	a, ok := p.forced[prefix.Masked()]
	return a, ok
}

// OverrideFor returns prefix's override egress, if one is installed.
func (p *Policy) OverrideFor(prefix netip.Prefix) (netip.Addr, bool) {
	o, ok := p.overrides[prefix.Masked()]
	return o.Egress, ok
}

// Overrides lists the installed overrides sorted by prefix, for the
// management interface and checkpoint traces.
func (p *Policy) Overrides() []Override { return p.overrideList }

// Statics returns the static advertisements sorted by prefix.
func (p *Policy) Statics() []StaticRoute { return p.staticList }

// StaticsFor returns the static advertisements of prefix, in the order
// they were installed.
func (p *Policy) StaticsFor(prefix netip.Prefix) []StaticRoute { return p.statics[prefix.Masked()] }

// StaticUpdates renders the static routes, in Statics order, as BGP
// updates originated at their egress routers, tagged no-export so they
// never leak outside the VNS AS.
func (p *Policy) StaticUpdates() []bgp.Update {
	out := make([]bgp.Update, 0, len(p.staticList))
	for _, s := range p.staticList {
		out = append(out, bgp.Update{
			Attrs: bgp.Attrs{
				Origin:       bgp.OriginIGP,
				NextHop:      p.egresses[s.Egress].ID,
				LocalPref:    4000,
				HasLocalPref: true,
				Communities:  []bgp.Community{bgp.CommunityNoExport},
				OriginatorID: s.Egress,
			},
			NLRI: []netip.Prefix{s.Prefix},
		})
	}
	return out
}
