package vns

import (
	"net/netip"

	"vns/internal/geo"
	"vns/internal/topo"
)

// DataPlane answers delay questions about paths in and around VNS. It
// combines the L2 topology (internal legs) with the topo.DelayModel
// (external legs over the public Internet).
type DataPlane struct {
	Peering *Peering
	Delay   *topo.DelayModel
}

// NewDataPlane builds the data plane for a peering with the given model
// seed.
func NewDataPlane(pr *Peering, seed uint64) *DataPlane {
	return &DataPlane{Peering: pr, Delay: topo.NewDelayModel(pr.Topo, seed)}
}

// LocalEgressSession returns the session a probe "forced out of VNS
// immediately" at PoP p uses for a destination: the local BGP best among
// sessions at p (shortest AS path, deterministic tie-break).
func (dp *DataPlane) LocalEgressSession(p *PoP, origin uint16) (Candidate, bool) {
	return dp.localSession(p, origin, false)
}

// localSession is LocalEgressSession, restricted to transit sessions
// when upstreamOnly is set.
func (dp *DataPlane) localSession(p *PoP, origin uint16, upstreamOnly bool) (Candidate, bool) {
	local := make([]Candidate, 0, 8)
	for _, c := range dp.Peering.Candidates(origin) {
		if c.Session.PoP == p && (!upstreamOnly || c.Session.Neighbor.Kind == Upstream) {
			local = append(local, c)
		}
	}
	if len(local) == 0 {
		return Candidate{}, false
	}
	// All-local candidates: hot-potato selection degenerates to path
	// length plus deterministic tie-breaks.
	return dp.Peering.SelectHotPotato(p, local, netip.Prefix{})
}

// hairpinWaypoint returns the forced detour for the session, modeling
// the Figure 11 London anomaly: London's main upstream is a US-based
// tier-1, so some of its traffic to European destinations crosses the
// Atlantic and comes back.
func (dp *DataPlane) hairpinWaypoint(c Candidate, dst *topo.PrefixInfo) []geo.LatLon {
	if c.Session.PoP.Code == "LON" && c.Session.Neighbor.Index == 1 &&
		geo.PoPRegion(dst.Region) == geo.RegionEU {
		return []geo.LatLon{geo.MustLookup("Ashburn").Pos}
	}
	return nil
}

// ExternalRTT returns the modeled RTT of a probe leaving VNS immediately
// at PoP p toward dst over the public Internet (the paper's per-PoP
// probing methodology).
func (dp *DataPlane) ExternalRTT(p *PoP, dst *topo.PrefixInfo) (float64, bool) {
	return dp.externalRTT(p, dst, false)
}

// ExternalRTTViaUpstream is ExternalRTT forced through the vantage
// PoP's best transit session, as the paper's delay comparison sends
// its measurements "through the upstreams".
func (dp *DataPlane) ExternalRTTViaUpstream(p *PoP, dst *topo.PrefixInfo) (float64, bool) {
	return dp.externalRTT(p, dst, true)
}

func (dp *DataPlane) externalRTT(p *PoP, dst *topo.PrefixInfo, upstreamOnly bool) (float64, bool) {
	c, ok := dp.localSession(p, dst.Origin, upstreamOnly)
	if !ok {
		return 0, false
	}
	return dp.Delay.RTT(p.Place, dst, c.PathLen, dp.hairpinWaypoint(c, dst)...), true
}

// InternalRTTMs returns the round-trip delay between two PoPs across the
// dedicated L2 topology.
func (dp *DataPlane) InternalRTTMs(a, b *PoP) float64 {
	return 2 * dp.Peering.Net.IGPMetricMs(a, b)
}

// ThroughVNSRTT returns the RTT from an ingress PoP to a destination
// when traffic rides VNS's dedicated links to the egress PoP and exits
// there (cold potato): internal leg plus the egress's external leg.
func (dp *DataPlane) ThroughVNSRTT(ingress, egress *PoP, dst *topo.PrefixInfo) (float64, bool) {
	external, ok := dp.ExternalRTT(egress, dst)
	if !ok {
		return 0, false
	}
	return dp.InternalRTTMs(ingress, egress) + external, true
}
