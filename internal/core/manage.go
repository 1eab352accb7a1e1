package core

import (
	"fmt"
	"net/netip"
	"sort"

	"vns/internal/bgp"
)

// This file implements the paper's management interface: it
// "communicates with the Quagga-RR and border routers" to (a) force the
// use of a different PoP as exit, (b) exempt a prefix from geo-routing
// altogether, and (c) statically advertise remote more-specifics from
// their closest exit PoP, tagged no-export.

// ForceExit pins prefix's exit to the given egress router, overriding
// geography (used when the geographically closest PoP is not closest
// data-plane-wise). The egress must be registered.
func (rr *GeoRR) ForceExit(prefix netip.Prefix, egress netip.Addr) error {
	rr.mu.Lock()
	if _, ok := rr.egresses[egress]; !ok {
		rr.mu.Unlock()
		return fmt.Errorf("core: unknown egress %v", egress)
	}
	rr.forced[prefix.Masked()] = egress
	rr.mu.Unlock()
	rr.NotifyChanged(prefix.Masked())
	return nil
}

// Unforce removes a forced exit.
func (rr *GeoRR) Unforce(prefix netip.Prefix) {
	rr.mu.Lock()
	delete(rr.forced, prefix.Masked())
	rr.mu.Unlock()
	rr.NotifyChanged(prefix.Masked())
}

// Exempt excludes prefix from geo-routing (used for globally spread
// prefixes that have no meaningful single location). Exempt routes keep
// their original attributes, so ordinary hot-potato selection applies.
func (rr *GeoRR) Exempt(prefix netip.Prefix) {
	rr.mu.Lock()
	rr.exempt[prefix.Masked()] = true
	rr.mu.Unlock()
	rr.NotifyChanged(prefix.Masked())
}

// Unexempt re-enables geo-routing for prefix.
func (rr *GeoRR) Unexempt(prefix netip.Prefix) {
	rr.mu.Lock()
	delete(rr.exempt, prefix.Masked())
	rr.mu.Unlock()
	rr.NotifyChanged(prefix.Masked())
}

// IsExempt reports whether prefix is exempted.
func (rr *GeoRR) IsExempt(prefix netip.Prefix) bool {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	return rr.exempt[prefix.Masked()]
}

// AddStatic installs a static more-specific advertisement: the given
// egress announces prefix into iBGP even though it is not present in the
// global table, covering subnets whose real location is far from their
// covering prefix. hasCover must confirm the egress holds a route to a
// covering less-specific; the paper requires this so traffic can
// actually be delivered.
func (rr *GeoRR) AddStatic(prefix netip.Prefix, egress netip.Addr, hasCover func(netip.Prefix) bool) error {
	// hasCover is the caller's code and may take locks that are held
	// while waiting for rr.mu (the wire server's, around Assign), so it
	// runs before rr.mu is taken.
	covered := hasCover == nil || hasCover(prefix)
	rr.mu.Lock()
	if _, ok := rr.egresses[egress]; !ok {
		rr.mu.Unlock()
		return fmt.Errorf("core: unknown egress %v", egress)
	}
	if !covered {
		rr.mu.Unlock()
		return fmt.Errorf("core: no covering route for %v at %v", prefix, egress)
	}
	prefix = prefix.Masked()
	for _, s := range rr.statics {
		if s.Prefix == prefix && s.Egress == egress {
			rr.mu.Unlock()
			return nil // idempotent
		}
	}
	rr.statics = append(rr.statics, StaticRoute{Prefix: prefix, Egress: egress})
	rr.mu.Unlock()
	rr.NotifyChanged(prefix)
	return nil
}

// RemoveStatic removes a static advertisement.
func (rr *GeoRR) RemoveStatic(prefix netip.Prefix, egress netip.Addr) {
	rr.mu.Lock()
	prefix = prefix.Masked()
	kept := rr.statics[:0]
	for _, s := range rr.statics {
		if s.Prefix == prefix && s.Egress == egress {
			continue
		}
		kept = append(kept, s)
	}
	rr.statics = kept
	rr.mu.Unlock()
	rr.NotifyChanged(prefix)
}

// Statics returns the static advertisements sorted by prefix.
func (rr *GeoRR) Statics() []StaticRoute {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	out := make([]StaticRoute, len(rr.statics))
	copy(out, rr.statics)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Prefix.String() < out[j].Prefix.String()
	})
	return out
}

// StaticUpdates renders the static routes as BGP updates originated at
// their egress routers, tagged no-export so they never leak outside the
// VNS AS.
func (rr *GeoRR) StaticUpdates() []bgp.Update {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	out := make([]bgp.Update, 0, len(rr.statics))
	for _, s := range rr.statics {
		eg := rr.egresses[s.Egress]
		var nh netip.Addr
		if eg.ID.IsValid() {
			nh = eg.ID
		}
		out = append(out, bgp.Update{
			Attrs: bgp.Attrs{
				Origin:       bgp.OriginIGP,
				NextHop:      nh,
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

// ForcedExit returns the forced egress for prefix, if any.
func (rr *GeoRR) ForcedExit(prefix netip.Prefix) (netip.Addr, bool) {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	a, ok := rr.forced[prefix.Masked()]
	return a, ok
}
