package core

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"strings"
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
	prefix = prefix.Masked()
	_, err := rr.update(func(p *Policy) (bool, error) {
		if _, ok := p.egresses[egress]; !ok {
			return false, fmt.Errorf("core: unknown egress %v", egress)
		}
		return put(&p.forced, prefix, egress), nil
	}, prefix)
	return err
}

// Unforce removes a forced exit.
func (rr *GeoRR) Unforce(prefix netip.Prefix) {
	prefix = prefix.Masked()
	rr.update(func(p *Policy) (bool, error) { return put(&p.forced, prefix, netip.Addr{}), nil }, prefix)
}

// Exempt excludes prefix from geo-routing (used for globally spread
// prefixes that have no meaningful single location). Exempt routes keep
// their original attributes, so ordinary hot-potato selection applies.
func (rr *GeoRR) Exempt(prefix netip.Prefix) {
	prefix = prefix.Masked()
	rr.update(func(p *Policy) (bool, error) { return put(&p.exempt, prefix, true), nil }, prefix)
}

// Unexempt re-enables geo-routing for prefix.
func (rr *GeoRR) Unexempt(prefix netip.Prefix) {
	prefix = prefix.Masked()
	rr.update(func(p *Policy) (bool, error) { return put(&p.exempt, prefix, false), nil }, prefix)
}

// AddStatic installs a static more-specific advertisement: the given
// egress announces prefix into iBGP even though it is not present in the
// global table, covering subnets whose real location is far from their
// covering prefix. hasCover must confirm the egress holds a route to a
// covering less-specific (Reflector.HasCover); the paper requires this
// so traffic can actually be delivered. hasCover is the caller's code
// and may take its own locks or call back into the GeoRR; it runs once,
// before the new policy is built.
func (rr *GeoRR) AddStatic(prefix netip.Prefix, egress netip.Addr, hasCover func(netip.Prefix) bool) error {
	covered := hasCover(prefix)
	key := prefix.Masked()
	_, err := rr.update(func(p *Policy) (bool, error) {
		if _, ok := p.egresses[egress]; !ok {
			return false, fmt.Errorf("core: unknown egress %v", egress)
		}
		if !covered {
			return false, fmt.Errorf("core: no covering route for %v at %v", prefix, egress)
		}
		s := StaticRoute{Prefix: key, Egress: egress}
		if slices.Contains(p.statics[key], s) {
			return false, nil // idempotent
		}
		p.setStatics(key, append(slices.Clip(p.statics[key]), s))
		return true, nil
	}, key)
	return err
}

// RemoveStatic removes a static advertisement.
func (rr *GeoRR) RemoveStatic(prefix netip.Prefix, egress netip.Addr) {
	prefix = prefix.Masked()
	rr.update(func(p *Policy) (bool, error) {
		kept := slices.DeleteFunc(slices.Clone(p.statics[prefix]), func(s StaticRoute) bool { return s.Egress == egress })
		if len(kept) == len(p.statics[prefix]) {
			return false, nil
		}
		p.setStatics(prefix, kept)
		return true, nil
	}, prefix)
}

// setStatics replaces prefix's statics in p, a policy not yet
// published, and re-sorts the listing (stably: one prefix's statics
// keep their installation order).
func (p *Policy) setStatics(prefix netip.Prefix, ss []StaticRoute) {
	m := make(map[netip.Prefix][]StaticRoute, len(p.statics)+1)
	maps.Copy(m, p.statics)
	if m[prefix] = ss; len(ss) == 0 {
		delete(m, prefix)
	}
	p.statics, p.staticList = m, slices.Concat(slices.Collect(maps.Values(m))...)
	slices.SortStableFunc(p.staticList, func(a, b StaticRoute) int { return strings.Compare(a.Prefix.String(), b.Prefix.String()) })
}
