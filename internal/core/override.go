package core

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"strings"
)

// This file is the GeoRR end of the measurement→routing loop:
// internal/adaptive installs a measured-delay override when probe
// measurements contradict the geographic prediction, and clears it when
// they re-agree. An override is weaker than the management interface's
// ForceExit (a human said so) and stronger than any geographic
// preference (a measurement said so).

// AdaptiveLocalPref is the preference an adaptive override assigns at
// its chosen egress: above LinearLocalPref's entire range (1000–2000),
// below a forced exit's 4000.
const AdaptiveLocalPref = 3000

// Override is one measured-delay override for listings.
type Override struct {
	Prefix netip.Prefix
	Egress netip.Addr
}

// SetOverride pins prefix's exit to the given egress router at
// AdaptiveLocalPref. The egress must be registered. Installing the
// same override twice is a no-op (no change notification). A forced
// exit on the same prefix keeps winning: Assign checks forces first.
func (rr *GeoRR) SetOverride(prefix netip.Prefix, egress netip.Addr) error {
	prefix = prefix.Masked()
	_, err := rr.update(func(p *Policy) (bool, error) {
		if _, ok := p.egresses[egress]; !ok {
			return false, fmt.Errorf("core: unknown egress %v", egress)
		}
		// Before any published policy carries an override, so every
		// adaptive outcome renders; a rerun edit repeats it harmlessly.
		rr.overridden.Store(true)
		return p.setOverride(prefix, Override{prefix, egress}), nil
	}, prefix)
	return err
}

// ClearOverride removes prefix's measured-delay override and reports
// whether one was installed.
func (rr *GeoRR) ClearOverride(prefix netip.Prefix) bool {
	prefix = prefix.Masked()
	had, _ := rr.update(func(p *Policy) (bool, error) { return p.setOverride(prefix, Override{}), nil }, prefix)
	return had
}

// setOverride makes o prefix's override in p, a policy not yet
// published (the zero Override clears it), and re-sorts the listing. It
// reports whether that changed anything.
func (p *Policy) setOverride(prefix netip.Prefix, o Override) bool {
	if !put(&p.overrides, prefix, o) {
		return false
	}
	p.overrideList = slices.SortedFunc(maps.Values(p.overrides), func(a, b Override) int { return strings.Compare(a.Prefix.String(), b.Prefix.String()) })
	return true
}
