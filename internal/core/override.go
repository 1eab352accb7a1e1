package core

import (
	"fmt"
	"net/netip"
	"sort"
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
	rr.mu.Lock()
	if _, ok := rr.egresses[egress]; !ok {
		rr.mu.Unlock()
		return fmt.Errorf("core: unknown egress %v", egress)
	}
	if cur, ok := rr.overrides[prefix]; ok && cur == egress {
		rr.mu.Unlock()
		return nil
	}
	rr.overrides[prefix] = egress
	if rr.metrics != nil {
		// Lazily create the "adaptive" assignment-reason child so runs
		// that never install an override render (and digest) exactly as
		// before this subsystem existed. Safe here: metric mutation
		// happens under rr.mu's write lock, reads under its read lock.
		if _, ok := rr.metrics.assign["adaptive"]; !ok {
			rr.metrics.assign["adaptive"] = rr.metrics.assignVec.With("adaptive")
		}
	}
	rr.mu.Unlock()
	rr.NotifyChanged(prefix)
	return nil
}

// ClearOverride removes prefix's measured-delay override and reports
// whether one was installed.
func (rr *GeoRR) ClearOverride(prefix netip.Prefix) bool {
	prefix = prefix.Masked()
	rr.mu.Lock()
	_, had := rr.overrides[prefix]
	delete(rr.overrides, prefix)
	rr.mu.Unlock()
	if had {
		rr.NotifyChanged(prefix)
	}
	return had
}

// OverrideFor returns prefix's override egress, if one is installed.
func (rr *GeoRR) OverrideFor(prefix netip.Prefix) (netip.Addr, bool) {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	eg, ok := rr.overrides[prefix.Masked()]
	return eg, ok
}

// Overrides lists the installed overrides sorted by prefix, for the
// management interface and checkpoint traces.
func (rr *GeoRR) Overrides() []Override {
	rr.mu.RLock()
	out := make([]Override, 0, len(rr.overrides))
	for p, eg := range rr.overrides {
		out = append(out, Override{Prefix: p, Egress: eg})
	}
	rr.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return out[i].Prefix.String() < out[j].Prefix.String()
	})
	return out
}
