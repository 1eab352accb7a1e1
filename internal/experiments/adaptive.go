package experiments

import (
	"fmt"
	"net/netip"

	"vns/internal/adaptive"
	"vns/internal/geo"
	"vns/internal/measure"
	"vns/internal/netsim"
)

// The adaptive study quantifies what measured-delay routing buys over
// the paper's pure geography: run the probe-fed controller against the
// deployment, let it override the prefixes where the corrupted
// geolocation database picks a delay-wrong exit, and compare the
// through-VNS assigned-path delay under both policies.

// AdaptiveTrack is the measured-delay candidate set for one prefix: one
// candidate per PoP with a session toward the prefix's origin, carrying
// the corrupted-database distance as the geographic prediction.
type AdaptiveTrack struct {
	Prefix netip.Prefix
	Cands  []adaptive.Cand
	// GeoBest is the PoP id of the geographically nearest candidate —
	// the exit pure geo routing would assign.
	GeoBest int
}

// AdaptiveTrack assembles the candidate set for one prefix. ok is false
// for prefixes the controller should not track: exempt, forced (a human
// already pinned them), ungeolocated, unknown to the topology, or with
// fewer than two egress choices.
func (e *Env) AdaptiveTrack(pfx netip.Prefix) (AdaptiveTrack, bool) {
	pol := e.RR.Policy()
	if pol.IsExempt(pfx) {
		return AdaptiveTrack{}, false
	}
	if _, forced := pol.ForcedExit(pfx); forced {
		return AdaptiveTrack{}, false
	}
	rec, located := e.DB.LookupPrefix(pfx)
	if !located {
		return AdaptiveTrack{}, false
	}
	pi, have := e.Topo.PrefixInfoFor(pfx)
	if !have {
		return AdaptiveTrack{}, false
	}
	tr := AdaptiveTrack{Prefix: pfx}
	seen := make(map[int]bool)
	for _, c := range e.Peering.Candidates(pi.Origin) {
		p := c.Session.PoP
		if seen[p.ID] {
			continue
		}
		seen[p.ID] = true
		tr.Cands = append(tr.Cands, adaptive.Cand{
			PoP:    p.ID,
			Code:   p.Code,
			Router: c.Session.Router,
			GeoKm:  geo.DistanceKm(p.Place.Pos, rec.Pos),
		})
	}
	if len(tr.Cands) < 2 {
		return AdaptiveTrack{}, false
	}
	best := 0
	for i := range tr.Cands {
		if tr.Cands[i].GeoKm < tr.Cands[best].GeoKm ||
			(tr.Cands[i].GeoKm == tr.Cands[best].GeoKm && tr.Cands[i].PoP < tr.Cands[best].PoP) {
			best = i
		}
	}
	tr.GeoBest = tr.Cands[best].PoP
	return tr, true
}

// AdaptiveTracks lists the candidate set of every eligible originated
// prefix, in topology order.
func (e *Env) AdaptiveTracks() []AdaptiveTrack {
	var out []AdaptiveTrack
	for i := range e.Topo.Prefixes {
		if tr, ok := e.AdaptiveTrack(e.Topo.Prefixes[i].Prefix); ok {
			out = append(out, tr)
		}
	}
	return out
}

// AdaptiveProbe returns the controller's measurement backend for this
// environment: the modeled external RTT of a probe leaving at the
// egress PoP.
func (e *Env) AdaptiveProbe() adaptive.ProbeFunc {
	return func(pop int, pfx netip.Prefix) (float64, bool) {
		pi, ok := e.Topo.PrefixInfoFor(pfx)
		if !ok {
			return 0, false
		}
		return e.DP.ExternalRTT(e.Net.PoPByID(pop), pi)
	}
}

// ContinentVantages are the ingress PoPs traffic enters at in the
// adaptive study and the scenario harness: one per continent.
var ContinentVantages = []string{"LON", "SJS", "SIN"}

// adaptiveRunSec is how long (simulated) the study's controller probes
// before the override set is frozen and measured.
const adaptiveRunSec = 30

// AdaptiveResult compares assigned-path delay under pure geo routing vs
// the measured-delay overrides, over (vantage, prefix) pairs.
type AdaptiveResult struct {
	// Prefixes is the number of tracked prefixes; Overridden how many
	// the controller moved off the geographic exit.
	Prefixes, Overridden int
	// GeoMs and AdaptiveMs are through-VNS RTT distributions across all
	// tracked prefixes from every vantage.
	GeoMs, AdaptiveMs *measure.CDF
	// OverriddenGeoMs and OverriddenAdaptiveMs restrict the comparison
	// to the prefixes the controller actually overrode — the delta the
	// subsystem is responsible for.
	OverriddenGeoMs, OverriddenAdaptiveMs *measure.CDF
}

// AdaptiveStudy runs the controller, probing every tracked path once
// per simulated second, for adaptiveRunSec on a fresh clock, freezes its
// override set, and measures the through-VNS delay every vantage would
// see per tracked prefix under geo-only and adaptive exits. The
// environment's reflector is left override-free on return, so later
// studies see pure geography again.
func AdaptiveStudy(e *Env) *AdaptiveResult {
	tracks := e.AdaptiveTracks()
	sim := &netsim.Sim{}
	ctl := adaptive.NewController(adaptive.Config{
		Sim:   sim,
		Probe: e.AdaptiveProbe(),
		Sink:  e.RR,
	})
	for _, tr := range tracks {
		if err := ctl.Track(tr.Prefix, tr.Cands); err != nil {
			panic(err) // AdaptiveTracks only yields trackable prefixes
		}
	}
	ctl.Start()
	sim.Run(adaptiveRunSec)
	ctl.Stop()
	sim.RunAll()

	overridePoP := make(map[netip.Prefix]int)
	for _, o := range ctl.Status(sim.Now()).Overrides {
		overridePoP[o.Prefix] = o.PoP
	}

	res := &AdaptiveResult{Prefixes: len(tracks), Overridden: len(overridePoP)}
	var geoAll, adAll, geoOver, adOver []float64
	for _, code := range ContinentVantages {
		ingress := e.Net.PoP(code)
		for _, tr := range tracks {
			pi, _ := e.Topo.PrefixInfoFor(tr.Prefix)
			g, okG := e.DP.ThroughVNSRTT(ingress, e.Net.PoPByID(tr.GeoBest), pi)
			if !okG {
				continue
			}
			adPoP, overridden := overridePoP[tr.Prefix]
			if !overridden {
				adPoP = tr.GeoBest
			}
			a, okA := e.DP.ThroughVNSRTT(ingress, e.Net.PoPByID(adPoP), pi)
			if !okA {
				continue
			}
			geoAll = append(geoAll, g)
			adAll = append(adAll, a)
			if overridden {
				geoOver = append(geoOver, g)
				adOver = append(adOver, a)
			}
		}
	}
	res.GeoMs = measure.NewCDF(geoAll)
	res.AdaptiveMs = measure.NewCDF(adAll)
	res.OverriddenGeoMs = measure.NewCDF(geoOver)
	res.OverriddenAdaptiveMs = measure.NewCDF(adOver)

	// Leave the shared reflector the way we found it.
	for _, o := range e.RR.Policy().Overrides() {
		e.RR.ClearOverride(o.Prefix)
	}
	return res
}

// Render prints the geo-vs-adaptive delay comparison.
func (r *AdaptiveResult) Render() string {
	row := func(c *measure.CDF) string {
		if c.N() == 0 {
			return "-"
		}
		return fmt.Sprintf("p50=%.1f p90=%.1f p99=%.1f", c.Percentile(0.5), c.Percentile(0.9), c.Percentile(0.99))
	}
	tb := measure.NewTable("Measured-delay adaptive routing vs pure geography (through-VNS RTT, ms)",
		"Policy", "all tracked prefixes", "overridden prefixes only")
	tb.AddRow("geo only", row(r.GeoMs), row(r.OverriddenGeoMs))
	tb.AddRow("adaptive", row(r.AdaptiveMs), row(r.OverriddenAdaptiveMs))
	return tb.String() + fmt.Sprintf("tracked prefixes: %d, overridden: %d\n", r.Prefixes, r.Overridden)
}
