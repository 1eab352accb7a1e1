package experiments

import (
	"fmt"

	"vns/internal/core"
	"vns/internal/geoip"
	"vns/internal/measure"
	"vns/internal/topo"
	"vns/internal/vns"
)

// Ablations isolate the design choices DESIGN.md calls out: the BGP
// best-external mitigation for hidden routes, the shape of the
// distance→LOCAL_PREF function, and the sensitivity of geo-routing
// precision to GeoIP database error.

// AblationResult is a generic small table of named scalars.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// AblationRow is one variant's metrics.
type AblationRow struct {
	Variant string
	// OptimalShare is the fraction of prefixes whose selected egress is
	// the delay-optimal PoP (within 1 ms).
	OptimalShare float64
	// P90DisplacementMs is the 90th percentile RTT displacement.
	P90DisplacementMs float64
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	tb := measure.NewTable(r.Title, "Variant", "optimal egress", "P90 displacement")
	for _, row := range r.Rows {
		tb.AddRow(row.Variant, measure.Pct(row.OptimalShare),
			fmt.Sprintf("%.1fms", row.P90DisplacementMs))
	}
	return tb.String()
}

// precision measures an egress-selection policy (pick returns nil for
// an unreachable prefix) against the delay-optimal choice over all
// prefixes.
func precision(e *Env, pick func(*topo.PrefixInfo) *vns.PoP) AblationRow {
	var diffs []float64
	optimal := 0
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		pop := pick(pi)
		if pop == nil {
			continue
		}
		rtt, ok := e.DP.ExternalRTT(pop, pi)
		if !ok {
			continue
		}
		_, best := e.DelayBestPoP(pi)
		d := rtt - best
		diffs = append(diffs, d)
		if d <= 1 {
			optimal++
		}
	}
	cdf := measure.NewCDF(diffs)
	return AblationRow{
		OptimalShare:      float64(optimal) / float64(len(diffs)),
		P90DisplacementMs: cdf.Percentile(0.9),
	}
}

// geoPrecision is precision of geo routing under the given reflector.
func geoPrecision(e *Env, rr *core.GeoRR) AblationRow {
	return precision(e, func(pi *topo.PrefixInfo) *vns.PoP { return e.geoEgress(rr, pi) })
}

// AblationBestExternal compares geo-routing with best-external enabled
// (every border router keeps advertising its best external route, so the
// reflector sees all candidates) against the hidden-route regime where
// the first-learned route wins.
func AblationBestExternal(e *Env) *AblationResult {
	res := &AblationResult{Title: "Ablation: hidden routes vs BGP best-external"}

	withRow := geoPrecision(e, e.RR)
	withRow.Variant = "best-external (deployed)"
	res.Rows = append(res.Rows, withRow)

	withoutRow := precision(e, func(pi *topo.PrefixInfo) *vns.PoP {
		cands := e.Peering.Candidates(pi.Origin)
		best, ok := e.Peering.SelectFirstArrival(cands, pi.Prefix)
		if !ok {
			return nil
		}
		return best.Session.PoP
	})
	withoutRow.Variant = "hidden routes (no best-external)"
	res.Rows = append(res.Rows, withoutRow)
	return res
}

// AblationLocalPref compares the linear distance→LOCAL_PREF mapping with
// the coarse 500 km step mapping.
func AblationLocalPref(e *Env) *AblationResult {
	res := &AblationResult{Title: "Ablation: distance-to-LOCAL_PREF mapping"}
	for _, v := range []struct {
		name string
		fn   core.LocalPrefFunc
	}{
		{"linear (deployed)", core.LinearLocalPref},
		{"500km steps", core.StepLocalPref},
	} {
		row := geoPrecision(e, e.newReflector(core.Config{DB: e.DB, LocalPref: v.fn}))
		row.Variant = v.name
		res.Rows = append(res.Rows, row)
	}
	return res
}

// AblationGeoDBError sweeps GeoIP database quality: ground truth, the
// calibrated commercial-quality database, and a badly degraded one.
func AblationGeoDBError(e *Env) *AblationResult {
	res := &AblationResult{Title: "Ablation: GeoIP database error sensitivity"}

	variants := []struct {
		name string
		db   *geoip.DB
	}{
		{"ground truth", e.TruthDB},
		{"commercial quality (deployed)", e.DB},
		{"degraded (300km jitter, 20% collapse)", degradedDB(e)},
	}
	for _, v := range variants {
		row := geoPrecision(e, e.newReflector(core.Config{DB: v.db}))
		row.Variant = v.name
		res.Rows = append(res.Rows, row)
	}
	return res
}

// degradedDB is the commercial database's error model turned up: 300 km
// city jitter, 20% country collapse, half the records stale.
func degradedDB(e *Env) *geoip.DB {
	corr := geoip.NewCorruptor(e.RNG.Fork(0xBAD))
	corr.CityJitterKmSigma = 300
	corr.CountryCollapseRate = 0.2
	corr.StaleRate = 0.5
	return e.geoDB(corr)
}
