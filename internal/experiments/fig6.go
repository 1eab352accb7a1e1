package experiments

import (
	"fmt"
	"strings"

	"vns/internal/measure"
)

// Fig6Result holds the delay comparison: RTT through VNS (cold potato
// over dedicated links) minus RTT through the vantage PoP's upstreams,
// for one address per origin AS, from Singapore, Amsterdam and San Jose.
type Fig6Result struct {
	// PerPoP maps the vantage PoP code to the CDF of RTT differences in
	// milliseconds (negative means VNS is faster).
	PerPoP map[string]*measure.CDF
	// Targets is the number of probed origin ASes.
	Targets int
}

// fig6Vantages are the paper's three vantage PoPs.
var fig6Vantages = []string{"SIN", "AMS", "SJS"}

// Fig6DelayDifference probes one address per origin AS through VNS and
// through the local upstreams simultaneously (Figure 6).
func Fig6DelayDifference(e *Env) *Fig6Result {
	res := &Fig6Result{PerPoP: make(map[string]*measure.CDF)}
	diffs := map[string][]float64{}

	// One address per AS: the first prefix each AS originates.
	seen := map[uint16]bool{}
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		if seen[pi.Origin] {
			continue
		}
		seen[pi.Origin] = true
		res.Targets++

		egress := e.GeoEgressPoP(pi)
		if egress == nil {
			continue
		}
		for _, code := range fig6Vantages {
			pop := e.Net.PoP(code)
			vnsRTT, ok1 := e.DP.ThroughVNSRTT(pop, egress, pi)
			upRTT, ok2 := e.DP.ExternalRTTViaUpstream(pop, pi)
			if !ok1 || !ok2 {
				continue
			}
			diffs[code] = append(diffs[code], vnsRTT-upRTT)
		}
	}
	//vnslint:maprange map-to-map per-key CDF build; destination is a map, order cannot escape
	for code, xs := range diffs {
		res.PerPoP[code] = measure.NewCDF(xs)
	}
	return res
}

// Render prints the CDF rows of Figure 6.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	tb := measure.NewTable("Figure 6: CDF of RTT difference, VNS - upstreams (ms)",
		"Vantage", "<=-50", "<=0", "<=20", "<=50", "<=100", "median")
	for _, code := range fig6Vantages {
		cdf := r.PerPoP[code]
		if cdf == nil {
			continue
		}
		name := map[string]string{"SIN": "Singapore", "AMS": "Amsterdam", "SJS": "San Jose"}[code]
		tb.AddRow(name,
			measure.Pct(cdf.At(-50)),
			measure.Pct(cdf.At(0)),
			measure.Pct(cdf.At(20)),
			measure.Pct(cdf.At(50)),
			measure.Pct(cdf.At(100)),
			fmt.Sprintf("%+.1fms", cdf.Percentile(0.5)))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\norigin ASes probed: %d\n", r.Targets)
	return b.String()
}

// RenderPlot draws the per-vantage CDF curves.
func (r *Fig6Result) RenderPlot() string {
	p := &measure.AsciiPlot{
		Title:  "Figure 6: CDF of RTT difference, VNS - upstreams (ms)",
		XLabel: "RTT difference (ms)",
		Width:  72, Height: 14,
	}
	for _, code := range fig6Vantages {
		if cdf := r.PerPoP[code]; cdf != nil && cdf.N() > 0 {
			p.AddSeries(code, cdf.Points(72))
		}
	}
	return p.String()
}
