package experiments

import (
	"fmt"
	"math"

	"vns/internal/measure"
)

// The economics study implements the paper's §6 discussion and announced
// future work ("an in-depth analysis of VNS economics"). The cost
// structure the paper lays out:
//
//   - equipment: one-time, amortized over its life span;
//   - hosting / operations / settlement-free peering: fixed monthly;
//   - IP transit: per-Mbps with economies of scale;
//   - dedicated L2 links: 2-3x the regional transit Mbps price, with a
//     committed minimum paid regardless of use.
//
// The model computes the effective cost per Mbps as traffic grows, and
// how cold-potato routing (keeping traffic on the L2 links as long as
// possible) raises L2 utilization and with it the value extracted from
// the committed spend.

// The price book, at the values the paper's ranges imply.
const (
	// econEquipmentPerPoP is the amortized monthly equipment cost per
	// PoP.
	econEquipmentPerPoP = 1500
	// econFixedPerPoP is hosting+power+cooling+ops per PoP per month.
	econFixedPerPoP = 4000
	// econTransitPerMbps is the regional IP transit price at low volume
	// (the paper's "one USD per Mbps" Internet is the floor at scale).
	econTransitPerMbps = 4
	// econTransitScaleExp is the economies-of-scale exponent:
	// price_per_Mbps ∝ volume^(-exp).
	econTransitScaleExp = 0.25
	// econL2Multiplier is the L2 price premium over regional transit
	// (the paper: typically 2-3x).
	econL2Multiplier = 2.5
	// econL2CommitMbps is the committed minimum per L2 link.
	econL2CommitMbps = 200
)

// EconPoint is the cost breakdown at one traffic volume.
type EconPoint struct {
	TrafficMbps   float64
	FixedCost     float64
	TransitCost   float64
	L2Cost        float64
	TotalCost     float64
	CostPerMbps   float64
	L2Utilization float64 // average utilization of the committed volume
}

// EconResult is the cost curve.
type EconResult struct {
	ColdPotato bool
	Points     []EconPoint
	NumPoPs    int
	NumL2Links int
}

// EconStudy sweeps total customer traffic and computes the monthly cost
// structure, under hot-potato (traffic leaves at the ingress PoP, L2
// links carry only intra-overlay control and the few forced paths) or
// cold-potato (the geo policy carries traffic across the overlay to the
// destination's PoP, loading the committed L2 links).
func EconStudy(e *Env, coldPotato bool, volumesMbps []float64) *EconResult {
	if len(volumesMbps) == 0 {
		volumesMbps = []float64{50, 100, 200, 400, 800, 1600, 3200, 6400}
	}

	numPoPs := len(e.Net.PoPs)
	numL2 := 0
	for i, a := range e.Net.PoPs {
		for _, b := range e.Net.PoPs[i+1:] {
			if e.Net.HasL2Link(a, b) {
				numL2++
			}
		}
	}

	// The share of traffic that rides L2 links depends on the routing
	// policy: under cold potato, every inter-region stream crosses the
	// overlay; under hot potato only the (rare) deliberately relayed
	// calls do. Estimate the inter-region share from the anycast
	// catchments and call-locality: the paper notes most conferences are
	// intra-regional, so 30% of traffic is inter-region.
	const interRegionShare = 0.30
	l2Share := 0.05 // hot potato: almost everything exits locally
	if coldPotato {
		l2Share = interRegionShare
	}

	res := &EconResult{ColdPotato: coldPotato, NumPoPs: numPoPs, NumL2Links: numL2}
	fixed := float64(numPoPs) * (econEquipmentPerPoP + econFixedPerPoP)
	for _, v := range volumesMbps {
		// Transit price falls with volume (economies of scale).
		unitTransit := econTransitPerMbps * math.Pow(v/100, -econTransitScaleExp)
		if unitTransit < 0.5 {
			unitTransit = 0.5
		}
		transitCost := v * unitTransit

		// L2: pay the commit on every link regardless; overage beyond
		// the commit is billed at the L2 unit price.
		l2Traffic := v * l2Share
		commitTotal := econL2CommitMbps * float64(numL2)
		unitL2 := unitTransit * econL2Multiplier
		l2Cost := commitTotal * unitL2
		if l2Traffic > commitTotal {
			l2Cost += (l2Traffic - commitTotal) * unitL2 * 0.7 // overage discount
		}
		util := l2Traffic / commitTotal
		if util > 1 {
			util = 1
		}

		total := fixed + transitCost + l2Cost
		res.Points = append(res.Points, EconPoint{
			TrafficMbps:   v,
			FixedCost:     fixed,
			TransitCost:   transitCost,
			L2Cost:        l2Cost,
			TotalCost:     total,
			CostPerMbps:   total / v,
			L2Utilization: util,
		})
	}
	return res
}

// Render prints the cost curve.
func (r *EconResult) Render() string {
	policy := "hot potato"
	if r.ColdPotato {
		policy = "cold potato (deployed)"
	}
	tb := measure.NewTable(
		fmt.Sprintf("VNS economics (%s): monthly cost vs traffic, %d PoPs, %d L2 links",
			policy, r.NumPoPs, r.NumL2Links),
		"Mbps", "fixed", "transit", "L2", "total", "$/Mbps", "L2 util")
	for _, p := range r.Points {
		tb.AddRow(
			fmt.Sprintf("%.0f", p.TrafficMbps),
			fmt.Sprintf("%.0f", p.FixedCost),
			fmt.Sprintf("%.0f", p.TransitCost),
			fmt.Sprintf("%.0f", p.L2Cost),
			fmt.Sprintf("%.0f", p.TotalCost),
			fmt.Sprintf("%.2f", p.CostPerMbps),
			measure.Pct(p.L2Utilization))
	}
	return tb.String()
}
