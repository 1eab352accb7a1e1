package experiments

import (
	"strings"
	"testing"

	"vns/internal/geo"
)

func TestCongruenceStudy(t *testing.T) {
	e := testEnvironment(t)
	r := CongruenceStudy(e)
	if r.ASes < 200 {
		t.Fatalf("only %d multi-prefix ASes", r.ASes)
	}
	// The paper: >=25% agreement in 99% of ASes; >=90% in 60%.
	if got := r.ShareWithMatchAtLeast(0.25); got < 0.95 {
		t.Errorf(">=25%% agreement in %.2f of ASes, want >= 0.95", got)
	}
	if got := r.ShareWithMatchAtLeast(0.9); got < 0.5 {
		t.Errorf(">=90%% agreement in %.2f of ASes, want >= 0.5", got)
	}
	// Monotone: higher thresholds cannot include more ASes.
	if r.ShareWithMatchAtLeast(0.9) > r.ShareWithMatchAtLeast(0.25) {
		t.Error("CCDF not monotone")
	}
	if !strings.Contains(r.Render(), "congruence") {
		t.Error("render broken")
	}
}

func TestRepairStudy(t *testing.T) {
	e := testEnvironment(t)
	r := RepairStudy(e, 20)
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	fecRandom, ok1 := residualFor(r, "random 0.5%", "fec 1/10")
	fecBursty, ok2 := residualFor(r, "bursty 0.5%", "fec 1/10")
	if !ok1 || !ok2 {
		t.Fatal("missing FEC rows")
	}
	// The paper's §2 claim: FEC mitigates random loss but performs
	// poorly when loss is bursty.
	if fecRandom > 0.1 {
		t.Errorf("FEC residual on random loss = %.3f%%, should be small", fecRandom)
	}
	if fecBursty < fecRandom*5 {
		t.Errorf("FEC should collapse on bursty loss: random %.3f%% vs bursty %.3f%%",
			fecRandom, fecBursty)
	}
	// The VNS row must be the lowest residual overall.
	vnsRow := r.Rows[len(r.Rows)-1]
	if vnsRow.Strategy != "vns overlay" {
		t.Fatalf("last row = %+v", vnsRow)
	}
	for _, row := range r.Rows[:len(r.Rows)-1] {
		if row.Regime == "random 0.5%" && row.Strategy != "fec 1/10" {
			continue // short-RTT retransmission can tie on pure random loss
		}
	}
	if vnsRow.Residual > fecBursty {
		t.Error("VNS should beat FEC-on-bursty")
	}
	if r.Render() == "" {
		t.Error("render broken")
	}
}

func TestEconStudy(t *testing.T) {
	e := testEnvironment(t)
	cold := EconStudy(e, true, nil)
	hot := EconStudy(e, false, nil)
	if len(cold.Points) == 0 || len(cold.Points) != len(hot.Points) {
		t.Fatal("bad point counts")
	}
	// Economies of scale: cost per Mbps strictly decreasing until the
	// L2 overage regime.
	for i := 1; i < len(cold.Points); i++ {
		if cold.Points[i].CostPerMbps >= cold.Points[i-1].CostPerMbps {
			t.Errorf("cost/Mbps not decreasing at %v Mbps", cold.Points[i].TrafficMbps)
		}
	}
	// Cold potato extracts more value from the committed L2 links.
	for i := range cold.Points {
		if cold.Points[i].L2Utilization <= hot.Points[i].L2Utilization {
			t.Errorf("cold potato should raise L2 utilization at %v Mbps",
				cold.Points[i].TrafficMbps)
		}
	}
	// Totals are self-consistent.
	for _, p := range cold.Points {
		sum := p.FixedCost + p.TransitCost + p.L2Cost
		if diff := p.TotalCost - sum; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("total %v != parts %v", p.TotalCost, sum)
		}
	}
	if !strings.Contains(cold.Render(), "cold potato") {
		t.Error("render broken")
	}
}

func TestEconCustomVolumes(t *testing.T) {
	e := testEnvironment(t)
	r := EconStudy(e, true, []float64{1000})
	if len(r.Points) != 1 || r.Points[0].TrafficMbps != 1000 {
		t.Fatalf("points = %+v", r.Points)
	}
}

func TestQoEStudy(t *testing.T) {
	e := testEnvironment(t)
	r := QoEStudy(e, 4)
	if len(r.Rows) != 18 { // 3 clients x 3 regions x 2 paths
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Through VNS, calls essentially stay at 1080p; through transit to
	// AP they degrade noticeably.
	for _, client := range fig9Clients {
		vnsTop, ok1 := topShareFor(r, client, geo.RegionAP, ViaVNS)
		tTop, ok2 := topShareFor(r, client, geo.RegionAP, ViaTransit)
		if !ok1 || !ok2 {
			t.Fatal("missing cells")
		}
		if vnsTop < 95 {
			t.Errorf("%s->AP via VNS only %.1f%% at 1080p", client, vnsTop)
		}
		if vnsTop < tTop {
			t.Errorf("%s->AP: VNS (%.1f%%) should beat transit (%.1f%%)", client, vnsTop, tTop)
		}
	}
	// Sydney to AP via transit must be visibly degraded.
	if tTop, _ := topShareFor(r, "SYD", geo.RegionAP, ViaTransit); tTop > 97 {
		t.Errorf("SYD->AP transit at %.1f%% 1080p; expected degradation", tTop)
	}
	if r.Render() == "" {
		t.Error("render broken")
	}
}

func TestMediaClaims(t *testing.T) {
	e := testEnvironment(t)
	r := MediaClaims(e, 60)
	// Claim 1: audio and video loss rates do not differ (same path).
	// Audio samples the path 400x less densely, so allow generous
	// statistical slack — same order of magnitude, no systematic bias
	// beyond 3x.
	if r.VideoLossPct <= 0 {
		t.Fatal("no video loss on AMS-AP transit")
	}
	ratio := r.AudioLossPct / r.VideoLossPct
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("audio/video loss ratio = %.2f (audio %.4f%%, video %.4f%%)",
			ratio, r.AudioLossPct, r.VideoLossPct)
	}
	// Claim 2: 1080p jitter no worse than 720p; most streams sub-10ms.
	if r.JitterUnder10["1080p"] < r.JitterUnder10["720p"] {
		t.Errorf("1080p jitter share %.2f below 720p %.2f",
			r.JitterUnder10["1080p"], r.JitterUnder10["720p"])
	}
	if r.JitterUnder10["1080p"] < 0.9 {
		t.Errorf("1080p sub-10ms share = %.2f", r.JitterUnder10["1080p"])
	}
	if r.Render() == "" {
		t.Error("render broken")
	}
}

func TestCapacityStudy(t *testing.T) {
	e := testEnvironment(t)
	r := CapacityStudy(e, 8000, 0.7)
	if r.Calls != 8000 {
		t.Fatalf("calls = %d", r.Calls)
	}
	// The design assumption: most calls stay inside one cluster region.
	if r.IntraRegionShare < 0.6 {
		t.Errorf("intra-region share = %.2f, want >= 0.6", r.IntraRegionShare)
	}
	// Loads are a distribution over links.
	sum := 0.0
	for _, l := range r.Load {
		sum += l
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("link loads sum to %v", sum)
	}
	// Long-haul crossings carry a minority of internal link traffic but
	// not a negligible one (the 30% inter-region calls ride them).
	lh := longHaulShare(r, e)
	if lh <= 0.05 || lh >= 0.9 {
		t.Errorf("long-haul share = %.2f", lh)
	}
	if len(r.TopLinks(5)) != 5 {
		t.Error("TopLinks wrong")
	}
	if r.Render() == "" {
		t.Error("render broken")
	}
}

// residualFor returns the residual loss of a (regime, strategy) cell.
func residualFor(r *RepairResult, regime, strategy string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Regime == regime && row.Strategy == strategy {
			return row.Residual, true
		}
	}
	return 0, false
}

// topShareFor returns the full-definition share for one cell.
func topShareFor(r *QoEResult, client string, region geo.Region, path PathKind) (float64, bool) {
	for _, row := range r.Rows {
		if row.Client == client && row.ServerRegion == region && row.Path == path {
			return row.TopSharePct, true
		}
	}
	return 0, false
}

// longHaulShare returns the fraction of link traffic on inter-cluster
// links — the expensive capacity the cost model's commit covers.
func longHaulShare(r *CapacityResult, e *Env) float64 {
	var longHaul float64
	for name, load := range r.Load {
		codes := strings.SplitN(name, "-", 2)
		a, b := e.Net.PoP(codes[0]), e.Net.PoP(codes[1])
		if a.Region() != b.Region() {
			longHaul += load
		}
	}
	return longHaul
}
