package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"vns/internal/geo"
	"vns/internal/media"
	"vns/internal/topo"
	"vns/internal/vns"
)

// testEnv is shared across tests: building the world once keeps the
// suite fast without weakening any assertion (everything is read-only).
var (
	envOnce sync.Once
	env     *Env
)

func testEnvironment(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		env = NewEnv(Config{Seed: 42, NumAS: 1500})
	})
	return env
}

func TestEnvDeterminism(t *testing.T) {
	a := NewEnv(Config{Seed: 7, NumAS: 400})
	b := NewEnv(Config{Seed: 7, NumAS: 400})
	fa := Fig4EgressSelection(a)
	fb := Fig4EgressSelection(b)
	for i := range fa.Before {
		if fa.Before[i] != fb.Before[i] || fa.After[i] != fb.After[i] {
			t.Fatal("same seed produced different Figure 4 results")
		}
	}
}

func TestEnvDatabases(t *testing.T) {
	e := testEnvironment(t)
	if e.TruthDB.Len() != len(e.Topo.Prefixes) || e.DB.Len() != len(e.Topo.Prefixes) {
		t.Fatalf("database sizes %d/%d vs %d prefixes", e.TruthDB.Len(), e.DB.Len(), len(e.Topo.Prefixes))
	}
	// The corrupted database must differ from truth for a meaningful
	// share of prefixes but agree on rough location for most.
	moved, far := 0, 0
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		rec, ok := e.DB.LookupPrefix(pi.Prefix)
		if !ok {
			t.Fatalf("prefix %v missing from DB", pi.Prefix)
		}
		d := geo.DistanceKm(rec.Pos, pi.Loc)
		if d > 1 {
			moved++
		}
		if d > 1000 {
			far++
		}
	}
	if moved < len(e.Topo.Prefixes)/2 {
		t.Error("corruption barely changed the database")
	}
	if far == 0 {
		t.Error("no gross geolocation errors (RU/IN clusters missing)")
	}
	if far > len(e.Topo.Prefixes)/4 {
		t.Errorf("too many gross errors: %d", far)
	}
}

// TestDelayBestPoPTiesGoToLowestID pins the delay-best exit's tie rule:
// among PoPs whose immediate exits reach a prefix in equal RTT, the one
// with the lowest id. Moving every PoP to one place leaves only the
// exit's AS-path length between them, so ties are common.
func TestDelayBestPoPTiesGoToLowestID(t *testing.T) {
	e := NewEnv(Config{Seed: 1, NumAS: 120})
	for _, p := range e.Net.PoPs {
		p.Place = e.Net.PoPs[0].Place
	}
	ties := 0
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		var tied []*vns.PoP
		least := math.Inf(1)
		for _, p := range e.Net.PoPs {
			rtt, ok := e.DP.ExternalRTT(p, pi)
			switch {
			case !ok:
			case rtt < least:
				least, tied = rtt, []*vns.PoP{p}
			case rtt == least:
				tied = append(tied, p)
			}
		}
		if len(tied) < 2 {
			continue
		}
		ties++
		want := tied[0]
		for _, p := range tied[1:] {
			if p.ID < want.ID {
				want = p
			}
		}
		if got, rtt := e.DelayBestPoP(pi); got != want || rtt != least {
			t.Fatalf("%v: DelayBestPoP = %v at %.3f ms, want %s (lowest id of %d tied at %.3f ms)",
				pi.Prefix, got, rtt, want.Code, len(tied), least)
		}
	}
	if ties == 0 {
		t.Fatal("no prefix has tied exits; the test checks nothing")
	}
}

func TestFig3Shape(t *testing.T) {
	e := testEnvironment(t)
	r := Fig3GeoPrecision(e)
	if r.Probes < 1000 {
		t.Fatalf("only %d probes", r.Probes)
	}
	// Headline claim: across all regions, ~90% of prefixes are not
	// displaced by more than 20 ms.
	if got := r.All.At(20); got < 0.80 {
		t.Errorf("within 20ms = %.2f, want >= 0.80", got)
	}
	// Regional ordering: EU matches best, AP worst.
	eu, ap := r.PerRegion[geo.RegionEU], r.PerRegion[geo.RegionAP]
	if eu == nil || ap == nil {
		t.Fatal("missing regional CDFs")
	}
	if eu.At(10) <= ap.At(10) {
		t.Errorf("EU (%.2f) should match better than AP (%.2f) at 10ms", eu.At(10), ap.At(10))
	}
	// The two documented outlier clusters must exist.
	if r.OutlierRU == 0 {
		t.Error("Russian geolocation outlier cluster missing")
	}
	if r.OutlierIN == 0 {
		t.Error("Indian geolocation outlier cluster missing")
	}
	if !strings.Contains(r.Render(), "Figure 3") {
		t.Error("render broken")
	}
}

func TestFig4Shape(t *testing.T) {
	e := testEnvironment(t)
	r := Fig4EgressSelection(e)
	if r.Routes < 1000 {
		t.Fatalf("only %d routes", r.Routes)
	}
	// Hot potato keeps most traffic local at London; geo-routing spreads
	// it out.
	if r.LocalShareBefore() < 50 {
		t.Errorf("before local share = %.1f%%, want hot-potato dominance", r.LocalShareBefore())
	}
	if r.LocalShareAfter() >= r.LocalShareBefore() {
		t.Error("geo-routing should reduce London's local exits")
	}
	if r.Spread(5, true) <= r.Spread(5, false) {
		t.Errorf("geo-routing should spread egresses: before %d, after %d PoPs >= 5%%",
			r.Spread(5, false), r.Spread(5, true))
	}
	sumB, sumA := 0.0, 0.0
	for id := 1; id < len(r.Before); id++ {
		sumB += r.Before[id]
		sumA += r.After[id]
	}
	if sumB < 99.9 || sumB > 100.1 || sumA < 99.9 || sumA > 100.1 {
		t.Errorf("shares do not sum to 100%%: %.1f / %.1f", sumB, sumA)
	}
}

func TestFig5Shape(t *testing.T) {
	e := testEnvironment(t)
	r := Fig5NeighborSelection(e)
	// Transit share stays stable around 80%.
	if r.TransitShareBefore < 50 || r.TransitShareBefore > 95 {
		t.Errorf("transit share before = %.1f%%", r.TransitShareBefore)
	}
	diff := r.TransitShareAfter - r.TransitShareBefore
	if diff < -8 || diff > 8 {
		t.Errorf("geo-routing changed transit share by %.1f points, paper: no impact", diff)
	}
	// Upstreams (1..7) collectively dominate peers.
	up, peer := 0.0, 0.0
	for i := 1; i < len(r.After); i++ {
		if i <= 7 {
			up += r.After[i]
		} else {
			peer += r.After[i]
		}
	}
	if up <= peer {
		t.Errorf("upstreams %.1f%% should carry more than peers %.1f%%", up, peer)
	}
}

func TestFig6Shape(t *testing.T) {
	e := testEnvironment(t)
	r := Fig6DelayDifference(e)
	if r.Targets < 500 {
		t.Fatalf("only %d targets", r.Targets)
	}
	for _, pop := range fig6Vantages {
		if r.PerPoP[pop] == nil {
			t.Fatalf("no CDF for %s", pop)
		}
		// Cold potato does not stretch delay much: most destinations
		// within +50 ms (paper: 87-93%).
		if got := r.PerPoP[pop].At(50); got < 0.75 {
			t.Errorf("%s: within 50ms = %.2f, want >= 0.75", pop, got)
		}
	}
	// Singapore benefits most from the dedicated long-haul links.
	if r.PerPoP["SIN"].At(0) <= r.PerPoP["AMS"].At(0) {
		t.Errorf("SIN (%.2f) should beat AMS (%.2f)",
			r.PerPoP["SIN"].At(0), r.PerPoP["AMS"].At(0))
	}
}

func TestFig7Shape(t *testing.T) {
	e := testEnvironment(t)
	r := Fig7IncomingTraffic(e, 5000)
	if r.Requests != 5000 {
		t.Fatalf("requests = %d", r.Requests)
	}
	if got := r.DiagonalShare(); got < 0.7 {
		t.Errorf("diagonal share = %.2f, want >= 0.7 (traffic follows geography)", got)
	}
	// Every origin region's shares must sum to 1.
	for origin, row := range r.Share {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("origin %v shares sum to %v", origin, sum)
		}
	}
}

func videoResult(t *testing.T) *Fig9Result {
	t.Helper()
	e := testEnvironment(t)
	return Fig9VideoLoss(e, Fig9Config{Days: 1, SessionsPerDay: 24, Definition: media.Def1080p})
}

func TestFig9Shape(t *testing.T) {
	r := videoResult(t)
	if len(r.Streams) == 0 {
		t.Fatal("no streams")
	}
	// VNS consistently outperforms transit: for every client and
	// region, the share of bad streams via VNS must not exceed via
	// transit, and for AP destinations transit must actually be bad.
	for _, client := range fig9Clients {
		for _, region := range []geo.Region{geo.RegionAP, geo.RegionEU, geo.RegionNA} {
			tShare := r.ExceedShare(client, region, ViaTransit, 0.15)
			iShare := r.ExceedShare(client, region, ViaVNS, 0.15)
			if iShare > tShare+0.02 {
				t.Errorf("%s->%v: VNS bad-share %.3f exceeds transit %.3f", client, region, iShare, tShare)
			}
		}
	}
	if r.ExceedShare("SYD", geo.RegionAP, ViaTransit, 0.15) < 0.15 {
		t.Error("Sydney->AP transit should be notably lossy")
	}
	if r.ExceedShare("SYD", geo.RegionAP, ViaVNS, 0.15) > 0.02 {
		t.Error("Sydney->AP via VNS should be clean (dedicated link)")
	}
	// Jitter: overwhelmingly sub-10ms.
	if got := r.JitterUnderShare(10); got < 0.9 {
		t.Errorf("jitter under 10ms = %.2f", got)
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10LossNature(videoResult(t))
	if len(r.Upstream) == 0 || len(r.VNS) == 0 {
		t.Fatal("missing stream populations")
	}
	if r.Baseline == 0 {
		t.Error("no baseline random loss on transit")
	}
	if r.BurstOutliers+r.SustainedOutliers == 0 {
		t.Error("no bursty outliers on transit")
	}
	// VNS eliminates heavy loss.
	for _, p := range r.VNS {
		if p.Y > 1.0 {
			t.Errorf("VNS stream with %.2f%% loss", p.Y)
		}
	}
	if !strings.Contains(r.Render(), "Figure 10") {
		t.Error("render broken")
	}
}

func lastMile(t *testing.T) *LastMileResult {
	t.Helper()
	e := testEnvironment(t)
	return LastMileStudy(e, LastMileConfig{Days: 2, HostsPerCell: 12})
}

func TestFig11Shape(t *testing.T) {
	r := lastMile(t)
	// Distance effect: EU vantages see more loss to AP than AP vantages.
	apLocal := r.AvgLossPct("HK", geo.RegionAP)
	if got := r.AvgLossPct("AMS", geo.RegionAP); got <= apLocal {
		t.Errorf("AMS->AP (%.2f) should exceed HK->AP (%.2f)", got, apLocal)
	}
	// San Jose reaches AP like a local PoP.
	sjs := r.AvgLossPct("SJS", geo.RegionAP)
	if sjs > apLocal*1.3 {
		t.Errorf("SJS->AP (%.2f) should be close to AP-local (%.2f)", sjs, apLocal)
	}
	// London anomaly: ~2x the loss of other EU vantages to EU hosts.
	lon := r.AvgLossPct("LON", geo.RegionEU)
	ams := r.AvgLossPct("AMS", geo.RegionEU)
	if lon < ams*1.4 {
		t.Errorf("LON->EU (%.2f) should be well above AMS->EU (%.2f)", lon, ams)
	}
	// AP-to-EU far worse than EU-to-EU.
	if r.AvgLossPct("SIN", geo.RegionEU) < ams*1.5 {
		t.Error("AP->EU should be much worse than EU->EU")
	}
}

func TestTable1Shape(t *testing.T) {
	r := lastMile(t)
	// AP hierarchy: LTP < STP < CAHP, CAHP worst.
	ltp := r.TypeLossPct("AMS", geo.RegionAP, topo.LTP)
	stp := r.TypeLossPct("AMS", geo.RegionAP, topo.STP)
	cahp := r.TypeLossPct("AMS", geo.RegionAP, topo.CAHP)
	ec := r.TypeLossPct("AMS", geo.RegionAP, topo.EC)
	if !(ltp < stp && stp < cahp && ec < cahp && ltp < ec) {
		t.Errorf("AP hierarchy broken: LTP %.2f STP %.2f CAHP %.2f EC %.2f", ltp, stp, cahp, ec)
	}
	// EU: same general hierarchy with EC better than STP.
	if r.TypeLossPct("AMS", geo.RegionEU, topo.LTP) >= r.TypeLossPct("AMS", geo.RegionEU, topo.CAHP) {
		t.Error("EU: LTP should beat CAHP")
	}
	// NA: differences blurred — max/min within a factor 2.5.
	var naVals []float64
	for _, typ := range topo.ASTypes() {
		naVals = append(naVals, r.TypeLossPct("AMS", geo.RegionNA, typ))
	}
	minV, maxV := naVals[0], naVals[0]
	for _, v := range naVals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV > minV*2.5 {
		t.Errorf("NA types should be blurred, got spread %.2f-%.2f", minV, maxV)
	}
	// Distance masks type differences: from Sydney the AP hierarchy is
	// compressed relative to from Amsterdam.
	sydSpread := r.TypeLossPct("SYD", geo.RegionEU, topo.CAHP) / max1(r.TypeLossPct("SYD", geo.RegionEU, topo.LTP))
	amsSpread := r.TypeLossPct("AMS", geo.RegionEU, topo.CAHP) / max1(r.TypeLossPct("AMS", geo.RegionEU, topo.LTP))
	if sydSpread >= amsSpread {
		t.Errorf("transit should mask type differences: SYD spread %.1f vs AMS %.1f", sydSpread, amsSpread)
	}
}

func max1(v float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	return v
}

func TestFig12Diurnal(t *testing.T) {
	r := lastMile(t)
	// Loss to EU CAHPs from SJS peaks during EU evening hours.
	hours := r.HourlyLossEvents("SJS", geo.RegionEU, topo.CAHP)
	evening := hours[18] + hours[19] + hours[20] + hours[21]
	night := hours[4] + hours[5] + hours[6] + hours[7]
	if evening <= night {
		t.Errorf("EU diurnal pattern missing: evening %d vs night %d", evening, night)
	}
	// AP loss follows AP-local hours (02-15 CET), not the remote clock.
	ap := r.HourlyLossEvents("SJS", geo.RegionAP, topo.CAHP)
	apDay := ap[8] + ap[9] + ap[10] + ap[11]
	apNight := ap[18] + ap[19] + ap[20] + ap[21]
	if apDay <= apNight {
		t.Errorf("AP local-peak pattern missing: day %d vs night %d", apDay, apNight)
	}
	// Renders must produce all three artifacts.
	for _, s := range []string{r.RenderFig11(), r.RenderTable1(), r.RenderFig12()} {
		if len(s) == 0 {
			t.Error("empty render")
		}
	}
}

func TestAblationBestExternalShape(t *testing.T) {
	e := testEnvironment(t)
	r := AblationBestExternal(e)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	with, without := r.Rows[0], r.Rows[1]
	if with.OptimalShare <= without.OptimalShare {
		t.Errorf("best-external (%.2f) should beat hidden routes (%.2f)",
			with.OptimalShare, without.OptimalShare)
	}
	if with.P90DisplacementMs >= without.P90DisplacementMs {
		t.Error("best-external should cut displacement")
	}
}

func TestAblationLocalPrefShape(t *testing.T) {
	e := testEnvironment(t)
	r := AblationLocalPref(e)
	linear, step := r.Rows[0], r.Rows[1]
	if linear.OptimalShare < step.OptimalShare-0.02 {
		t.Errorf("linear mapping (%.2f) should be at least as precise as steps (%.2f)",
			linear.OptimalShare, step.OptimalShare)
	}
}

func TestAblationGeoDBErrorShape(t *testing.T) {
	e := testEnvironment(t)
	r := AblationGeoDBError(e)
	truth, commercial, degraded := r.Rows[0], r.Rows[1], r.Rows[2]
	if !(truth.OptimalShare >= commercial.OptimalShare && commercial.OptimalShare >= degraded.OptimalShare) {
		t.Errorf("precision should degrade with DB error: %.2f / %.2f / %.2f",
			truth.OptimalShare, commercial.OptimalShare, degraded.OptimalShare)
	}
	if r.Render() == "" {
		t.Error("render broken")
	}
}
