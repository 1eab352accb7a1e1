// Package vns's root benchmark harness regenerates every table and
// figure of the paper's evaluation (run with `go test -bench=. -benchmem`).
// Each benchmark reports, alongside timing, the headline metric of its
// figure so regressions in the reproduced *shape* are visible in bench
// output. EXPERIMENTS.md records the paper-vs-measured comparison.
package vns

import (
	"net/netip"
	"sync"
	"testing"

	"vns/internal/experiments"
	"vns/internal/geo"
	"vns/internal/health"
	"vns/internal/media"
	"vns/internal/topo"
	"vns/internal/vns"
)

// benchEnv is shared across benchmarks; building the world is itself
// measured by BenchmarkEnvironment.
var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.Config{NumAS: 2500})
	})
	return benchEnv
}

// BenchmarkEnvironment measures building the whole world: synthetic
// Internet, VNS deployment, GeoIP databases, reflector.
func BenchmarkEnvironment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.NewEnv(experiments.Config{Seed: uint64(i + 1), NumAS: 1000})
	}
}

// BenchmarkFig3GeoPrecision regenerates Figure 3 (both panels): the RTT
// displacement of geo-picked egresses vs the best egress, and the
// geolocation-error outlier clusters.
func BenchmarkFig3GeoPrecision(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3GeoPrecision(e)
	}
	b.ReportMetric(r.All.At(20)*100, "%within20ms")
	b.ReportMetric(float64(r.OutlierRU+r.OutlierIN), "outliers")
}

// BenchmarkFig4EgressSelection regenerates Figure 4: egress usage before
// and after geo-based routing from London.
func BenchmarkFig4EgressSelection(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4EgressSelection(e)
	}
	b.ReportMetric(r.LocalShareBefore(), "%localBefore")
	b.ReportMetric(r.LocalShareAfter(), "%localAfter")
}

// BenchmarkFig5NeighborSelection regenerates Figure 5: neighbor usage
// and the transit-share inset.
func BenchmarkFig5NeighborSelection(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig5NeighborSelection(e)
	}
	b.ReportMetric(r.TransitShareBefore, "%transitBefore")
	b.ReportMetric(r.TransitShareAfter, "%transitAfter")
}

// BenchmarkFig6DelayDifference regenerates Figure 6: RTT through VNS vs
// through the upstreams from Singapore, Amsterdam, San Jose.
func BenchmarkFig6DelayDifference(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6DelayDifference(e)
	}
	b.ReportMetric(r.PerPoP["SIN"].At(0)*100, "%SINbetter")
	b.ReportMetric(r.PerPoP["AMS"].At(50)*100, "%AMSwithin50")
}

// BenchmarkFig7IncomingTraffic regenerates Figure 7: the anycast
// incoming-traffic matrix over 60k authentication requests.
func BenchmarkFig7IncomingTraffic(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7IncomingTraffic(e, 60000)
	}
	b.ReportMetric(r.DiagonalShare()*100, "%geographic")
}

// BenchmarkFig9VideoLoss regenerates Figure 9: HD streams through VNS
// and transit between three clients and six echo servers.
func BenchmarkFig9VideoLoss(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9VideoLoss(e, experiments.Fig9Config{Days: 1, Definition: media.Def1080p})
	}
	b.ReportMetric(r.ExceedShare("AMS", geo.RegionAP, experiments.ViaTransit, 0.15)*100, "%T-AP>0.15")
	b.ReportMetric(r.ExceedShare("AMS", geo.RegionAP, experiments.ViaVNS, 0.15)*100, "%I-AP>0.15")
}

// BenchmarkFig10LossNature regenerates Figure 10: loss magnitude vs
// temporal spread, upstream vs VNS.
func BenchmarkFig10LossNature(b *testing.B) {
	e := sharedEnv(b)
	streams := experiments.Fig9VideoLoss(e, experiments.Fig9Config{Days: 1, Definition: media.Def1080p})
	b.ResetTimer()
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10LossNature(streams)
	}
	b.ReportMetric(float64(r.BurstOutliers+r.SustainedOutliers), "transitOutliers")
	b.ReportMetric(float64(r.VNSLossy), "vnsLossyStreams")
}

func benchLastMile(b *testing.B) *experiments.LastMileResult {
	b.Helper()
	e := sharedEnv(b)
	var r *experiments.LastMileResult
	for i := 0; i < b.N; i++ {
		r = experiments.LastMileStudy(e, experiments.LastMileConfig{Days: 1, HostsPerCell: 25})
	}
	return r
}

// BenchmarkFig11LastMileLoss regenerates Figure 11: average loss from
// ten vantage PoPs to hosts in AP, EU, NA.
func BenchmarkFig11LastMileLoss(b *testing.B) {
	r := benchLastMile(b)
	b.ReportMetric(r.AvgLossPct("AMS", geo.RegionAP), "AMS->AP%")
	b.ReportMetric(r.AvgLossPct("LON", geo.RegionEU), "LON->EU%")
	b.ReportMetric(r.AvgLossPct("AMS", geo.RegionEU), "AMS->EU%")
}

// BenchmarkTable1LastMileByType regenerates Table 1: loss from Amsterdam
// by destination region and AS type.
func BenchmarkTable1LastMileByType(b *testing.B) {
	r := benchLastMile(b)
	b.ReportMetric(r.TypeLossPct("AMS", geo.RegionAP, topo.CAHP), "AP-CAHP%")
	b.ReportMetric(r.TypeLossPct("AMS", geo.RegionAP, topo.LTP), "AP-LTP%")
}

// BenchmarkFig12Diurnal regenerates Figure 12: hourly loss-event
// profiles from San Jose per AS type and region.
func BenchmarkFig12Diurnal(b *testing.B) {
	r := benchLastMile(b)
	hours := r.HourlyLossEvents("SJS", geo.RegionEU, topo.CAHP)
	peak, night := 0, 0
	for h := 16; h < 24; h++ {
		peak += hours[h]
	}
	for h := 4; h < 12; h++ {
		night += hours[h]
	}
	b.ReportMetric(float64(peak), "EUeveningEvents")
	b.ReportMetric(float64(night), "EUnightEvents")
}

// BenchmarkAblationBestExternal quantifies the hidden-route problem the
// deployment fixes with BGP best-external.
func BenchmarkAblationBestExternal(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationBestExternal(e)
	}
	b.ReportMetric(r.Rows[0].OptimalShare*100, "%optimalWith")
	b.ReportMetric(r.Rows[1].OptimalShare*100, "%optimalWithout")
}

// BenchmarkAblationLocalPrefFunction compares the linear and stepped
// distance-to-LOCAL_PREF mappings.
func BenchmarkAblationLocalPrefFunction(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationLocalPref(e)
	}
	b.ReportMetric(r.Rows[0].OptimalShare*100, "%linear")
	b.ReportMetric(r.Rows[1].OptimalShare*100, "%stepped")
}

// BenchmarkAblationGeoDBError sweeps GeoIP database quality.
func BenchmarkAblationGeoDBError(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationGeoDBError(e)
	}
	b.ReportMetric(r.Rows[0].OptimalShare*100, "%truth")
	b.ReportMetric(r.Rows[2].OptimalShare*100, "%degraded")
}

// BenchmarkRepairStudy regenerates the loss-repair comparison (the §2
// argument: FEC fixes random loss, collapses on bursty loss).
func BenchmarkRepairStudy(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.RepairResult
	for i := 0; i < b.N; i++ {
		r = experiments.RepairStudy(e, 20)
	}
	for _, row := range r.Rows {
		if row.Strategy != "fec 1/10" {
			continue
		}
		switch row.Regime {
		case "random 0.5%":
			b.ReportMetric(row.Residual, "fecResidRandom%")
		case "bursty 0.5%":
			b.ReportMetric(row.Residual, "fecResidBursty%")
		}
	}
}

// BenchmarkQoEStudy regenerates the adaptive-rate user-experience
// comparison.
func BenchmarkQoEStudy(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.QoEResult
	for i := 0; i < b.N; i++ {
		r = experiments.QoEStudy(e, 4)
	}
	for _, row := range r.Rows {
		if row.Client != "SYD" || row.ServerRegion != geo.RegionAP {
			continue
		}
		switch row.Path {
		case experiments.ViaVNS:
			b.ReportMetric(row.TopSharePct, "%1080pVNS")
		case experiments.ViaTransit:
			b.ReportMetric(row.TopSharePct, "%1080pTransit")
		}
	}
}

// BenchmarkEconStudy regenerates the §6 cost analysis.
func BenchmarkEconStudy(b *testing.B) {
	e := sharedEnv(b)
	var cold *experiments.EconResult
	for i := 0; i < b.N; i++ {
		cold = experiments.EconStudy(e, true, nil)
	}
	last := cold.Points[len(cold.Points)-1]
	b.ReportMetric(last.CostPerMbps, "$/MbpsAtScale")
	b.ReportMetric(last.L2Utilization*100, "%L2util")
}

// BenchmarkAdaptiveStudy regenerates the measured-delay-vs-geography
// comparison: run the adaptive controller to convergence and measure
// the assigned-path delay on the prefixes it moved.
func BenchmarkAdaptiveStudy(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.AdaptiveResult
	for i := 0; i < b.N; i++ {
		r = experiments.AdaptiveStudy(e)
	}
	b.ReportMetric(float64(r.Overridden), "overridden")
	b.ReportMetric(r.OverriddenGeoMs.Percentile(0.5)-r.OverriddenAdaptiveMs.Percentile(0.5), "p50gainMs")
}

// BenchmarkCongruenceStudy regenerates the §4.1 prefix-congruence
// analysis that justifies one-address-per-prefix probing.
func BenchmarkCongruenceStudy(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.CongruenceResult
	for i := 0; i < b.N; i++ {
		r = experiments.CongruenceStudy(e)
	}
	b.ReportMetric(r.ShareWithMatchAtLeast(0.25)*100, "%ASes>=25")
	b.ReportMetric(r.ShareWithMatchAtLeast(0.9)*100, "%ASes>=90")
}

// BenchmarkMediaClaims regenerates the §5.1.1 audio-vs-video and
// definition-jitter comparison.
func BenchmarkMediaClaims(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.MediaClaimsResult
	for i := 0; i < b.N; i++ {
		r = experiments.MediaClaims(e, 60)
	}
	b.ReportMetric(r.AudioLossPct, "audioLoss%")
	b.ReportMetric(r.VideoLossPct, "videoLoss%")
}

// BenchmarkCapacityStudy regenerates the L2 capacity analysis behind the
// §3.1 topology design.
func BenchmarkCapacityStudy(b *testing.B) {
	e := sharedEnv(b)
	var r *experiments.CapacityResult
	for i := 0; i < b.N; i++ {
		r = experiments.CapacityStudy(e, 20000, 0.7)
	}
	b.ReportMetric(r.IntraRegionShare*100, "%intraRegion")
}

// BenchmarkForwardingLookup measures one compiled-FIB lookup on the
// London engine over the full environment's table — the per-packet
// data-plane cost.
func BenchmarkForwardingLookup(b *testing.B) {
	e := sharedEnv(b)
	fwd := e.Forwarding(vns.ForwardingConfig{})
	eng := fwd.Engine("LON")
	addrs := make([]netip.Addr, 0, len(e.Topo.Prefixes))
	for i := range e.Topo.Prefixes {
		addrs = append(addrs, e.Topo.Prefixes[i].Prefix.Addr())
	}
	b.ReportMetric(float64(eng.Stats().FIB.Prefixes), "prefixes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkForwardingRecompile measures the control-plane cost of a
// management override propagating into every PoP's compiled FIB: one
// ForceExit/Unforce pair, eleven incremental recompiles each.
func BenchmarkForwardingRecompile(b *testing.B) {
	e := sharedEnv(b)
	fwd := e.Forwarding(vns.ForwardingConfig{})
	eng := fwd.Engine("LON")
	var prefix netip.Prefix
	var alt netip.Addr
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		nh, ok := eng.Lookup(pi.Prefix.Addr())
		if !ok {
			continue
		}
		for _, c := range e.Peering.Candidates(pi.Origin) {
			if c.Session.PoP.ID != nh.PoP {
				prefix, alt = pi.Prefix, c.Session.Router
				break
			}
		}
		if prefix.IsValid() {
			break
		}
	}
	if !prefix.IsValid() {
		b.Fatal("no forceable prefix")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := e.RR.ForceExit(prefix, alt); err != nil {
				b.Fatal(err)
			}
		} else {
			e.RR.Unforce(prefix)
		}
	}
	b.StopTimer()
	e.RR.Unforce(prefix)
	b.ReportMetric(float64(eng.Stats().FIB.LastCompile)/1e6, "ms/compile")
}

// BenchmarkFailoverConvergence measures one full failover
// reconvergence through the health controller: IGP recompute, GeoRR
// egress withdrawal (or restoration), and a whole-universe invalidate
// plus flush across all eleven per-PoP FIB publishers. Iterations
// alternate failing and restoring SIN-SYD, so each one is a real
// topology change (the no-churn fast path never short-circuits it).
func BenchmarkFailoverConvergence(b *testing.B) {
	e := sharedEnv(b)
	fwd := e.Forwarding(vns.ForwardingConfig{})
	ctl := health.NewController(fwd, e.RR, nil)
	sin, syd := e.Net.PoP("SIN"), e.Net.PoP("SYD")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Apply(sin, syd, i%2 != 0)
	}
	b.StopTimer()
	// Leave the shared environment healthy for later benchmarks.
	ctl.Apply(sin, syd, true)
	b.ReportMetric(float64(fwd.Engine("LON").Stats().FIB.LastCompile)/1e6, "ms/fibCompile")
}

// BenchmarkForwardingLookupUnderChurn measures concurrent lookup
// throughput while the control plane continuously flips a forced exit —
// readers must stay wait-free across atomic table swaps.
func BenchmarkForwardingLookupUnderChurn(b *testing.B) {
	e := sharedEnv(b)
	fwd := e.Forwarding(vns.ForwardingConfig{})
	eng := fwd.Engine("LON")
	addrs := make([]netip.Addr, 0, len(e.Topo.Prefixes))
	for i := range e.Topo.Prefixes {
		addrs = append(addrs, e.Topo.Prefixes[i].Prefix.Addr())
	}
	var prefix netip.Prefix
	var alt netip.Addr
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		nh, ok := eng.Lookup(pi.Prefix.Addr())
		if !ok {
			continue
		}
		for _, c := range e.Peering.Candidates(pi.Origin) {
			if c.Session.PoP.ID != nh.PoP {
				prefix, alt = pi.Prefix, c.Session.Router
				break
			}
		}
		if prefix.IsValid() {
			break
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if i%2 == 0 {
					e.RR.ForceExit(prefix, alt)
				} else {
					e.RR.Unforce(prefix)
				}
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			eng.Lookup(addrs[i%len(addrs)])
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
	e.RR.Unforce(prefix)
}
