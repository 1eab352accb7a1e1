package experiments

import (
	"fmt"
	"strings"

	"vns/internal/geo"
	"vns/internal/measure"
)

// Fig3Result holds the geo-based routing precision experiment: the RTT
// penalty of picking the geographically closest egress PoP (per the
// GeoIP database) instead of the delay-closest one.
type Fig3Result struct {
	// PerRegion maps the PoP region the database reports a prefix
	// closest to (EU/NA/AP) to the CDF of the RTT difference.
	PerRegion map[geo.Region]*measure.CDF
	// All is the CDF over every measured prefix.
	All *measure.CDF
	// Scatter holds (best RTT, geo RTT) pairs, Figure 3's right panel.
	Scatter []measure.Point
	// OutlierRU / OutlierIN count scatter outliers caused by the two
	// documented geolocation error families.
	OutlierRU, OutlierIN int
	// ClusterRU / ClusterIN are the outlier clusters' centroids in the
	// scatter plane (best RTT, geo RTT) — the paper's clusters sit near
	// (100, 400) and (250, 500).
	ClusterRU, ClusterIN measure.Point
	// Probes is the number of prefixes measured.
	Probes int
}

// Fig3GeoPrecision probes every prefix from every PoP and compares the
// geo-picked egress RTT to the best achievable RTT (Figure 3).
func Fig3GeoPrecision(e *Env) *Fig3Result {
	res := &Fig3Result{PerRegion: make(map[geo.Region]*measure.CDF)}
	var all []float64
	perRegion := map[geo.Region][]float64{}

	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		geoPoP := e.GeoEgressPoP(pi)
		if geoPoP == nil {
			continue
		}
		rttGeo, ok := e.DP.ExternalRTT(geoPoP, pi)
		if !ok {
			continue
		}
		_, best := e.DelayBestPoP(pi)
		diff := rttGeo - best
		all = append(all, diff)
		res.Probes++

		// Group by the PoP region the database reports the prefix
		// closest to, as the paper's left panel does.
		rec, ok := e.DB.LookupPrefix(pi.Prefix)
		if ok {
			nearest := e.Net.PoPs[0]
			nd := geo.DistanceKm(rec.Pos, nearest.Place.Pos)
			for _, p := range e.Net.PoPs[1:] {
				if d := geo.DistanceKm(rec.Pos, p.Place.Pos); d < nd {
					nearest, nd = p, d
				}
			}
			region := nearest.Region()
			if region == geo.RegionOC {
				region = geo.RegionAP // the paper folds Sydney into AP
			}
			perRegion[region] = append(perRegion[region], diff)
		}

		res.Scatter = append(res.Scatter, measure.Point{X: best, Y: rttGeo})
		if rttGeo-best > 100 {
			switch pi.Country {
			case "RU":
				res.OutlierRU++
				res.ClusterRU.X += best
				res.ClusterRU.Y += rttGeo
			case "IN":
				res.OutlierIN++
				res.ClusterIN.X += best
				res.ClusterIN.Y += rttGeo
			}
		}
	}
	res.All = measure.NewCDF(all)
	//vnslint:maprange map-to-map per-key CDF build; destination is a map, order cannot escape
	for r, xs := range perRegion {
		res.PerRegion[r] = measure.NewCDF(xs)
	}
	if res.OutlierRU > 0 {
		res.ClusterRU.X /= float64(res.OutlierRU)
		res.ClusterRU.Y /= float64(res.OutlierRU)
	}
	if res.OutlierIN > 0 {
		res.ClusterIN.X /= float64(res.OutlierIN)
		res.ClusterIN.Y /= float64(res.OutlierIN)
	}
	return res
}

// Render prints the CDF rows of Figure 3's left panel plus the outlier
// cluster accounting of the right panel.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	tb := measure.NewTable(
		"Figure 3 (left): CDF of RTT difference (geo-based egress - best egress), ms",
		"Series", "<=0ms", "<=5ms", "<=10ms", "<=20ms", "<=50ms", "<=100ms")
	rows := []struct {
		name string
		cdf  *measure.CDF
	}{
		{"EU", r.PerRegion[geo.RegionEU]},
		{"NA", r.PerRegion[geo.RegionNA]},
		{"All", r.All},
		{"AP", r.PerRegion[geo.RegionAP]},
	}
	for _, row := range rows {
		if row.cdf == nil || row.cdf.N() == 0 {
			continue
		}
		tb.AddRow(row.name,
			measure.Pct(row.cdf.At(0.5)),
			measure.Pct(row.cdf.At(5)),
			measure.Pct(row.cdf.At(10)),
			measure.Pct(row.cdf.At(20)),
			measure.Pct(row.cdf.At(50)),
			measure.Pct(row.cdf.At(100)))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nprefixes measured: %d\n", r.Probes)
	fmt.Fprintf(&b, "Figure 3 (right): outliers >100ms displacement: RU-geolocation cluster=%d, IN-geolocation cluster=%d\n",
		r.OutlierRU, r.OutlierIN)
	if r.OutlierRU > 0 {
		fmt.Fprintf(&b, "  RU cluster centroid: (best=%.0fms, geo=%.0fms)  [paper: ~(100, 400)]\n",
			r.ClusterRU.X, r.ClusterRU.Y)
	}
	if r.OutlierIN > 0 {
		fmt.Fprintf(&b, "  IN cluster centroid: (best=%.0fms, geo=%.0fms)  [paper: ~(250, 500)]\n",
			r.ClusterIN.X, r.ClusterIN.Y)
	}
	return b.String()
}

// RenderPlot draws the left panel's CDF curves as an ASCII chart.
func (r *Fig3Result) RenderPlot() string {
	p := &measure.AsciiPlot{
		Title:  "Figure 3 (left): CDF of RTT difference (ms)",
		XLabel: "RTT difference (ms), clipped at 200",
		Width:  72, Height: 14,
	}
	clip := func(pts []measure.Point) []measure.Point {
		var out []measure.Point
		for _, pt := range pts {
			if pt.X <= 200 {
				out = append(out, pt)
			}
		}
		return out
	}
	for _, row := range []struct {
		name   string
		region geo.Region
	}{{"EU", geo.RegionEU}, {"NA", geo.RegionNA}, {"AP", geo.RegionAP}} {
		if cdf := r.PerRegion[row.region]; cdf != nil && cdf.N() > 0 {
			p.AddSeries(row.name, clip(cdf.Points(72)))
		}
	}
	p.AddSeries("All", clip(r.All.Points(72)))
	return p.String()
}
