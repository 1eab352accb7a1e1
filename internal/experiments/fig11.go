package experiments

import (
	"fmt"
	"strings"

	"vns/internal/geo"
	"vns/internal/loss"
	"vns/internal/measure"
	"vns/internal/probe"
	"vns/internal/topo"
)

// The last-mile study behind Figure 11 (loss vs geography), Table 1
// (loss by AS type from Amsterdam), and Figure 12 (diurnal patterns
// from San Jose).

// fig11Vantages is the paper's ten-PoP vantage list (3 NA, 4 EU, 3 AP).
var fig11Vantages = []string{"ATL", "ASH", "SJS", "AMS", "FRA", "LON", "OSL", "HK", "SIN", "SYD"}

// lastMileRegions are the three host regions studied.
var lastMileRegions = []geo.Region{geo.RegionAP, geo.RegionEU, geo.RegionNA}

// LastMileConfig scales the study.
type LastMileConfig struct {
	// Days of probing (paper: 21; default 3 preserves the hourly
	// structure at a fraction of the cost).
	Days int
	// HostsPerCell is hosts per (AS type, region) cell (paper: 50).
	HostsPerCell int
}

// The paper's probe schedule: a train of 100 back-to-back packets per
// host every 600 s.
const (
	lastMileIntervalSec     = 600
	lastMilePacketsPerRound = 100
)

func (c LastMileConfig) withDefaults() LastMileConfig {
	if c.Days == 0 {
		c.Days = 3
	}
	if c.HostsPerCell == 0 {
		c.HostsPerCell = 50
	}
	return c
}

// LastMileResult holds per-vantage, per-host measurements.
type LastMileResult struct {
	Vantages []string
	// Results[pop] holds one TargetResult per host, aligned across
	// vantages (same host index = same host).
	Results map[string][]probe.TargetResult
}

// lastMileHost describes one probed end host.
type lastMileHost struct {
	region geo.Region
	typ    topo.ASType
}

// LastMileStudy probes 600 end hosts (50 per AS type per region) from
// the ten vantage PoPs.
func LastMileStudy(e *Env, cfg LastMileConfig) *LastMileResult {
	cfg = cfg.withDefaults()
	rootRNG := e.RNG.Fork(0xF11)

	// Select hosts: the host population is defined by (region, type)
	// pairs; each host gets its own last-mile loss process. The
	// synthetic AS identity adds nothing beyond (region, type), so
	// hosts are synthesized directly from the cell definition.
	var hosts []lastMileHost
	for _, region := range lastMileRegions {
		for _, typ := range topo.ASTypes() {
			for i := 0; i < cfg.HostsPerCell; i++ {
				hosts = append(hosts, lastMileHost{region: region, typ: typ})
			}
		}
	}

	// Per-host last-mile processes are shared across vantages (it is
	// the same access link), while each (vantage, host) pair gets its
	// own transit leg.
	res := &LastMileResult{Vantages: fig11Vantages, Results: make(map[string][]probe.TargetResult)}
	for vi, code := range fig11Vantages {
		pop := e.Net.PoP(code)
		targets := make([]probe.Target, len(hosts))
		for hi, h := range hosts {
			hostRNG := rootRNG.Fork(uint64(hi) + 1)
			lastMile := lastMileModel(h.region, h.typ, hostRNG)
			transit := transitPathModel(code, pop.Region(), h.region,
				rootRNG.Fork(uint64(vi+1)*100000+uint64(hi)))
			targets[hi] = probe.Target{
				ID:     hi,
				Region: h.region,
				Type:   h.typ,
				Model:  loss.Compose{transit, lastMile},
			}
		}
		campaign := probe.Campaign{
			Targets:         targets,
			IntervalSec:     lastMileIntervalSec,
			PacketsPerRound: lastMilePacketsPerRound,
			DurationSec:     float64(cfg.Days) * 86400,
		}
		res.Results[code] = campaign.Run()
	}
	return res
}

// AvgLossPct returns the average loss from a vantage to hosts in a
// region, across all AS types (Figure 11's y-values).
func (r *LastMileResult) AvgLossPct(pop string, region geo.Region) float64 {
	var sum float64
	n := 0
	for _, tr := range r.Results[pop] {
		if tr.Target.Region == region {
			sum += tr.AvgLossPct()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TypeLossPct returns the average loss from a vantage to hosts of one
// AS type in one region (Table 1's cells, with pop = "AMS").
func (r *LastMileResult) TypeLossPct(pop string, region geo.Region, typ topo.ASType) float64 {
	var sum float64
	n := 0
	for _, tr := range r.Results[pop] {
		if tr.Target.Region == region && tr.Target.Type == typ {
			sum += tr.AvgLossPct()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// HourlyLossEvents returns, from a vantage, the per-hour count of lossy
// rounds toward hosts of the given type and region (Figure 12's series).
func (r *LastMileResult) HourlyLossEvents(pop string, region geo.Region, typ topo.ASType) [24]int {
	var out [24]int
	for _, tr := range r.Results[pop] {
		if tr.Target.Region != region || tr.Target.Type != typ {
			continue
		}
		for h, c := range tr.LossEventsByHour {
			out[h] += c
		}
	}
	return out
}

// RenderFig11 prints average loss per vantage and destination region.
func (r *LastMileResult) RenderFig11() string {
	tb := measure.NewTable("Figure 11: average last-mile loss %% per vantage PoP",
		"PoP", "to AP", "to EU", "to NA")
	for _, code := range r.Vantages {
		tb.AddRow(code,
			fmt.Sprintf("%.2f", r.AvgLossPct(code, geo.RegionAP)),
			fmt.Sprintf("%.2f", r.AvgLossPct(code, geo.RegionEU)),
			fmt.Sprintf("%.2f", r.AvgLossPct(code, geo.RegionNA)))
	}
	return tb.String()
}

// RenderTable1 prints the Amsterdam-vantage loss by AS type.
func (r *LastMileResult) RenderTable1() string {
	tb := measure.NewTable("Table 1: average loss %% from Amsterdam by destination region and AS type",
		"Region", "LTP", "STP", "CAHP", "EC")
	for _, region := range lastMileRegions {
		tb.AddRow(region.String(),
			fmt.Sprintf("%.2f%%", r.TypeLossPct("AMS", region, topo.LTP)),
			fmt.Sprintf("%.2f%%", r.TypeLossPct("AMS", region, topo.STP)),
			fmt.Sprintf("%.2f%%", r.TypeLossPct("AMS", region, topo.CAHP)),
			fmt.Sprintf("%.2f%%", r.TypeLossPct("AMS", region, topo.EC)))
	}
	return tb.String()
}

// RenderFig12 prints the diurnal loss-event profiles from San Jose.
func (r *LastMileResult) RenderFig12() string {
	var b strings.Builder
	for _, typ := range topo.ASTypes() {
		tb := measure.NewTable(
			fmt.Sprintf("Figure 12: hourly loss events, SJS to %vs (CET hours)", typ),
			"Region", "h0-3", "h4-7", "h8-11", "h12-15", "h16-19", "h20-23", "profile")
		for _, region := range lastMileRegions {
			hours := r.HourlyLossEvents("SJS", region, typ)
			var buckets [6]int
			profile := make([]float64, 24)
			for h, c := range hours {
				buckets[h/4] += c
				profile[h] = float64(c)
			}
			tb.AddRow(region.String(),
				fmt.Sprint(buckets[0]), fmt.Sprint(buckets[1]), fmt.Sprint(buckets[2]),
				fmt.Sprint(buckets[3]), fmt.Sprint(buckets[4]), fmt.Sprint(buckets[5]),
				measure.Sparkline(profile))
		}
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.String()
}
