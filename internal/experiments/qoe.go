package experiments

import (
	"fmt"

	"vns/internal/geo"
	"vns/internal/measure"
	"vns/internal/media"
)

// The QoE study connects the loss measurements to what users see: an
// adaptive sender (as the paper notes, real conferencing systems
// downgrade their rate under loss) runs hour-long calls over both paths,
// and the metric is the share of call time spent at full 1080p. This
// quantifies the introduction's motivation — that network quality, not
// codecs, is what keeps high-end conferencing from working.

// QoERow is one (client, server region, path) cell.
type QoERow struct {
	Client       string
	ServerRegion geo.Region
	Path         PathKind
	TopSharePct  float64 // % of call time at 1080p
	MeanMbps     float64
	Downgrades   float64 // average per call
}

// QoEResult is the comparison.
type QoEResult struct {
	Rows []QoERow
}

// QoEStudy runs hour-long adaptive calls between each Figure 9 client
// and echo region over both paths, at several times of day.
func QoEStudy(e *Env, callsPerPair int) *QoEResult {
	if callsPerPair <= 0 {
		callsPerPair = 8
	}
	rng := e.RNG.Fork(0x90E)
	res := &QoEResult{}
	pairID := uint64(0)
	for _, client := range fig9Clients {
		cpop := e.Net.PoP(client)
		for _, region := range []geo.Region{geo.RegionAP, geo.RegionEU, geo.RegionNA} {
			server := fig9Servers[region][0]
			spop := e.Net.PoP(server)
			for _, path := range []PathKind{ViaTransit, ViaVNS} {
				pairID++
				model := e.streamLossModel(cpop, spop, path, rng.Fork(pairID))
				var top, mbps, downs float64
				for call := 0; call < callsPerPair; call++ {
					start := float64(call) * 86400 / float64(callsPerPair)
					st := media.RunAdaptive(model, 3600, start)
					top += st.TopShare
					mbps += st.MeanBitrateBps / 1e6
					downs += float64(st.Downgrades)
				}
				n := float64(callsPerPair)
				res.Rows = append(res.Rows, QoERow{
					Client:       client,
					ServerRegion: region,
					Path:         path,
					TopSharePct:  top / n * 100,
					MeanMbps:     mbps / n,
					Downgrades:   downs / n,
				})
			}
		}
	}
	return res
}

// Render prints the comparison.
func (r *QoEResult) Render() string {
	tb := measure.NewTable("QoE study: adaptive 1-hour calls, share of time at full 1080p",
		"Client", "Region", "Path", "time@1080p", "mean Mbit/s", "downgrades/call")
	for _, row := range r.Rows {
		tb.AddRow(row.Client, row.ServerRegion.String(), row.Path.String(),
			fmt.Sprintf("%.1f%%", row.TopSharePct),
			fmt.Sprintf("%.2f", row.MeanMbps),
			fmt.Sprintf("%.1f", row.Downgrades))
	}
	return tb.String()
}
