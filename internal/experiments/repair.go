package experiments

import (
	"fmt"

	"vns/internal/geo"
	"vns/internal/loss"
	"vns/internal/measure"
	"vns/internal/media"
)

// The repair study quantifies the paper's §2 argument for building VNS
// at all: end-host counter-measures each fix one kind of loss. FEC
// repairs random loss but collapses under bursts; retransmission handles
// bursts but needs a short RTT (a relay near the user); only removing
// loss in the network handles everything. Residual loss percentages are
// compared across three loss regimes and three strategies.

// RepairRow is one (regime, strategy) cell.
type RepairRow struct {
	Regime   string
	Strategy string
	WirePct  float64 // loss before repair
	Residual float64 // loss after repair
	Overhead float64 // extra bandwidth fraction
}

// RepairResult is the full comparison matrix.
type RepairResult struct {
	Rows []RepairRow
}

// RepairStudy runs 1080p streams through three calibrated loss regimes
// under each repair strategy.
//
// Regimes:
//   - random: uniform 0.5% loss (a clean but lossy path)
//   - bursty: the same mean concentrated in ~10-packet bursts
//   - transit-AP: the Figure 9 AMS→AP transit path model
//
// Strategies: FEC (1 parity per 10), retransmission with a 200 ms
// playout deadline at the path's real RTT, and VNS (the overlay path's
// own loss process, no endpoint repair).
func RepairStudy(e *Env, streams int) *RepairResult {
	if streams <= 0 {
		streams = 50
	}
	trace := media.GenerateTrace(media.TraceConfig{
		Definition: media.Def1080p, DurationSec: 120, Seed: e.Cfg.Seed ^ 0xFEC,
	})
	rng := e.RNG.Fork(0xFEC)

	ams := e.Net.PoP("AMS")
	sin := e.Net.PoP("SIN")
	rttMs := e.DP.InternalRTTMs(ams, sin) * 1.4 // transit RTT AMS<->AP

	regimes := []struct {
		name string
		mk   func(id uint64) loss.Model
	}{
		{"random 0.5%", func(id uint64) loss.Model {
			return loss.NewUniform(0.005, rng.Fork(id))
		}},
		{"bursty 0.5%", func(id uint64) loss.Model {
			// GE with ~10-packet bursts at the same stationary mean.
			return loss.NewGilbertElliott(0.00056, 0.1, 0, 0.9, rng.Fork(id))
		}},
		{"transit AMS-AP", func(id uint64) loss.Model {
			return loss.Compose{
				videoTransitLegModel(geo.RegionEU, geo.RegionAP, rng.Fork(id*2)),
				videoTransitLegModel(geo.RegionAP, geo.RegionEU, rng.Fork(id*2+1)),
			}
		}},
	}

	res := &RepairResult{}
	for ri, regime := range regimes {
		var fecWire, fecResid, rtxResid float64
		for s := 0; s < streams; s++ {
			start := float64(s) * 1800
			fst := media.RunFEC(trace, media.FECScheme{Block: 10}, regime.mk(uint64(ri*10000+s*2)), start)
			fecWire += fst.WirePct()
			fecResid += fst.ResidualPct()
			rst := media.RunRetransmit(trace, regime.mk(uint64(ri*10000+s*2+1)), rttMs, 200, start)
			rtxResid += rst.ResidualPct()
		}
		n := float64(streams)
		res.Rows = append(res.Rows,
			RepairRow{regime.name, "fec 1/10", fecWire / n, fecResid / n, 0.1},
			RepairRow{regime.name, fmt.Sprintf("rtx %dms rtt", int(rttMs)), fecWire / n, rtxResid / n, 0.01},
		)
	}

	// VNS strategy: no endpoint repair, the overlay's own loss process.
	var vnsResid float64
	vnsModel := e.vnsPathModel(ams, sin, rng.Fork(0x7153))
	for s := 0; s < streams; s++ {
		st := media.FastRun(trace, vnsModel, float64(s)*1800, rttMs/2, 0, rng.Fork(uint64(0xA000+s)))
		vnsResid += st.LossPct()
	}
	res.Rows = append(res.Rows, RepairRow{
		Regime: "any (network fix)", Strategy: "vns overlay",
		WirePct: vnsResid / float64(streams), Residual: vnsResid / float64(streams),
	})
	return res
}

// Render prints the comparison.
func (r *RepairResult) Render() string {
	tb := measure.NewTable("Loss repair study: residual loss after each counter-measure",
		"Regime", "Strategy", "wire loss", "residual", "overhead")
	for _, row := range r.Rows {
		tb.AddRow(row.Regime, row.Strategy,
			fmt.Sprintf("%.3f%%", row.WirePct),
			fmt.Sprintf("%.3f%%", row.Residual),
			measure.Pct(row.Overhead))
	}
	return tb.String()
}
