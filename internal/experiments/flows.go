package experiments

import (
	"fmt"
	"strings"
	"time"

	"vns/internal/flowsim"
	"vns/internal/loss"
	"vns/internal/netsim"
)

// The flow study is the media-plane scale-out demonstration (ROADMAP
// item 3): the aggregate flow engine sustains a million concurrent
// conference flows on one virtual clock, with per-flow conservation
// checked exactly at the end, while its two controllers — multipath
// splitting with a receiver reorder buffer, and overlay/direct offload
// — run over a representative mix of path geometries. Per-packet
// simulation at this scale would need ~25M events per simulated second;
// the aggregate engine needs Shards+1.

// FlowsConfig sizes the study. Zero fields take the defaults shown.
type FlowsConfig struct {
	// Flows is the concurrent flow population (default 1,000,000).
	Flows int
	// DurSec is the simulated run length (default 60).
	DurSec float64
	// EpochSec is the aggregation interval (default 0.1).
	EpochSec float64
}

// The flow population (flow and soak studies): each flow sends 25
// packets/s, an audio+video conference leg at the 1200-byte media MTU,
// and the flow study spreads its epoch load over 64 shards.
const (
	flowRatePps = 25.0
	flowShards  = 64
)

func (c FlowsConfig) withDefaults() FlowsConfig {
	if c.Flows <= 0 {
		c.Flows = 1_000_000
	}
	if c.DurSec <= 0 {
		c.DurSec = 60
	}
	if c.EpochSec <= 0 {
		c.EpochSec = 0.1
	}
	return c
}

// FlowsGroupRow is one population's outcome.
type FlowsGroupRow struct {
	Name      string
	Flows     int
	Paths     int
	Mode      string // overlay | direct
	OverlayMs float64
	DirectMs  float64
	Scheduled uint64
	Delivered uint64
	Transits  uint64
}

// FlowsResult is the study's rendered outcome.
type FlowsResult struct {
	Cfg    FlowsConfig
	Totals flowsim.Totals
	Groups []FlowsGroupRow
	// ConservationErr is nil when every one of the million flows
	// balanced exactly.
	ConservationErr error
	// WallMs is the real time the simulated run took.
	WallMs float64
}

// flowsGroupTemplate mirrors the deployment's path geometries: an EU
// regional pair with a fast two-path split, a transpacific pair whose
// two routes are nearly equal, a transatlantic single path, a congested
// overlay the controller should abandon for the direct Internet, a
// lossy pair running duplication repair, and a population with no
// overlay presence at all.
type flowsGroupTemplate struct {
	name     string
	share    float64   // fraction of the population
	delays   []float64 // per-path one-way ms (prop; nil = direct-only)
	lossRate float64   // loss on the first path
	dup      float64
	directMs float64
	directLn float64 // direct path loss rate
}

var flowsTemplates = []flowsGroupTemplate{
	{name: "eu-multipath", share: 0.30, delays: []float64{7, 10}, directMs: 60},
	{name: "transpacific-split", share: 0.20, delays: []float64{73.2, 73.3}, directMs: 120},
	{name: "transatlantic", share: 0.20, delays: []float64{35}, directMs: 50},
	{name: "congested-overlay", share: 0.10, delays: []float64{90}, directMs: 45},
	{name: "lossy-repair", share: 0.10, delays: []float64{40, 42}, lossRate: 0.01, dup: 0.25, directMs: 80},
	{name: "direct-only", share: 0.10, directMs: 70, directLn: 0.005},
}

// addTemplateFlows spreads a population of n flows over flowsTemplates
// by share, at least one flow per template (the flow and soak studies).
func addTemplateFlows(eng *flowsim.Engine, n int) {
	for _, t := range flowsTemplates {
		cnt := max(int(float64(n)*t.share), 1)
		var paths []flowsim.PathSpec
		for pi, d := range t.delays {
			var lm loss.Model
			if pi == 0 && t.lossRate > 0 {
				lm = loss.NewUniform(t.lossRate, nil)
			}
			// Size each dedicated link for its share of the load with 30%
			// headroom, so queueing is visible but not the story.
			share := 1.0 / float64(len(t.delays))
			loadMbps := float64(cnt) * share * flowRatePps * 1200 * 8 / 1e6
			l := netsim.NewLink(t.name, d, loadMbps*1.3, lm, nil)
			l.QueueLimit = 1 << 20
			paths = append(paths, flowsim.PathSpec{
				Name:   fmt.Sprintf("%s/p%d", t.name, pi),
				Links:  []*netsim.Link{l},
				Weight: share,
			})
		}
		gid, err := eng.AddGroup(flowsim.GroupConfig{
			Name:           t.name,
			Paths:          paths,
			DirectMs:       t.directMs,
			DirectLossRate: t.directLn,
			MaxReorderMs:   30,
			DupFraction:    t.dup,
		})
		if err != nil {
			panic(err) // templates are static; a failure is a programming error
		}
		if err := eng.AddFlows(gid, cnt, flowRatePps, 0); err != nil {
			panic(err)
		}
	}
}

// FlowStudy runs the population to quiescence and checks conservation.
func FlowStudy(cfg FlowsConfig) *FlowsResult {
	cfg = cfg.withDefaults()
	sim := &netsim.Sim{}
	eng := flowsim.New(flowsim.Config{
		Sim:      sim,
		Shards:   flowShards,
		EpochSec: cfg.EpochSec,
		Offload:  flowsim.OffloadConfig{Enabled: true},
	})

	addTemplateFlows(eng, cfg.Flows)

	t0 := time.Now() //vnslint:wallclock measures real engine throughput, not simulated time
	eng.Start()
	sim.Run(cfg.DurSec)
	eng.Stop()
	sim.RunAll()
	wall := time.Since(t0) //vnslint:wallclock measures real engine throughput, not simulated time

	res := &FlowsResult{
		Cfg:             cfg,
		Totals:          eng.Totals(),
		ConservationErr: eng.CheckConservation(),
		WallMs:          float64(wall.Microseconds()) / 1000,
	}
	for _, g := range eng.Groups() {
		mode := "overlay"
		if g.Offloaded {
			mode = "direct"
		}
		res.Groups = append(res.Groups, FlowsGroupRow{
			Name:      g.Name,
			Flows:     g.Flows,
			Paths:     g.Paths,
			Mode:      mode,
			OverlayMs: g.OverlayMs,
			DirectMs:  g.DirectMs,
			Scheduled: g.Scheduled,
			Delivered: g.Delivered,
			Transits:  g.Transitions,
		})
	}
	return res
}

func (r *FlowsResult) Render() string {
	var b strings.Builder
	t := r.Totals
	fmt.Fprintf(&b, "Aggregate flow engine: %d flows x %.0f pps, %.0fs simulated (%d shards, %.2fs epoch, wall %.0fms)\n",
		t.Flows, flowRatePps, r.Cfg.DurSec, flowShards, r.Cfg.EpochSec, r.WallMs)
	fmt.Fprintf(&b, "  scheduled %d  delivered %d (%.4f%%)  direct %d\n",
		t.Scheduled, t.Delivered, 100*float64(t.Delivered)/float64(t.Scheduled), t.DirectDelivered)
	fmt.Fprintf(&b, "  drops: loss=%d queue=%d admin=%d late=%d\n",
		t.DropsLoss, t.DropsQueue, t.DropsAdmin, t.DropsLate)
	fmt.Fprintf(&b, "  duplication: sent=%d repaired=%d discarded=%d\n",
		t.DupSent, t.Repaired, t.DupDiscarded)
	fmt.Fprintf(&b, "  reorder buffer: mean wait %.3fms over %d multipath deliveries\n",
		t.MeanReorderWaitMs(), t.ReorderDelivered)
	fmt.Fprintf(&b, "  offload: %d/%d flows (%.0f%%) on the direct Internet, %d transitions\n",
		t.OffloadedFlows, t.Flows, 100*t.OffloadFraction(), t.OffloadTransitions)
	if r.ConservationErr != nil {
		fmt.Fprintf(&b, "  CONSERVATION BROKEN: %v\n", r.ConservationErr)
	} else {
		fmt.Fprintf(&b, "  conservation: every flow balanced exactly (delivered + attributed drops == scheduled)\n")
	}
	fmt.Fprintf(&b, "  %-20s %8s %5s %8s %10s %10s %12s %12s\n",
		"group", "flows", "paths", "mode", "overlayMs", "directMs", "delivered", "scheduled")
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "  %-20s %8d %5d %8s %10.1f %10.1f %12d %12d\n",
			g.Name, g.Flows, g.Paths, g.Mode, g.OverlayMs, g.DirectMs, g.Delivered, g.Scheduled)
	}
	return b.String()
}
