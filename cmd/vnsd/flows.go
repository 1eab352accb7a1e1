package main

import (
	"fmt"
	"strings"

	"vns/internal/experiments"
	"vns/internal/flowsim"
	"vns/internal/geo"
	"vns/internal/relay"
)

// conferencePairs are the ingress/egress PoP pairs the demo flow
// population spans: a European regional pair with real multipath, the
// transatlantic trunk, the two transpacific geometries. Each pair
// becomes one flowsim group over the shared L2 fabric — the same links
// liveness monitors and the failover demo kills.
var conferencePairs = [][2]string{
	{"LON", "AMS"},
	{"LON", "ASH"},
	{"SIN", "SJS"},
	{"SJS", "TOK"},
}

// directDetourFactor models the public Internet's routing stretch over
// the great circle for the direct path alternative (paper §4: direct
// paths are rarely great-circle).
const directDetourFactor = 1.5

// setupFlows builds the aggregate flow engine over the deployment's
// fabric: n flows split across the conference pairs, overlay paths
// picked by relay.SelectPaths from the direct adjacency plus two-hop
// detours, and the direct-Internet alternative priced at the pair's
// great-circle delay times the detour factor.
func setupFlows(d *experiments.Deployment, n int, rate float64, offload bool) (*flowsim.Engine, error) {
	eng := flowsim.New(flowsim.Config{
		Sim:       d.Sim,
		Offload:   flowsim.OffloadConfig{Enabled: offload},
		Telemetry: d.Telemetry,
	})
	fabric := d.Fwd.Fabric()
	per := n / len(conferencePairs)
	for i, pr := range conferencePairs {
		a, b := d.Net.PoP(pr[0]), d.Net.PoP(pr[1])

		cands, links := fabric.OverlayPaths(a, b, 0)
		choices := relay.SelectPaths(cands, 2, 30)
		paths := make([]flowsim.PathSpec, 0, len(choices))
		for _, c := range choices {
			paths = append(paths, flowsim.PathSpec{
				Name:   cands[c.Index].Name,
				Links:  links[c.Index],
				Weight: c.Weight,
			})
		}

		direct := geo.DistanceKm(a.Place.Pos, b.Place.Pos) / geo.KmPerMsRTT / 2 * directDetourFactor
		gid, err := eng.AddGroup(flowsim.GroupConfig{
			Name:         pr[0] + "-" + pr[1],
			Paths:        paths,
			DirectMs:     direct,
			MaxReorderMs: 30,
		})
		if err != nil {
			return nil, err
		}
		cnt := per
		if i == 0 {
			cnt += n - per*len(conferencePairs) // remainder to the first pair
		}
		if err := eng.AddFlows(gid, cnt, rate, 0); err != nil {
			return nil, err
		}
	}
	eng.Start()
	return eng, nil
}

// renderFlows formats the engine's published snapshot for the /flows
// endpoint; the admin goroutine never touches exact engine state.
func renderFlows(feng *flowsim.Engine) string {
	tot, groups := feng.Published()
	return strings.Join(flowsim.StatusLines(tot, groups), "\n") + "\n"
}

// flowsStatusLine is the daemon's per-tick one-liner.
func flowsStatusLine(feng *flowsim.Engine) string {
	tot, _ := feng.Published()
	return fmt.Sprintf("flows: n=%d offloaded=%d (%.0f%%) sched=%d delivered=%d drops=%d reorder-wait=%.2fms transitions=%d",
		tot.Flows, tot.OffloadedFlows, 100*tot.OffloadFraction(), tot.Scheduled, tot.Delivered,
		tot.DropsLoss+tot.DropsQueue+tot.DropsAdmin+tot.DropsLate,
		tot.MeanReorderWaitMs(), tot.OffloadTransitions)
}
