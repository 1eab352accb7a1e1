package scenario

import (
	"fmt"
	"strings"

	"vns/internal/flowsim"
	"vns/internal/relay"
)

// This file wires internal/flowsim into the scenario harness: agg-flows
// events launch aggregate flow populations over the same shared L2
// fabric links the invariant suite audits, with overlay paths picked
// from the topology by relay.SelectPaths and the offload controller
// comparing them against the event's direct-Internet alternative.

// setupFlows builds the spec's aggregate flow engine on the scenario's
// virtual clock. The engine registers its flowsim_* families on the
// scenario telemetry registry, so the declared ones land in the golden
// metric digest alongside everything else.
func (e *engine) setupFlows() {
	f := e.spec.Flows
	e.flowEng = flowsim.New(flowsim.Config{
		Sim:    e.Sim,
		Shards: f.Shards,
		Offload: flowsim.OffloadConfig{
			Enabled:     f.Offload,
			HalfLifeSec: f.HalfLifeSec,
			DwellSec:    f.DwellSec,
		},
		Telemetry: e.Telemetry,
	})
}

// applyAggFlows handles the agg-flows op: build the group's overlay
// path set from the fabric, register the population, and write the
// trace line naming the paths the scheduler selected.
func (e *engine) applyAggFlows(ev *Event) error {
	f := e.spec.Flows
	codes := strings.Split(ev.Link, "-")
	a, b := e.Net.PoP(codes[0]), e.Net.PoP(codes[1])
	cands, links := e.Fwd.Fabric().OverlayPaths(a, b, f.TailMs)

	k := f.MaxPaths
	if k <= 0 {
		k = 2
	}
	if k > flowsim.MaxPaths {
		k = flowsim.MaxPaths
	}
	skew := f.MaxSkewMs
	if skew <= 0 {
		skew = 30
	}
	choices := relay.SelectPaths(cands, k, skew)
	if len(choices) == 0 && ev.DirectMs <= 0 {
		return fmt.Errorf("agg-flows %s: no overlay path and no direct alternative", ev.Link)
	}

	paths := make([]flowsim.PathSpec, 0, len(choices))
	names := make([]string, 0, len(choices))
	for _, c := range choices {
		paths = append(paths, flowsim.PathSpec{
			Name:   cands[c.Index].Name,
			Links:  links[c.Index],
			TailMs: f.TailMs,
			Weight: c.Weight,
		})
		names = append(names, cands[c.Index].Name)
	}
	dup := f.DupFraction
	if len(paths) < 2 {
		dup = 0
	}

	name := fmt.Sprintf("%s/%d", ev.Link, e.aggSeq)
	e.aggSeq++
	gid, err := e.flowEng.AddGroup(flowsim.GroupConfig{
		Name:         name,
		Paths:        paths,
		DirectMs:     ev.DirectMs,
		MaxReorderMs: f.MaxReorderMs,
		DupFraction:  dup,
	})
	if err != nil {
		return err
	}
	if err := e.flowEng.AddFlows(gid, ev.Count, ev.RatePps, ev.DurSec); err != nil {
		return err
	}
	fmt.Fprintf(&e.trace, "t=%.3f agg-flows %s n=%d rate=%.0fpps dur=%.1fs direct=%.0fms paths=%s\n",
		ev.At, name, ev.Count, ev.RatePps, ev.DurSec, ev.DirectMs,
		orDash(strings.Join(names, ",")))
	return nil
}
