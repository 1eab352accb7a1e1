package scenario

import (
	"fmt"
	"strings"

	"vns/internal/flowsim"
	"vns/internal/netsim"
	"vns/internal/relay"
	"vns/internal/vns"
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
		Sim:      e.sim,
		Shards:   f.Shards,
		EpochSec: f.EpochSec,
		Offload: flowsim.OffloadConfig{
			Enabled:        f.Offload,
			HalfLifeSec:    f.HalfLifeSec,
			OffloadBelowMs: f.OffloadBelowMs,
			ReclaimAboveMs: f.ReclaimAboveMs,
			DwellSec:       f.DwellSec,
			MinSamples:     f.MinSamples,
		},
		Telemetry: e.env.Telemetry,
	})
}

// overlayCandidates enumerates the ingress→egress overlay paths the
// fabric offers: the direct adjacency plus every two-hop detour through
// an intermediate PoP, each priced at its links' propagation sum plus
// the spec's fixed tail. Two hops is as deep as conferencing relays go
// in practice (and as deep as the reorder bound tolerates); longer
// walks only show up as ever-later candidates SelectPaths would reject.
func (e *engine) overlayCandidates(a, b *vns.PoP) (cands []relay.PathCandidate, links [][]*netsim.Link) {
	fabric := e.fwd.Fabric()
	add := func(name string, ls ...*netsim.Link) {
		total := e.spec.Flows.TailMs
		for _, l := range ls {
			total += l.PropDelayMs
		}
		cands = append(cands, relay.PathCandidate{Name: name, DelayMs: total})
		links = append(links, ls)
	}
	if l := fabric.Link(a, b); l != nil {
		add(a.Code+"-"+b.Code, l)
	}
	for _, m := range e.env.Net.PoPs {
		if m == a || m == b {
			continue
		}
		l1, l2 := fabric.Link(a, m), fabric.Link(m, b)
		if l1 != nil && l2 != nil {
			add(a.Code+"-"+m.Code+"-"+b.Code, l1, l2)
		}
	}
	return cands, links
}

// applyAggFlows handles the agg-flows op: build the group's overlay
// path set from the fabric, register the population, and write the
// trace line naming the paths the scheduler selected.
func (e *engine) applyAggFlows(ev *Event) error {
	f := e.spec.Flows
	codes := strings.Split(ev.Link, "-")
	a, b := e.env.Net.PoP(codes[0]), e.env.Net.PoP(codes[1])
	cands, links := e.overlayCandidates(a, b)

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
