package experiments

import (
	"fmt"
	"sort"

	"vns/internal/geo"
	"vns/internal/measure"
	"vns/internal/vns"
)

// The capacity study backs the paper's §3.1 topology rationale: "most
// videoconferences involve parties in the same geographical region which
// necessitates having dedicated intra-region connectivity", and
// inter-cluster link termination points are "chosen carefully to avoid
// having a sub-optimal routing inside VNS". The study synthesizes a call
// matrix from the anycast catchments, routes every call across the L2
// topology, and reports per-link load.

// CapacityResult is the per-link load distribution.
type CapacityResult struct {
	// Load maps "A-B" link names to their share of total carried
	// link-traffic (a call crossing two links contributes to both).
	Load map[string]float64
	// IntraRegionShare is the fraction of calls whose parties enter at
	// PoPs of the same cluster region.
	IntraRegionShare float64
	Calls            int
}

// CapacityStudy samples call pairs: both parties are random client ASes,
// with the configured probability the callee is drawn from the caller's
// region ("most conferences are intra-regional"). Each call rides the
// internal path between its entry PoPs.
func CapacityStudy(e *Env, calls int, intraRegionBias float64) *CapacityResult {
	if calls <= 0 {
		calls = 20000
	}
	if intraRegionBias == 0 {
		intraRegionBias = 0.7
	}
	rng := e.RNG.Fork(0xCA9)
	asns := e.Topo.ASNs()

	// Pre-bucket ASes by region for biased callee sampling.
	byRegion := map[geo.Region][]uint16{}
	for _, asn := range asns {
		a := e.Topo.AS(asn)
		byRegion[a.Region] = append(byRegion[a.Region], asn)
	}

	linkLoad := map[string]int{}
	totalLinkHits := 0
	intra := 0
	done := 0
	for done < calls {
		caller := asns[rng.Intn(len(asns))]
		callerAS := e.Topo.AS(caller)
		var callee uint16
		if rng.Bool(intraRegionBias) {
			pool := byRegion[callerAS.Region]
			callee = pool[rng.Intn(len(pool))]
		} else {
			callee = asns[rng.Intn(len(asns))]
		}
		in := e.Peering.EntryPoP(caller)
		out := e.Peering.EntryPoP(callee)
		if in == nil || out == nil {
			continue
		}
		done++
		if in.Region() == out.Region() {
			intra++
		}
		path := e.Net.InternalPath(in, out)
		for i := 1; i < len(path); i++ {
			name := linkName(path[i-1], path[i])
			linkLoad[name]++
			totalLinkHits++
		}
	}

	res := &CapacityResult{Load: make(map[string]float64), Calls: done}
	//vnslint:maprange map-to-map per-key ratio; destination is a map, order cannot escape
	for name, hits := range linkLoad {
		res.Load[name] = float64(hits) / float64(totalLinkHits)
	}
	res.IntraRegionShare = float64(intra) / float64(done)
	return res
}

func linkName(a, b *vns.PoP) string {
	if a.Code < b.Code {
		return a.Code + "-" + b.Code
	}
	return b.Code + "-" + a.Code
}

// TopLinks returns the n busiest links.
func (r *CapacityResult) TopLinks(n int) []string {
	type kv struct {
		name string
		load float64
	}
	var all []kv
	for name, load := range r.Load {
		all = append(all, kv{name, load})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].load != all[j].load {
			return all[i].load > all[j].load
		}
		return all[i].name < all[j].name
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].name
	}
	return out
}

// Render prints the busiest links and the headline shares.
func (r *CapacityResult) Render() string {
	tb := measure.NewTable("L2 capacity study: share of internal link traffic per link",
		"Link", "share")
	for _, name := range r.TopLinks(12) {
		tb.AddRow(name, measure.Pct(r.Load[name]))
	}
	return tb.String() + fmt.Sprintf(
		"calls=%d, intra-region calls=%s (the design assumption behind regional L2 meshes)\n",
		r.Calls, measure.Pct(r.IntraRegionShare))
}
