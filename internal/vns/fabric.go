package vns

import (
	"sync"

	"vns/internal/geo"
	"vns/internal/loss"
	"vns/internal/netsim"
	"vns/internal/relay"
)

// L2Fabric is the deployment's physical internal fabric: exactly one
// simulated link per directed L2 adjacency, shared by every path that
// crosses it. Sharing is what makes failures meaningful — downing the
// LON→ASH link affects every flow and liveness session that traverses
// it.
//
// The fabric separates the two halves of a failure. SetAdmin downs the
// data-plane links themselves (fault injection: packets start dropping
// immediately). SetLinkState updates the control plane's view — the
// Network IGP — and invalidates composed paths, and is only called once
// liveness detection has noticed the fault (internal/health).
type L2Fabric struct {
	net *Network

	mu    sync.Mutex
	links map[[2]int]*netsim.Link // directed, keyed by 1-based PoP id pair
	order [][2]int                // deterministic iteration order
	paths map[[2]int]*netsim.Path
	// blackhole absorbs packets sent toward a PoP the IGP currently has
	// no path to (transient, between detection and FIB reconvergence).
	blackhole *netsim.Link
}

// The fabric's links: the overlay is well provisioned, so 1 Gbit/s
// leaves media traffic far from saturation; long-haul crossings carry
// residual cross-traffic jitter, intra-cluster links a tenth of it.
const (
	linkBandwidthMbps = 1000
	longHaulKm        = 7000
	longHaulJitterMs  = 0.5
)

// NewL2Fabric builds the shared, lossless links for every directed L2
// adjacency: one simulated link per direction, with propagation delay
// from great-circle geometry.
func NewL2Fabric(n *Network) *L2Fabric {
	f := &L2Fabric{
		net:   n,
		links: make(map[[2]int]*netsim.Link),
		paths: make(map[[2]int]*netsim.Path),
	}
	rng := loss.NewRNG(0xFAB21C)
	for i, l := range n.L2Links() {
		a, b := l[0], l[1]
		dist := geo.DistanceKm(a.Place.Pos, b.Place.Pos)
		for dir, ends := range [][2]*PoP{{a, b}, {b, a}} {
			from, to := ends[0], ends[1]
			jitter := longHaulJitterMs / 10
			if dist >= longHaulKm {
				jitter = longHaulJitterMs
			}
			link := netsim.NewLink(
				from.Code+"-"+to.Code,
				dist/geo.KmPerMsRTT/2,
				linkBandwidthMbps,
				nil,
				rng.Fork(uint64(2*i+dir)+1000),
			)
			link.JitterMsSigma = jitter
			key := [2]int{from.ID, to.ID}
			f.links[key] = link
			f.order = append(f.order, key)
		}
	}
	f.blackhole = netsim.NewLink("unreachable", 0, 0, nil, nil)
	f.blackhole.SetAdminDown(true)
	return f
}

// Network returns the topology the fabric is built over.
func (f *L2Fabric) Network() *Network { return f.net }

// Link returns the shared directed link between two adjacent PoPs, or
// nil when no direct L2 link exists.
func (f *L2Fabric) Link(from, to *PoP) *netsim.Link {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.links[[2]int{from.ID, to.ID}]
}

// OverlayPaths enumerates the ingress→egress overlay paths the fabric
// offers: the direct adjacency plus every two-hop detour through an
// intermediate PoP, each priced at its links' propagation sum plus a
// fixed tail. Two hops is as deep as conferencing relays go in practice
// (and as deep as the reorder bound tolerates); longer walks only show
// up as ever-later candidates relay.SelectPaths would reject.
func (f *L2Fabric) OverlayPaths(a, b *PoP, tailMs float64) (cands []relay.PathCandidate, links [][]*netsim.Link) {
	add := func(name string, ls ...*netsim.Link) {
		total := tailMs
		for _, l := range ls {
			total += l.PropDelayMs
		}
		cands = append(cands, relay.PathCandidate{Name: name, DelayMs: total})
		links = append(links, ls)
	}
	if l := f.Link(a, b); l != nil {
		add(a.Code+"-"+b.Code, l)
	}
	for _, m := range f.net.PoPs {
		if m == a || m == b {
			continue
		}
		l1, l2 := f.Link(a, m), f.Link(m, b)
		if l1 != nil && l2 != nil {
			add(a.Code+"-"+m.Code+"-"+b.Code, l1, l2)
		}
	}
	return cands, links
}

// Links returns every directed link in deterministic order, for stats
// sweeps and loss attribution.
func (f *L2Fabric) Links() []*netsim.Link {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*netsim.Link, 0, len(f.order))
	for _, key := range f.order {
		out = append(out, f.links[key])
	}
	return out
}

// Path implements fib.Fabric: the internal path between two PoPs,
// composed from the shared links along the current IGP shortest path
// and cached until the topology changes. A same-PoP path is nil; a pair
// the IGP cannot currently connect gets a blackhole path, so in-flight
// traffic drops (as DropsAdmin) instead of being misdelivered.
func (f *L2Fabric) Path(from, to int) *netsim.Path {
	if from == to {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := [2]int{from, to}
	if p, ok := f.paths[key]; ok {
		return p
	}
	pops := f.net.InternalPath(f.net.PoPByID(from), f.net.PoPByID(to))
	var p *netsim.Path
	if pops == nil {
		p = netsim.NewPath(f.blackhole)
	} else {
		links := make([]*netsim.Link, 0, len(pops)-1)
		for i := 1; i < len(pops); i++ {
			links = append(links, f.links[[2]int{pops[i-1].ID, pops[i].ID}])
		}
		p = netsim.NewPath(links...)
	}
	f.paths[key] = p
	return p
}

// InvalidatePaths drops every composed path, forcing recomposition
// against the current IGP on next use.
func (f *L2Fabric) InvalidatePaths() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.paths = make(map[[2]int]*netsim.Path)
}

// SetAdmin administratively downs (or restores) both directions of the
// data-plane link between two adjacent PoPs. This is the fault itself:
// the control plane learns about it only through liveness detection.
func (f *L2Fabric) SetAdmin(a, b *PoP, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[[2]int{a.ID, b.ID}].SetAdminDown(down)
	f.links[[2]int{b.ID, a.ID}].SetAdminDown(down)
}

// SetExtraDelayMs installs a delay spike on both directions of the link
// between two adjacent PoPs (0 clears it).
func (f *L2Fabric) SetExtraDelayMs(a, b *PoP, ms float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[[2]int{a.ID, b.ID}].SetExtraDelayMs(ms)
	f.links[[2]int{b.ID, a.ID}].SetExtraDelayMs(ms)
}

// SetLinkState is the control-plane reaction to a detected failure or
// recovery: update the Network's IGP view of the link and recompose
// paths. It reports whether the view changed.
func (f *L2Fabric) SetLinkState(a, b *PoP, up bool) bool {
	changed := f.net.SetL2LinkState(a, b, up)
	if changed {
		f.InvalidatePaths()
	}
	return changed
}
