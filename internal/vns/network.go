// Package vns assembles the Video Network Service: eleven PoPs on four
// continents grouped into regional clusters, guaranteed-bandwidth L2
// links (regional meshes plus a few long-haul links), two egress routers
// per PoP, and BGP sessions to upstream transit providers and
// settlement-free peers drawn from the synthetic Internet.
//
// PoP numbering follows the paper's Figure 4: PoPs 3 and 5 are on the US
// east coast, PoP 7 is in Asia-Pacific, PoP 9 in Europe, and PoP 10 is
// London, the vantage point of the egress-selection analysis.
package vns

import (
	"fmt"
	"net/netip"
	"sync"

	"vns/internal/geo"
)

// ASN is the VNS autonomous system number (from the 2-octet private
// range, standing in for the deployment's public ASN).
const ASN uint16 = 65000

// RoutersPerPoP is the number of egress routers in each PoP; the paper
// reports over 20 routers across 11 PoPs.
const RoutersPerPoP = 2

// PoP is one point of presence.
type PoP struct {
	// ID is the 1-based paper-style PoP number.
	ID int
	// Code is the short site code used in Figure 11 (AMS, SJS, ...).
	Code string
	// Place is the PoP's city.
	Place geo.Place
	// Routers are the egress routers' BGP identifiers.
	Routers []netip.Addr
}

// Region returns the PoP's cluster region.
func (p *PoP) Region() geo.Region { return geo.PoPRegion(p.Place.Region) }

func (p *PoP) String() string { return fmt.Sprintf("PoP%d(%s)", p.ID, p.Code) }

// popSpec defines the deployment footprint. The cities are the ones the
// paper names (Figure 11 codes) plus Tokyo as the eleventh PoP. It is an
// array so its length sizes SelectGeo's per-PoP and per-router scratch.
var popSpec = [...]struct {
	id   int
	code string
	city string
}{
	{1, "OSL", "Oslo"},
	{2, "FRA", "Frankfurt"},
	{3, "ASH", "Ashburn"},
	{4, "SJS", "SanJose"},
	{5, "ATL", "Atlanta"},
	{6, "HK", "HongKong"},
	{7, "SIN", "Singapore"},
	{8, "SYD", "Sydney"},
	{9, "AMS", "Amsterdam"},
	{10, "LON", "London"},
	{11, "TOK", "Tokyo"},
}

// l2Spec lists the guaranteed-bandwidth L2 links: full meshes inside
// each regional cluster plus long-haul links whose termination points
// are chosen to avoid suboptimal internal routing. Singapore has the
// direct links to Australia, the USA and Europe the paper credits for
// its delay advantage.
var l2Spec = [][2]string{
	// EU cluster mesh: OSL FRA AMS LON.
	{"OSL", "FRA"}, {"OSL", "AMS"}, {"OSL", "LON"},
	{"FRA", "AMS"}, {"FRA", "LON"}, {"AMS", "LON"},
	// NA cluster mesh: ASH SJS ATL.
	{"ASH", "SJS"}, {"ASH", "ATL"}, {"SJS", "ATL"},
	// AP cluster mesh: HK SIN TOK.
	{"HK", "SIN"}, {"HK", "TOK"}, {"SIN", "TOK"},
	// Long-haul inter-cluster links.
	{"LON", "ASH"}, // transatlantic
	{"SJS", "TOK"}, // transpacific north
	{"SIN", "SJS"}, // Singapore-USA
	{"SIN", "AMS"}, // Singapore-Europe
	{"SIN", "SYD"}, // Singapore-Australia (OC cluster)
}

// Network is the assembled VNS.
type Network struct {
	PoPs []*PoP

	popByCode map[string]*PoP
	popByID   map[int]*PoP
	routerPoP map[netip.Addr]*PoP

	// mu guards the IGP state below: link failures (internal/health)
	// recompute it while forwarding-plane resolvers read it.
	mu sync.RWMutex
	// linkDown marks L2 links the control plane considers failed, keyed
	// by normalized (lower, higher) 0-based PoP index pair.
	linkDown map[[2]int]bool
	// links[i][j] is the one-way L2 propagation delay in ms between
	// PoPs i+1 and j+1, or +Inf when no direct link exists.
	igp [][]float64
	// nextHop[i][j] is the next PoP index on the shortest internal path.
	nextHop [][]int
}

// igpInf marks unreachable PoP pairs in the IGP matrix.
const igpInf = 1e18

// NewNetwork builds the eleven-PoP deployment.
func NewNetwork() *Network {
	n := &Network{
		popByCode: make(map[string]*PoP),
		popByID:   make(map[int]*PoP),
		routerPoP: make(map[netip.Addr]*PoP),
		linkDown:  make(map[[2]int]bool),
	}
	for _, s := range popSpec {
		p := &PoP{ID: s.id, Code: s.code, Place: geo.MustLookup(s.city)}
		for r := 1; r <= RoutersPerPoP; r++ {
			id := netip.AddrFrom4([4]byte{10, 0, byte(s.id), byte(r)})
			p.Routers = append(p.Routers, id)
			n.routerPoP[id] = p
		}
		n.PoPs = append(n.PoPs, p)
		n.popByCode[s.code] = p
		n.popByID[s.id] = p
	}
	n.computeIGP()
	return n
}

// PoP returns the PoP with the given Figure 11 code ("AMS").
func (n *Network) PoP(code string) *PoP {
	p, ok := n.popByCode[code]
	if !ok {
		panic("vns: unknown PoP code " + code)
	}
	return p
}

// PoPByID returns the PoP with the given paper number.
func (n *Network) PoPByID(id int) *PoP {
	p, ok := n.popByID[id]
	if !ok {
		panic(fmt.Sprintf("vns: unknown PoP id %d", id))
	}
	return p
}

// RouterPoP maps an egress router ID to its PoP.
func (n *Network) RouterPoP(router netip.Addr) (*PoP, bool) {
	p, ok := n.routerPoP[router]
	return p, ok
}

// PoPsInRegion returns PoPs in the given cluster region, in ID order.
func (n *Network) PoPsInRegion(r geo.Region) []*PoP {
	var out []*PoP
	for _, p := range n.PoPs {
		if p.Region() == r {
			out = append(out, p)
		}
	}
	return out
}

// HasL2Link reports whether a direct L2 link connects the two PoPs.
func (n *Network) HasL2Link(a, b *PoP) bool {
	for _, l := range l2Spec {
		if (l[0] == a.Code && l[1] == b.Code) || (l[0] == b.Code && l[1] == a.Code) {
			return true
		}
	}
	return false
}

// computeIGP runs all-pairs shortest paths (Floyd–Warshall; eleven
// nodes) over the up L2 links with one-way propagation delay as the
// metric. Callers must hold n.mu.
func (n *Network) computeIGP() {
	k := len(n.PoPs)
	dist := make([][]float64, k)
	next := make([][]int, k)
	for i := range dist {
		dist[i] = make([]float64, k)
		next[i] = make([]int, k)
		for j := range dist[i] {
			if i == j {
				dist[i][j] = 0
			} else {
				dist[i][j] = igpInf
			}
			next[i][j] = -1
		}
	}
	for _, l := range l2Spec {
		a, b := n.popByCode[l[0]], n.popByCode[l[1]]
		i, j := a.ID-1, b.ID-1
		if n.linkDown[linkKey(i, j)] {
			continue
		}
		d := geo.RTTMs(a.Place.Pos, b.Place.Pos) / 2 // one-way
		if d < dist[i][j] {
			dist[i][j], dist[j][i] = d, d
			next[i][j], next[j][i] = j, i
		}
	}
	for mid := 0; mid < k; mid++ {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if dist[i][mid]+dist[mid][j] < dist[i][j] {
					dist[i][j] = dist[i][mid] + dist[mid][j]
					next[i][j] = next[i][mid]
				}
			}
		}
	}
	n.igp = dist
	n.nextHop = next
}

// linkKey normalizes a 0-based PoP index pair.
func linkKey(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// SetL2LinkState marks a direct L2 link up or down in the control
// plane's view and recomputes the IGP. It reports whether the state
// actually changed. This is the routing-level half of a failure: the
// failover controller calls it after liveness detection, while the
// fault injector downs the corresponding data-plane links directly.
func (n *Network) SetL2LinkState(a, b *PoP, up bool) bool {
	if !n.HasL2Link(a, b) {
		panic(fmt.Sprintf("vns: no L2 link %s-%s", a.Code, b.Code))
	}
	key := linkKey(a.ID-1, b.ID-1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.linkDown[key] == !up {
		return false
	}
	if up {
		delete(n.linkDown, key)
	} else {
		n.linkDown[key] = true
	}
	n.computeIGP()
	return true
}

// L2LinkDown reports whether the control plane considers the direct
// link between two PoPs failed.
func (n *Network) L2LinkDown(a, b *PoP) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.linkDown[linkKey(a.ID-1, b.ID-1)]
}

// Reachable reports whether b can be reached from a over the up part of
// the L2 topology.
func (n *Network) Reachable(a, b *PoP) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.igp[a.ID-1][b.ID-1] < igpInf
}

// L2Links returns every direct L2 link as a PoP pair, in specification
// order (liveness monitoring runs one session per entry).
func (n *Network) L2Links() [][2]*PoP {
	out := make([][2]*PoP, 0, len(l2Spec))
	for _, l := range l2Spec {
		out = append(out, [2]*PoP{n.popByCode[l[0]], n.popByCode[l[1]]})
	}
	return out
}

// IGPMetricMs returns the one-way internal delay between two PoPs over
// the L2 topology; it is the IGP metric of the decision process. An
// unreachable pair (partition under failures) reports igpInf.
func (n *Network) IGPMetricMs(a, b *PoP) float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.igp[a.ID-1][b.ID-1]
}

// InternalPath returns the PoP sequence of the shortest internal path
// from a to b, inclusive of both endpoints, over the up L2 links. It
// returns nil when b is unreachable from a.
func (n *Network) InternalPath(a, b *PoP) []*PoP {
	if a == b {
		return []*PoP{a}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	i, j := a.ID-1, b.ID-1
	if n.nextHop[i][j] == -1 {
		return nil
	}
	path := []*PoP{a}
	for i != j {
		i = n.nextHop[i][j]
		path = append(path, n.PoPs[i])
	}
	return path
}
