package topo

import "math"

// RouteClass classifies a route by the first link it takes from its
// holder, which is what Gao–Rexford export policy keys on.
type RouteClass uint8

const (
	// ClassCustomer: learned from a customer (most preferred, exportable
	// to everyone).
	ClassCustomer RouteClass = iota
	// ClassPeer: learned from a settlement-free peer (exportable only to
	// customers).
	ClassPeer
	// ClassProvider: learned from a transit provider (least preferred,
	// exportable only to customers).
	ClassProvider
	// ClassNone: no valley-free route exists.
	ClassNone
)

func (c RouteClass) String() string {
	switch c {
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	default:
		return "none"
	}
}

const infHops = math.MaxUint16

// Walk states of the valley-free BFS: customer-route going down;
// peer-route going down; provider-route still climbing; provider-route
// going down.
const (
	stCustDown = iota
	stPeerDown
	stProvUp
	stProvDown
	numStates
)

// RouteView holds, for a fixed source AS, the best valley-free route to
// every destination AS, per route class. Build it with RoutesFrom.
type RouteView struct {
	src  uint16
	topo *Topology
	// Per-class hop counts to each dense AS index; infHops = unreachable
	// in that class.
	cust, peer, prov []uint16
	index            map[uint16]int
	// parent[state][idx] encodes the BFS predecessor as state*n+idx,
	// or -1 at a first hop from the source; it backs PathTo.
	parent [][]int32
	// provState[idx] records which provider-walk state won prov[idx].
	provState []uint8
}

// RoutesFrom computes valley-free routes from src to every AS with a
// breadth-first search over the (AS, policy-state) product graph:
// valley-free paths have the shape up* peer? down*, and the class of the
// route at src is its first edge's type. Complexity O(V + E).
func (t *Topology) RoutesFrom(src uint16) *RouteView {
	n := len(t.asns)
	index := make(map[uint16]int, n)
	for i, asn := range t.asns {
		index[asn] = i
	}
	v := &RouteView{
		src:   src,
		topo:  t,
		cust:  filled(n, infHops),
		peer:  filled(n, infHops),
		prov:  filled(n, infHops),
		index: index,
	}

	dist := make([][]uint16, numStates)
	for i := range dist {
		dist[i] = filled(n, infHops)
	}
	parent := make([][]int32, numStates)
	for i := range parent {
		parent[i] = make([]int32, n)
		for j := range parent[i] {
			parent[i][j] = -2 // unvisited
		}
	}
	type node struct {
		state int
		idx   int
	}
	var queue []node
	push := func(state, idx int, d uint16, from int32) {
		if dist[state][idx] != infHops {
			return
		}
		dist[state][idx] = d
		parent[state][idx] = from
		queue = append(queue, node{state, idx})
	}
	enc := func(state, idx int) int32 { return int32(state*n + idx) }

	s := t.ASes[src]
	if s == nil {
		return v
	}
	for _, c := range s.Customers {
		push(stCustDown, index[c], 1, -1)
	}
	for _, p := range s.Peers {
		push(stPeerDown, index[p], 1, -1)
	}
	for _, p := range s.Providers {
		push(stProvUp, index[p], 1, -1)
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[cur.state][cur.idx] + 1
		from := enc(cur.state, cur.idx)
		a := t.ASes[t.asns[cur.idx]]
		switch cur.state {
		case stCustDown:
			for _, c := range a.Customers {
				push(stCustDown, index[c], d, from)
			}
		case stPeerDown:
			for _, c := range a.Customers {
				push(stPeerDown, index[c], d, from)
			}
		case stProvUp:
			for _, p := range a.Providers {
				push(stProvUp, index[p], d, from)
			}
			for _, p := range a.Peers {
				push(stProvDown, index[p], d, from)
			}
			for _, c := range a.Customers {
				push(stProvDown, index[c], d, from)
			}
		case stProvDown:
			for _, c := range a.Customers {
				push(stProvDown, index[c], d, from)
			}
		}
	}

	copy(v.cust, dist[stCustDown])
	copy(v.peer, dist[stPeerDown])
	v.provState = make([]uint8, n)
	for i := range v.prov {
		if dist[stProvUp][i] <= dist[stProvDown][i] {
			v.prov[i] = dist[stProvUp][i]
			v.provState[i] = stProvUp
		} else {
			v.prov[i] = dist[stProvDown][i]
			v.provState[i] = stProvDown
		}
	}
	v.parent = parent
	// The source reaches itself with an empty customer route.
	v.cust[index[src]] = 0
	return v
}

func filled(n int, v uint16) []uint16 {
	s := make([]uint16, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// Best returns the source's preferred route to dst under Gao–Rexford
// preference (customer > peer > provider, then fewest hops within the
// class). hops counts AS-level links; ok is false if unreachable.
func (v *RouteView) Best(dst uint16) (class RouteClass, hops int, ok bool) {
	i, found := v.index[dst]
	if !found {
		return ClassNone, 0, false
	}
	switch {
	case v.cust[i] != infHops:
		return ClassCustomer, int(v.cust[i]), true
	case v.peer[i] != infHops:
		return ClassPeer, int(v.peer[i]), true
	case v.prov[i] != infHops:
		return ClassProvider, int(v.prov[i]), true
	default:
		return ClassNone, 0, false
	}
}

// CustomerRoute returns the hop count of the source's customer route to
// dst, ok=false if dst is outside the source's customer cone.
func (v *RouteView) CustomerRoute(dst uint16) (hops int, ok bool) {
	i, found := v.index[dst]
	if !found || v.cust[i] == infHops {
		return 0, false
	}
	return int(v.cust[i]), true
}

// ExportToCustomer returns the route the source AS would advertise to a
// customer (such as VNS buying transit): its best route of any class.
func (v *RouteView) ExportToCustomer(dst uint16) (hops int, ok bool) {
	_, h, ok := v.Best(dst)
	return h, ok
}

// ExportToPeer returns the route the source AS would advertise to a
// settlement-free peer (such as VNS peering at an IXP): only customer
// routes and its own prefixes are exported.
func (v *RouteView) ExportToPeer(dst uint16) (hops int, ok bool) {
	return v.CustomerRoute(dst)
}

// InCustomerCone reports whether dst sits in the source's customer cone.
func (v *RouteView) InCustomerCone(dst uint16) bool {
	_, ok := v.CustomerRoute(dst)
	return ok
}

// CustomerConeSize returns the number of ASes in asn's customer cone
// (itself included): the networks it can deliver to over customer links
// alone, and hence what it can export to a settlement-free peer.
func (t *Topology) CustomerConeSize(asn uint16) int {
	a := t.ASes[asn]
	if a == nil {
		return 0
	}
	seen := map[uint16]bool{asn: true}
	queue := []uint16{asn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range t.ASes[cur].Customers {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return len(seen)
}

// PathTo reconstructs the AS-level path of the source's best route to
// dst, from the source's first hop to dst inclusive (empty for
// dst == src). ok is false when dst is unreachable.
func (v *RouteView) PathTo(dst uint16) (path []uint16, ok bool) {
	i, found := v.index[dst]
	if !found {
		return nil, false
	}
	if dst == v.src {
		return nil, true
	}
	n := len(v.topo.asns)
	var state int
	switch {
	case v.cust[i] != infHops:
		state = stCustDown
	case v.peer[i] != infHops:
		state = stPeerDown
	case v.prov[i] != infHops:
		state = int(v.provState[i])
	default:
		return nil, false
	}
	cur := int32(state*n + i)
	for cur >= 0 {
		s, idx := int(cur)/n, int(cur)%n
		path = append(path, v.topo.asns[idx])
		cur = v.parent[s][idx]
		if cur == -2 {
			return nil, false // inconsistent parents; unreachable state
		}
	}
	// Reverse into first-hop-first order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path, true
}
