package fib

import (
	"math"
	"net/netip"
	"testing"

	"vns/internal/netsim"
)

// oneLinkFabric returns the same single-link path for every PoP pair.
type oneLinkFabric struct{ link *netsim.Link }

func (f oneLinkFabric) Path(from, to int) *netsim.Path {
	if from == to {
		return nil
	}
	return netsim.NewPath(f.link)
}

// TestEngineForward drives packets through one engine: a routed packet
// arrives at the FIB-selected PoP one link delay later, a packet the
// fabric drops reports its hop, and an unroutable one is refused with
// neither callback run.
func TestEngineForward(t *testing.T) {
	link := netsim.NewLink("a-b", 10, 1000, nil, nil)
	want := NextHop{PoP: 2, Router: netip.MustParseAddr("10.0.2.1"), Neighbor: 1}
	routed := mustPrefix("203.0.113.0/24")
	pub := NewPublisher(Config{Resolve: func(p netip.Prefix) (NextHop, bool) {
		return want, p == routed
	}})
	pub.ResolveAll([]netip.Prefix{routed})
	eng := NewEngine(1, pub, oneLinkFabric{link})
	dst := netip.MustParseAddr("203.0.113.7")

	var sim netsim.Sim
	var got NextHop
	arrived := -1.0
	if _, ok := eng.Forward(&sim, dst, netsim.Packet{Size: 100},
		func(_ netsim.Packet, nh NextHop) { got, arrived = nh, sim.Now() },
		func(hop int) { t.Errorf("dropped at hop %d on a lossless link", hop) }); !ok {
		t.Fatal("no route for a resolvable destination")
	}
	sim.RunAll()
	if got != want {
		t.Errorf("delivered with next hop %+v, want %+v", got, want)
	}
	// 10 ms propagation plus 100 B of serialization at 1 Gbit/s.
	if math.Abs(arrived-0.010) > 0.001 {
		t.Errorf("arrived at %.4fs, want ~0.010", arrived)
	}

	link.SetAdminDown(true)
	droppedAt := -1
	eng.Forward(&sim, dst, netsim.Packet{Size: 100},
		func(netsim.Packet, NextHop) { t.Error("delivered over a down link") },
		func(hop int) { droppedAt = hop })
	sim.RunAll()
	if droppedAt != 0 {
		t.Errorf("drop hop = %d, want 0", droppedAt)
	}

	if _, ok := eng.Forward(&sim, netip.MustParseAddr("8.8.8.8"), netsim.Packet{},
		func(netsim.Packet, NextHop) { t.Error("unroutable packet delivered") },
		func(int) { t.Error("unroutable packet dropped in the fabric") }); ok {
		t.Error("route reported for an unroutable destination")
	}
	sim.RunAll()
	if st := eng.Stats(); st.Forwarded != 2 || st.Relayed != 2 || st.NoRoute != 1 {
		t.Errorf("stats = %+v, want 2 relayed and 1 no-route", st)
	}
}
