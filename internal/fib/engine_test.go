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
	eng := NewEngine(1, oneLinkFabric{link})
	eng.Publisher().Publish([]Entry{{Prefix: routed, NextHop: want}})
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

// TestEngineSeesEveryPublish pins the one published pointer per PoP: an
// Engine starts at its Publisher's empty generation-0 FIB, reads the
// initial full compile and every later delta and full publish, and
// stays on the same table across a publish that changes nothing.
func TestEngineSeesEveryPublish(t *testing.T) {
	sub := mustPrefix("10.1.0.0/16")
	routes := map[netip.Prefix]NextHop{mustPrefix("10.0.0.0/8"): nh(1)}
	e := NewEngine(1, nil)
	p := e.Publisher()
	if f := e.Current(); f.Generation() != 0 || f.Size() != 0 {
		t.Fatalf("engine starts at generation %d with %d prefixes, want an empty generation 0", f.Generation(), f.Size())
	}
	if first := p.Publish(decided(routes, mustPrefix("10.0.0.0/8"))); e.Current() != first {
		t.Fatalf("engine reads generation %d, want the published %d", e.Current().Generation(), first.Generation())
	}

	// More than deltaThreshold changed prefixes force a full compile.
	bulk := []netip.Prefix{sub}
	for i := 0; i <= deltaThreshold; i++ {
		bulk = append(bulk, netip.PrefixFrom(netip.AddrFrom4([4]byte{11, 0, byte(i), 0}), 24))
	}
	addr := netip.MustParseAddr("10.1.2.3")
	for _, step := range []struct {
		name    string
		do      func()
		publish bool
		pop     int
	}{
		{"delta", func() { routes[sub] = nh(2); p.Publish(decided(routes, sub)) }, true, 2},
		{"skipped", func() { p.Publish(decided(routes, sub)) }, false, 2},
		{"full", func() {
			routes[sub] = nh(3)
			for _, pfx := range bulk[1:] {
				routes[pfx] = nh(4)
			}
			p.Publish(decided(routes, bulk...))
		}, true, 3},
		{"delta-withdraw", func() { delete(routes, sub); p.Publish(decided(routes, sub)) }, true, 1},
	} {
		before := e.Current()
		step.do()
		got := e.Current()
		if published := got != before; published != step.publish {
			t.Errorf("%s: engine moved to a new FIB = %v, want %v", step.name, published, step.publish)
		}
		if s := p.Stats(); got.Generation() != s.Generation {
			t.Errorf("%s: engine reads generation %d, publisher is at %d", step.name, got.Generation(), s.Generation)
		}
		if h, ok := e.Lookup(addr); !ok || h.PoP != step.pop {
			t.Errorf("%s: Lookup(%v) = %v,%v, want pop%d", step.name, addr, h, ok, step.pop)
		}
	}
	if s := p.Stats(); s.Compiles != 2 || s.DeltaCompiles != 2 || s.SkippedCompiles != 1 {
		t.Errorf("compiles=%d deltas=%d skipped=%d, want 2, 2, 1", s.Compiles, s.DeltaCompiles, s.SkippedCompiles)
	}
}
