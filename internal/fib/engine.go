package fib

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"vns/internal/netsim"
)

// Fabric supplies the internal L2 paths an Engine forwards over. The
// (from, from) path may be nil or empty: a local exit has no internal
// leg. Implementations should return the same *netsim.Path for the same
// pair so queueing state persists across packets of a flow
// (vns.Forwarding caches them).
type Fabric interface {
	Path(fromPoP, toPoP int) *netsim.Path
}

// Engine is one PoP's forwarding engine: it resolves destinations
// against the PoP's compiled FIB and drives packets hop by hop through
// the internal fabric to the egress PoP. It owns the PoP's published
// FIB pointer, which its publisher swaps, so a recompile mid-stream is
// picked up by the next packet — exactly the semantics of swapping a
// router's FIB under live traffic. A lookup writes nothing.
type Engine struct {
	// cur is the published FIB every lookup loads; only pub stores it.
	cur    atomic.Pointer[FIB]
	pop    int
	pub    *Publisher
	fabric Fabric

	forwarded  atomic.Uint64
	localExits atomic.Uint64
	relayed    atomic.Uint64
	noRoute    atomic.Uint64
}

// NewEngine builds the engine for the 1-based PoP id, with a Publisher
// that publishes into the engine's FIB pointer, and forwards over
// fabric. The engine starts at an empty generation-0 FIB.
func NewEngine(pop int, fabric Fabric) *Engine {
	e := &Engine{pop: pop, fabric: fabric}
	e.pub = &Publisher{eng: e}
	e.cur.Store(Compile(nil, 0))
	return e
}

// PoP returns the owning PoP's 1-based id.
func (e *Engine) PoP() int { return e.pop }

// Publisher returns the engine's FIB publisher (for stats and tests).
func (e *Engine) Publisher() *Publisher { return e.pub }

// Current returns the FIB lookups read now. The table is immutable, so
// an answer and the generation it came from can be taken from one load.
func (e *Engine) Current() *FIB { return e.cur.Load() }

// Lookup resolves dst against the PoP's current FIB without sending
// anything.
//
//vnslint:hotpath
func (e *Engine) Lookup(dst netip.Addr) (NextHop, bool) {
	return e.cur.Load().Lookup(dst)
}

// Forward resolves dst and, when a route exists, injects pkt into the
// internal fabric toward the egress PoP. deliver runs (in simulated
// time) when the packet reaches the egress with the next hop it should
// leave on; drop runs with the internal hop index if a fabric link
// loses the packet. The returned next hop is the routing decision;
// ok=false means the FIB has no route (the packet is not sent, and
// neither callback runs).
func (e *Engine) Forward(sim *netsim.Sim, dst netip.Addr, pkt netsim.Packet,
	deliver func(netsim.Packet, NextHop), drop func(hop int)) (NextHop, bool) {
	nh, ok := e.Lookup(dst)
	if !ok {
		e.noRoute.Add(1)
		return NextHop{}, false
	}
	e.forwarded.Add(1)
	if nh.PoP == e.pop {
		e.localExits.Add(1)
	} else {
		e.relayed.Add(1)
	}
	path := e.fabric.Path(e.pop, nh.PoP)
	if path == nil || len(path.Links) == 0 {
		// Local exit (or zero-length fabric path): hand off immediately.
		pkt.SentAt = sim.Now()
		if deliver != nil {
			deliver(pkt, nh)
		}
		return nh, true
	}
	path.Send(sim, pkt, func(p netsim.Packet) {
		if deliver != nil {
			deliver(p, nh)
		}
	}, drop)
	return nh, true
}

// EngineStats counts an engine's forwarding outcomes.
type EngineStats struct {
	// Forwarded is the number of packets with a route (local + relayed).
	Forwarded uint64
	// LocalExits left through the engine's own PoP; Relayed crossed the
	// internal fabric to another PoP first.
	LocalExits uint64
	Relayed    uint64
	// NoRoute is the number of packets that missed the FIB entirely.
	NoRoute uint64
	// FIB is the underlying publisher's state.
	FIB Stats
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Forwarded:  e.forwarded.Load(),
		LocalExits: e.localExits.Load(),
		Relayed:    e.relayed.Load(),
		NoRoute:    e.noRoute.Load(),
		FIB:        e.pub.Stats(),
	}
}

func (e *Engine) String() string {
	s := e.Stats()
	return fmt.Sprintf("engine pop%d: fib gen=%d size=%d fwd=%d local=%d relay=%d noroute=%d",
		e.pop, s.FIB.Generation, s.FIB.Prefixes, s.Forwarded, s.LocalExits, s.Relayed, s.NoRoute)
}
