package vns

import (
	"net/netip"
	"time"

	"vns/internal/core"
	"vns/internal/detsort"
	"vns/internal/fib"
	"vns/internal/media"
	"vns/internal/netsim"
	"vns/internal/telemetry"
)

// This file wires the compiled forwarding plane (internal/fib) into the
// VNS deployment: every PoP owns a FIB compiled from the GeoRR's
// post-policy route decisions, packets resolve their egress by
// longest-prefix match against it, and management overrides
// (force-exit, static more-specifics) flow into the data path through
// the reflector's change notifications.

// ForwardingConfig tunes the forwarding plane.
type ForwardingConfig struct {
	// Debounce batches a burst of control-plane changes into one FIB
	// recompile per PoP. Zero recompiles synchronously, which
	// deterministic tests want; daemons should set a few tens of
	// milliseconds.
	Debounce time.Duration
	// Telemetry, when non-nil, receives the forwarding-plane metric
	// families: per-PoP engine and FIB state through render-time
	// collectors, per-link fabric counters, media flow counters, and
	// the (volatile) compile-latency histogram.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records cross-layer decision and media-flow
	// spans (TraceRoute, ForwardStream).
	Tracer *telemetry.Tracer
	// ConvergenceClock, when non-nil, supplies timestamps for the
	// convergence span layer instead of the tracer's clock. Daemons pass
	// a wall-seconds adapter (and mark the latency families volatile) so
	// stage decompositions carry real durations; simulation harnesses
	// leave it nil and stay on the virtual clock, which keeps the
	// families deterministic and golden-pinnable.
	ConvergenceClock func() float64
}

// Forwarding is the deployment's forwarding plane: one fib.Publisher
// and fib.Engine per PoP, compiled from the GeoRR's post-policy routes,
// plus the shared L2 fabric the engines forward over. It implements
// fib.Fabric.
type Forwarding struct {
	Peering *Peering
	RR      *core.GeoRR

	pubs    map[int]*fib.Publisher // by 1-based PoP id
	engines map[int]*fib.Engine

	fabric *L2Fabric

	tracer *telemetry.Tracer
	// conv is the deployment's shared convergence span layer (nil
	// without telemetry): the reflector, failover controller, and
	// adaptive controller all borrow this instance, because event-ID
	// attribution is per-instance state.
	conv *telemetry.Convergence
	// Pre-resolved media flow counters (nil without telemetry).
	mediaStreams  *telemetry.Counter
	mediaSent     *telemetry.Counter
	mediaReceived *telemetry.Counter
	mediaLost     *telemetry.Counter
}

// NewForwarding compiles the initial per-PoP FIBs and subscribes to the
// reflector's change notifications, so later management overrides and
// re-advertisements trigger incremental recompiles.
func NewForwarding(pr *Peering, rr *core.GeoRR, cfg ForwardingConfig) *Forwarding {
	f := &Forwarding{
		Peering: pr,
		RR:      rr,
		pubs:    make(map[int]*fib.Publisher, len(pr.Net.PoPs)),
		engines: make(map[int]*fib.Engine, len(pr.Net.PoPs)),
		fabric:  NewL2Fabric(pr.Net),
		tracer:  cfg.Tracer,
	}
	var publishObs func(uint64, time.Duration)
	if cfg.Telemetry != nil {
		// The convergence span layer: each publish reports the event ID
		// its invalidation carried, closing the causal loop from
		// routing-plane event to FIB compile.
		f.conv = telemetry.NewConvergence(cfg.Telemetry, cfg.Tracer, cfg.ConvergenceClock)
		publishObs = CompileObserver(cfg.Telemetry, f.conv, cfg.ConvergenceClock != nil)
	}
	for _, p := range pr.Net.PoPs {
		vantage := p
		eng := fib.NewEngine(p.ID, fib.Config{
			Resolve:         func(pfx netip.Prefix) (fib.NextHop, bool) { return f.Resolve(vantage, pfx) },
			Debounce:        cfg.Debounce,
			PublishObserver: publishObs,
		}, f)
		f.engines[p.ID] = eng
		f.pubs[p.ID] = eng.Publisher()
	}
	if cfg.Telemetry != nil {
		f.registerTelemetry(cfg.Telemetry)
	}
	// Subscribe before the initial compile (the table download) so no
	// change can fall between them. The batch form hands each change
	// event's full prefix set to the publishers in one call, so a
	// multi-prefix UPDATE costs one flush (typically one delta publish)
	// per PoP instead of one per prefix.
	rr.OnChangeBatch(f.InvalidateBatch)
	u := f.universe()
	for _, p := range pr.Net.PoPs {
		f.pubs[p.ID].ResolveAll(u)
	}
	return f
}

// universe returns every prefix the forwarding plane should know: all
// originated prefixes plus statically advertised more-specifics.
func (f *Forwarding) universe() []netip.Prefix {
	statics := f.RR.Statics()
	out := make([]netip.Prefix, 0, len(f.Peering.Topo.Prefixes)+len(statics))
	for i := range f.Peering.Topo.Prefixes {
		out = append(out, f.Peering.Topo.Prefixes[i].Prefix)
	}
	for _, s := range statics {
		out = append(out, s.Prefix)
	}
	return out
}

// InvalidateBatch marks a set of prefixes dirty at every PoP in one
// call per publisher. It is the rr.OnChangeBatch callback: the whole
// batch lands in a publisher's dirty set before its flush runs, so a
// change event costs one publish — a copy-on-write delta when the
// batch is small — rather than one per prefix. PoPs are visited in id
// order so debounce timers arm in a reproducible sequence.
func (f *Forwarding) InvalidateBatch(prefixes []netip.Prefix) {
	// Stamp each publisher with the in-flight convergence event, so the
	// flushes this invalidation causes report their compiles back to it
	// (fib.Config.PublishObserver) — the event ID's rib→fib crossing.
	event := f.conv.ActiveID()
	for _, id := range detsort.Keys(f.pubs) {
		f.pubs[id].InvalidateEvent(event, prefixes...)
	}
}

// InvalidateAll marks the whole universe dirty at every PoP — the
// failover controller's reconvergence path after a link or PoP event or
// a drain. Unlike the initial compile it flows through the dirty-prefix
// machinery, so prefixes whose next hop is unaffected cost a resolve but
// no publish (the Publisher's no-spurious-churn fast path).
func (f *Forwarding) InvalidateAll() {
	u := f.universe()
	event := f.conv.ActiveID()
	for _, id := range detsort.Keys(f.pubs) {
		f.pubs[id].InvalidateEvent(event, u...)
	}
}

// Convergence returns the deployment's shared convergence span layer
// (nil without telemetry). The reflector, failover controller, and
// adaptive controller attach to this one instance so their events share
// the ID space the publishers attribute compiles against.
func (f *Forwarding) Convergence() *telemetry.Convergence { return f.conv }

// Flush forces every pending recompile now (useful with a non-zero
// debounce when a test or shutdown needs a consistent state).
func (f *Forwarding) Flush() {
	for _, id := range detsort.Keys(f.pubs) {
		f.pubs[id].Flush()
	}
}

// Resolve computes the control-plane decision for one prefix as seen
// from a vantage PoP: static more-specifics pin their configured
// egress (when usable); everything else is SelectGeo over the origin's
// candidate sessions, which also leaves out withdrawn egress routers and
// PoPs the vantage cannot reach. Publishers call it from their flushes
// (debounce-timer goroutines included), and it is the reference answer
// the compiled per-PoP FIBs are differentially tested against
// (internal/scenario's three-way agreement invariant).
func (f *Forwarding) Resolve(vantage *PoP, prefix netip.Prefix) (fib.NextHop, bool) {
	for _, s := range f.RR.Statics() {
		if s.Prefix == prefix {
			if p, ok := f.Peering.Net.RouterPoP(s.Egress); ok && f.usable(vantage, p, s.Egress) {
				return fib.NextHop{PoP: p.ID, Router: s.Egress}, true
			}
		}
	}
	pi, ok := f.Peering.Topo.PrefixInfoFor(prefix)
	if !ok {
		return fib.NextHop{}, false
	}
	best, ok := f.Peering.SelectGeo(f.RR, vantage, f.Peering.Candidates(pi.Origin), prefix)
	if !ok {
		return fib.NextHop{}, false
	}
	return fib.NextHop{
		PoP:      best.Session.PoP.ID,
		Router:   best.Session.Router,
		Neighbor: best.Session.Neighbor.Index,
	}, true
}

// usable reports whether a static's egress router at a PoP can
// currently carry traffic from the vantage: the reflector must not have
// marked the router down (liveness withdrawal) and the PoP must be
// IGP-reachable — the rule SelectGeo applies to candidate sessions.
func (f *Forwarding) usable(vantage, at *PoP, router netip.Addr) bool {
	return !f.RR.EgressDown(router) && f.Peering.Net.Reachable(vantage, at)
}

// Path implements fib.Fabric: the internal netsim path between two
// PoPs over the shared L2 fabric. Links are shared across flows and
// with the liveness sessions, so queueing state and failures are felt
// by everything that crosses them. A same-PoP path is nil.
func (f *Forwarding) Path(from, to int) *netsim.Path {
	return f.fabric.Path(from, to)
}

// Fabric returns the shared L2 fabric (fault injection and liveness
// monitoring hook into it).
func (f *Forwarding) Fabric() *L2Fabric { return f.fabric }

// Engine returns the forwarding engine of the PoP with the given
// Figure 11 code ("LON").
func (f *Forwarding) Engine(code string) *fib.Engine {
	return f.engines[f.Peering.Net.PoP(code).ID]
}

// EngineByID returns the forwarding engine of the PoP with the given
// paper number.
func (f *Forwarding) EngineByID(id int) *fib.Engine { return f.engines[id] }

// Engines returns all engines in PoP-id order.
func (f *Forwarding) Engines() []*fib.Engine {
	out := make([]*fib.Engine, 0, len(f.engines))
	for _, p := range f.Peering.Net.PoPs {
		out = append(out, f.engines[p.ID])
	}
	return out
}

// Congruence checks the compiled data plane against the control plane:
// for every originated prefix it compares the egress PoP the vantage
// engine's FIB selects with a fresh control-plane decision (SelectGeo
// plus management overrides). It returns the number of destinations
// where both agree and the number with a route on either side; the two
// should match for (nearly) all destinations whenever the FIB is
// caught up.
func (f *Forwarding) Congruence(vantage *PoP) (match, total int) {
	eng := f.engines[vantage.ID]
	for i := range f.Peering.Topo.Prefixes {
		pfx := f.Peering.Topo.Prefixes[i].Prefix
		nh, fibOK := eng.Lookup(pfx.Addr())
		want, cpOK := f.Resolve(vantage, pfx)
		if !fibOK && !cpOK {
			continue // unreachable on both sides: congruent, uncounted
		}
		total++
		if fibOK && cpOK && nh.PoP == want.PoP {
			match++
		}
	}
	if f.tracer != nil {
		// Each recheck leaves an instant span, so a convergence trace shows
		// when (and how completely) the data plane was re-verified against
		// the control plane after an event.
		f.tracer.Event(f.tracer.StartTrace(), "convergence", "congruence_check",
			telemetry.Int("pop", vantage.ID),
			telemetry.Int("match", match),
			telemetry.Int("total", total))
	}
	return match, total
}

// ForwardStream plays a media trace from an ingress PoP through the
// forwarding plane toward dst: every RTP packet is resolved against the
// ingress engine's current FIB and driven hop by hop across the
// internal fabric to its egress PoP. It returns the receiver-side
// stream stats and the packet count delivered per egress PoP id (under
// stable routing a single egress carries the whole stream; a recompile
// mid-stream shifts the remainder). The caller runs the simulator.
func (f *Forwarding) ForwardStream(sim *netsim.Sim, ingress *PoP, dst netip.Addr, tr *media.Trace) (*media.StreamStats, map[int]int) {
	eng := f.engines[ingress.ID]
	st := media.NewStreamStats(tr.Definition, tr.DurationSec)
	egress := make(map[int]int)
	start := sim.Now()
	flow := f.traceStreamStart(ingress, dst, len(tr.Packets))
	if f.mediaStreams != nil {
		f.mediaStreams.Inc()
	}
	for i, p := range tr.Packets {
		p := p
		seq := uint32(i)
		sim.Schedule(start+p.AtSec, func() {
			st.RecordSent(p.AtSec)
			if f.mediaSent != nil {
				f.mediaSent.Inc()
			}
			sentAt := sim.Now()
			_, ok := eng.Forward(sim, dst, netsim.Packet{Seq: seq, Size: p.Size},
				func(pkt netsim.Packet, nh fib.NextHop) {
					egress[nh.PoP]++
					st.RecordReceived(p.AtSec*1000, (sim.Now()-start)*1000)
					if f.mediaReceived != nil {
						f.mediaReceived.Inc()
					}
					// One span per delivered first packet keeps flow
					// traces bounded while still pinning the path taken.
					if flow != 0 && seq == 0 {
						f.tracer.Record(flow, "netsim", "deliver", sentAt, sim.Now(),
							telemetry.Int("egress_pop", nh.PoP))
					}
				},
				func(hop int) {
					st.RecordLost(p.AtSec)
					if f.mediaLost != nil {
						f.mediaLost.Inc()
					}
					if flow != 0 && seq == 0 {
						f.tracer.Record(flow, "netsim", "drop", sentAt, sim.Now(),
							telemetry.Int("hop", hop))
					}
				})
			if !ok {
				st.RecordLost(p.AtSec)
				if f.mediaLost != nil {
					f.mediaLost.Inc()
				}
				if flow != 0 && seq == 0 {
					f.tracer.Event(flow, "fib", "no_route")
				}
			}
		})
	}
	return st, egress
}

var _ fib.Fabric = (*Forwarding)(nil)
