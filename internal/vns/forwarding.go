package vns

import (
	"net/netip"
	"slices"
	"sync"
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
	// Debounce batches a burst of control-plane changes into one resolve
	// pass: the pass runs that long after the first invalidation since
	// the last pass, on one timer for the whole forwarding plane. Zero
	// runs the pass inside each invalidation, which deterministic tests
	// want; daemons should set a few tens of milliseconds. Either way a
	// pass resolves and publishes the same batch the same way.
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
//
// Its unit of work is the resolve pass: the initial download, one
// InvalidateBatch or InvalidateAll without a debounce, or one debounced
// flush. A pass loads the reflector's policy once and reads from it
// each dirty prefix's vantage-independent facts once — the statics
// pinned to it, the origin's candidate sessions, each distinct
// candidate router's liveness and Assign, and the attribute tier those
// decide — and then every PoP, in id order, reads its IGP row once,
// decides every prefix from those shared facts and hands the decisions
// to its fib.Publisher. Nothing read in a pass outlives it.
type Forwarding struct {
	Peering *Peering
	RR      *core.GeoRR

	engines []*fib.Engine // by PoP id−1, the order a pass publishes in

	fabric *L2Fabric

	debounce time.Duration

	// mu guards the dirty set, the pending event and the timer, and
	// serializes passes, which makes each fib.Publisher single-writer.
	mu    sync.Mutex
	dirty map[netip.Prefix]struct{} // nil from a pass until the next invalidation
	// pendingEvent is the convergence event the next pass is attributed
	// to: the latest nonzero event ID any invalidation carried since the
	// last pass.
	pendingEvent uint64
	timer        *time.Timer

	tracer   *telemetry.Tracer
	compiles *CompileRecorder // records each publish; nil without telemetry
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

// staticFact is a static more-specific as a pass reads it: the pinned
// router, its PoP (nil for an unknown router) and whether liveness has
// withdrawn it.
type staticFact struct {
	router netip.Addr
	pop    *PoP
	down   bool
}

// prefixFacts is everything a prefix's decision reads that is the same
// at every vantage.
type prefixFacts struct {
	statics []staticFact // the statics for this prefix, in installation order
	cands   []Candidate  // the origin's candidate sessions
	prefs   routerPrefs  // each distinct candidate router's preference
	// tier is the attribute tier (appendTier): the indexes of the
	// in-service candidates tied for best on the decision steps a
	// route's own attributes decide (rib.CompareAttrs). Every other
	// candidate loses to each of them before any vantage-dependent step,
	// so wherever one of them is usable the decision is among them.
	tier []int32
}

// readCandidates fills r's candidate facts for prefix under pol: cands,
// with one liveness read and one Assign per distinct candidate router,
// and the attribute tier, which it appends to tiers. It returns the
// grown buffer, whose entries from len(tiers) on are r's tier; the
// caller slices r.tier from it, so a buffer on the caller's stack stays
// there.
func (r *prefixFacts) readCandidates(pol *core.Policy, cands []Candidate, prefix netip.Prefix, tiers []int32) []int32 {
	r.cands = cands
	r.prefs.read(pol, cands, prefix)
	return appendTier(tiers, cands, &r.prefs)
}

// pick is the geo decision at a vantage over r's candidates: pickGeo
// over the attribute tier, and only when no tier candidate is usable
// here — the tier's PoPs are cut off from the vantage while their
// routers are still in service — pickGeo over every candidate. Both
// answer what pickGeo over every candidate would: a candidate outside
// the tier loses to each tier candidate at rib.CompareAttrs, from every
// vantage, so it never displaces a usable tier candidate from pickGeo's
// running best, and the tier scan makes the same comparisons among tier
// candidates, in the same order, as the full one. It returns the
// winner's index into r.cands, or -1.
func (r *prefixFacts) pick(vantage *PoP, igp *igpRow, prefix netip.Prefix) int {
	if i := pickGeo(vantage, r.cands, r.tier, prefix, &r.prefs, igp); i >= 0 {
		return i
	}
	return pickGeo(vantage, r.cands, candOrder[:len(r.cands)], prefix, &r.prefs, igp)
}

// NewForwarding compiles the initial per-PoP FIBs and subscribes to the
// reflector's change notifications, so later management overrides and
// re-advertisements trigger incremental recompiles.
func NewForwarding(pr *Peering, rr *core.GeoRR, cfg ForwardingConfig) *Forwarding {
	f := &Forwarding{
		Peering:  pr,
		RR:       rr,
		fabric:   NewL2Fabric(pr.Net),
		debounce: cfg.Debounce,
		tracer:   cfg.Tracer,
	}
	if cfg.Telemetry != nil {
		// The convergence span layer: each publish is recorded against
		// the event ID its pass carried, closing the causal loop from
		// routing-plane event to FIB compile.
		f.conv = telemetry.NewConvergence(cfg.Telemetry, cfg.Tracer, cfg.ConvergenceClock)
		f.compiles = NewCompileRecorder(cfg.Telemetry, f.conv, cfg.ConvergenceClock != nil)
	}
	for _, p := range pr.Net.PoPs {
		f.engines = append(f.engines, fib.NewEngine(p.ID, f))
	}
	if cfg.Telemetry != nil {
		f.registerTelemetry(cfg.Telemetry)
	}
	// Subscribe before the initial pass (the table download) so no
	// change can fall between them. The batch form hands each change
	// event's full prefix set over in one call, so a multi-prefix UPDATE
	// costs one pass (typically one delta publish per PoP) instead of
	// one per prefix. The initial pass is a batch like any other; Flush
	// runs it now even under a debounce.
	rr.OnChangeBatch(f.InvalidateBatch)
	f.InvalidateAll()
	f.Flush()
	return f
}

// universe returns every prefix the forwarding plane should know: all
// originated prefixes plus statically advertised more-specifics.
func (f *Forwarding) universe() []netip.Prefix {
	statics := f.RR.Policy().Statics()
	out := make([]netip.Prefix, 0, len(f.Peering.Topo.Prefixes)+len(statics))
	for i := range f.Peering.Topo.Prefixes {
		out = append(out, f.Peering.Topo.Prefixes[i].Prefix)
	}
	for _, s := range statics {
		out = append(out, s.Prefix)
	}
	return out
}

// InvalidateBatch marks a set of prefixes dirty at every PoP. It is the
// rr.OnChangeBatch callback: the whole batch joins the dirty set at
// once, so a change event costs at most one pass — a copy-on-write
// delta per PoP when the batch is small — rather than one per prefix.
// Without a debounce the pass runs before it returns, under the same
// lock; with one, it arms the forwarding plane's one timer, and the
// pass resolves everything dirty when that fires. An invalidation
// waits for a running pass: at most one, about 0.1–3 ms at seed 1.
func (f *Forwarding) InvalidateBatch(prefixes []netip.Prefix) {
	// Stamp the dirty set with the in-flight convergence event, so the
	// pass this invalidation causes records its publishes against it
	// (CompileRecorder) — the event ID's rib→fib crossing.
	event := f.conv.ActiveID()
	f.mu.Lock()
	defer f.mu.Unlock()
	if event != 0 {
		f.pendingEvent = event
	}
	if f.dirty == nil {
		// Sized for this batch, so a universe-wide one never rehashes.
		f.dirty = make(map[netip.Prefix]struct{}, len(prefixes))
	}
	for _, pfx := range prefixes {
		f.dirty[pfx] = struct{}{}
	}
	if f.debounce == 0 {
		f.flush()
	} else if f.timer == nil && len(f.dirty) > 0 {
		//vnslint:wallclock the debounce batches real control-plane bursts in vnsd; sim tests use Debounce=0
		f.timer = time.AfterFunc(f.debounce, f.Flush)
	}
}

// InvalidateAll marks the whole universe dirty — the failover
// controller's reconvergence path after a link or PoP event or a drain.
// It goes through the dirty set like any batch, so prefixes whose next
// hop is unaffected cost their share of the pass but no publish (the
// Publisher's no-spurious-churn fast path).
func (f *Forwarding) InvalidateAll() {
	f.InvalidateBatch(f.universe())
}

// Convergence returns the deployment's shared convergence span layer
// (nil without telemetry). The reflector, failover controller, and
// adaptive controller attach to this one instance so their events share
// the ID space the publishers attribute compiles against.
func (f *Forwarding) Convergence() *telemetry.Convergence { return f.conv }

// Flush runs the pending pass now, if anything is dirty: the debounce
// timer's callback, and what a test, a shutdown or the failover
// controller calls for a consistent state. Without a debounce every
// invalidation has already run its pass, so it finds nothing to do.
func (f *Forwarding) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flush()
}

// flush is Flush with f.mu held.
func (f *Forwarding) flush() {
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
	if len(f.dirty) == 0 {
		return
	}
	batch := make([]netip.Prefix, 0, len(f.dirty))
	for pfx := range f.dirty {
		batch = append(batch, pfx)
	}
	f.dirty = nil
	event := f.pendingEvent
	f.pendingEvent = 0
	// Sorted so the pass decides in a reproducible order and the
	// publishers patch covers before the prefixes they contain
	// (fib.Publisher.Publish's batch).
	slices.SortFunc(batch, detsort.PrefixCompare)
	f.pass(event, batch)
}

// Pending returns the number of dirty prefixes awaiting the next pass.
func (f *Forwarding) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.dirty)
}

// pass is one resolve pass over batch, with f.mu held: it reads every
// prefix's vantage-independent facts once, all under one reflector
// policy, then at each PoP in id order decides every prefix and
// publishes the decisions, recording each publish against event. The
// facts are dropped with the pass, so nothing read here can answer a
// later one.
func (f *Forwarding) pass(event uint64, batch []netip.Prefix) {
	pol := f.RR.Policy()
	facts := make([]prefixFacts, len(batch))
	// The pass's tiers share one buffer, with room for two candidates a
	// prefix (seed 1 averages 1.69) and a few more; append grows it past
	// that.
	tiers := make([]int32, 0, 2*len(batch)+8)
	for i, pfx := range batch {
		n := len(tiers)
		tiers = f.readFacts(&facts[i], pol, pfx, tiers)
		facts[i].tier = tiers[n:]
	}
	decided := make([]fib.Entry, len(batch))
	for k, eng := range f.engines {
		v := f.Peering.Net.PoPs[k]
		igp := f.Peering.Net.igpRow(v)
		for i, pfx := range batch {
			decided[i] = fib.Entry{Prefix: pfx, NextHop: decide(v, &igp, &facts[i], pfx)}
		}
		f.compiles.Record(event, eng.Publisher().Publish(decided))
	}
}

// readFacts fills r, a zero prefixFacts, with prefix's
// vantage-independent facts under pol: its statics, each with its
// router's PoP and liveness, and for an originated prefix the origin's
// candidates (readCandidates), whose attribute tier it appends to
// tiers. It returns the grown buffer; r's tier is its entries from
// len(tiers) on.
func (f *Forwarding) readFacts(r *prefixFacts, pol *core.Policy, prefix netip.Prefix, tiers []int32) []int32 {
	// Gathered in a local and stored once: an append to r.statics in
	// place reads r, which the escape analysis would count as r's
	// content leaking, moving a caller's stack tier buffer to the heap.
	var statics []staticFact
	for _, s := range pol.StaticsFor(prefix) {
		p, _ := f.Peering.Net.RouterPoP(s.Egress)
		statics = append(statics, staticFact{router: s.Egress, pop: p, down: pol.EgressDown(s.Egress)})
	}
	r.statics = statics
	if pi, ok := f.Peering.Topo.PrefixInfoFor(prefix); ok {
		tiers = r.readCandidates(pol, f.Peering.Candidates(pi.Origin), prefix, tiers)
	}
	return tiers
}

// decide is a vantage's decision for one prefix from the prefix's facts
// and the vantage's IGP row: the first static whose router is up and
// whose PoP the vantage reaches pins the egress; everything else is the
// geo decision process over the candidates (prefixFacts.pick). An
// invalid next hop means no route.
func decide(vantage *PoP, igp *igpRow, r *prefixFacts, prefix netip.Prefix) fib.NextHop {
	for _, s := range r.statics {
		if s.pop != nil && !s.down && igp[s.pop.ID-1] < igpInf {
			return fib.NextHop{PoP: s.pop.ID, Router: s.router}
		}
	}
	i := r.pick(vantage, igp, prefix)
	if i < 0 {
		return fib.NextHop{}
	}
	s := r.cands[i].Session
	return fib.NextHop{PoP: s.PoP.ID, Router: s.Router, Neighbor: s.Neighbor.Index}
}

// Resolve computes the control-plane decision for one prefix as seen
// from a vantage PoP: the decision a pass makes (decide), over
// facts read fresh under one reflector policy for this one call. It is
// the reference answer the compiled per-PoP FIBs are differentially
// tested against (internal/scenario's three-way agreement invariant,
// Congruence).
func (f *Forwarding) Resolve(vantage *PoP, prefix netip.Prefix) (fib.NextHop, bool) {
	var r prefixFacts
	var buf [8]int32 // the tier, on the stack unless it is wider
	r.tier = f.readFacts(&r, f.RR.Policy(), prefix, buf[:0])
	igp := f.Peering.Net.igpRow(vantage)
	nh := decide(vantage, &igp, &r, prefix)
	return nh, nh.IsValid()
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
	return f.EngineByID(f.Peering.Net.PoP(code).ID)
}

// EngineByID returns the forwarding engine of the PoP with the given
// paper number.
func (f *Forwarding) EngineByID(id int) *fib.Engine { return f.engines[id-1] }

// Engines returns all engines in PoP-id order.
func (f *Forwarding) Engines() []*fib.Engine {
	return slices.Clone(f.engines)
}

// Congruence checks the compiled data plane against the control plane:
// for every originated prefix it compares the egress PoP the vantage
// engine's FIB selects with a fresh control-plane decision (Resolve). It
// returns the number of destinations
// where both agree and the number with a route on either side; the two
// should match for (nearly) all destinations whenever the FIB is
// caught up.
func (f *Forwarding) Congruence(vantage *PoP) (match, total int) {
	eng := f.EngineByID(vantage.ID)
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
	eng := f.EngineByID(ingress.ID)
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
