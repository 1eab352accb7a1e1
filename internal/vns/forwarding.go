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

// Forwarding is the deployment's forwarding plane: one fib.Engine per
// PoP, all fed by one publisher over one shared trie, compiled from the
// GeoRR's post-policy routes, plus the shared L2 fabric the engines
// forward over. It implements fib.Fabric.
//
// The trie points every prefix at a path-list (pathList): what its
// decision reads that no liveness or IGP change can move. Its unit of
// work is the pass, one per invalidation without a debounce or per
// debounced flush, of one of two kinds. A prefix pass (InvalidateBatch,
// and the initial download) reads each dirty prefix's path-list under
// one reflector policy, resolves at every PoP the lists no prefix held
// before, and re-points the prefixes whose list changed. A
// re-resolution (InvalidateAll) decides every list some prefix points
// at, at every PoP, under the current liveness and IGP into a new row
// table and publishes the columns it moved: no prefix is read and no
// trie touched.
type Forwarding struct {
	Peering *Peering
	RR      *core.GeoRR

	engines []*fib.Engine // by PoP id−1: the plane's columns, in order

	fabric *L2Fabric

	debounce time.Duration

	// mu guards the dirty set, the pending re-resolution, the pending
	// event, the timer and the path-lists, and serializes passes, which
	// makes the plane's publisher single-writer.
	mu    sync.Mutex
	dirty map[netip.Prefix]struct{} // nil from a pass until the next invalidation
	// stale marks a re-resolution due at the next flush.
	stale bool
	// pendingEvent is the convergence event the next pass is attributed
	// to: the latest nonzero event ID any invalidation carried since the
	// last pass.
	pendingEvent uint64
	timer        *time.Timer
	lists        pathLists
	// A prefix pass's buffers, reused under mu: its sorted batch and
	// its points.
	batch  []netip.Prefix
	points []fib.Point

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
		lists:    pathLists{index: make(map[uint64]int32)},
	}
	if cfg.Telemetry != nil {
		// The convergence span layer: each publish is recorded against
		// the event ID its pass carried, closing the causal loop from
		// routing-plane event to FIB compile.
		f.conv = telemetry.NewConvergence(cfg.Telemetry, cfg.Tracer, cfg.ConvergenceClock)
		f.compiles = NewCompileRecorder(cfg.Telemetry, f.conv, cfg.ConvergenceClock != nil)
	}
	ids := make([]int, len(pr.Net.PoPs))
	for i, p := range pr.Net.PoPs {
		ids[i] = p.ID
	}
	f.engines = fib.NewEngines(ids, f)
	if cfg.Telemetry != nil {
		f.registerTelemetry(cfg.Telemetry)
	}
	// Subscribe before the initial pass (the table download) so no
	// change can fall between them. The batch form hands each change
	// event's full prefix set over in one call, so a multi-prefix UPDATE
	// costs one pass (typically one delta publish per PoP) instead of
	// one per prefix. The initial pass is a prefix pass like any other;
	// Flush runs it now even under a debounce.
	rr.OnChangeBatch(f.InvalidateBatch)
	f.InvalidateBatch(f.universe())
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

// InvalidateBatch marks a set of prefixes dirty at every PoP: their
// path-lists are read again at the next prefix pass. It is the
// rr.OnChangeBatch callback: the whole batch joins the dirty set at
// once, so a change event costs at most one pass — one copy-on-write
// delta of the shared trie when the batch is small — rather than one
// per prefix.
// Without a debounce the pass runs before it returns, under the same
// lock; with one, it arms the forwarding plane's one timer, and the
// pass resolves everything dirty when that fires. An invalidation
// waits for a running pass: at most one, about 0.05–1 ms at seed 1.
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
	f.schedule()
}

// InvalidateAll re-resolves every path-list at every PoP under the
// current liveness and IGP: the failover controller's reconvergence
// path after a link or PoP event or a drain. It reads no prefix and
// touches no trie; a PoP gets a new FIB header only where a list some
// prefix points at moved, so prefixes whose next hop is unaffected cost
// nothing (the Publisher's no-spurious-churn fast path). It runs when
// InvalidateBatch's pass would, before that pass when both are due.
//
// The split is the invalidation contract: a liveness change
// (core.GeoRR.SetEgressDown, an L2 link's state) moves no path-list,
// so it notifies nobody and its caller runs InvalidateAll; every other
// policy change notifies the prefixes it changes (OnChangeBatch), whose
// lists the next prefix pass reads again. A change that would move
// every prefix's list without notifying, an egress registered
// (core.GeoRR.AddEgress) after the forwarding plane is built, is not
// supported: egresses are registered first.
func (f *Forwarding) InvalidateAll() {
	event := f.conv.ActiveID() // stamped as InvalidateBatch stamps
	f.mu.Lock()
	defer f.mu.Unlock()
	if event != 0 {
		f.pendingEvent = event
	}
	f.stale = true
	f.schedule()
}

// schedule runs the due passes now without a debounce, or arms the
// forwarding plane's one timer, with f.mu held.
func (f *Forwarding) schedule() {
	if f.debounce == 0 {
		f.flush()
	} else if f.timer == nil && (f.stale || len(f.dirty) > 0) {
		//vnslint:wallclock the debounce batches real control-plane bursts in vnsd; sim tests use Debounce=0
		f.timer = time.AfterFunc(f.debounce, f.Flush)
	}
}

// Convergence returns the deployment's shared convergence span layer
// (nil without telemetry). The reflector, failover controller, and
// adaptive controller attach to this one instance so their events share
// the ID space the publishers attribute compiles against.
func (f *Forwarding) Convergence() *telemetry.Convergence { return f.conv }

// Flush runs the due passes now, if any: the debounce timer's
// callback, and what a test, a shutdown or the failover controller
// calls for a consistent state. Without a debounce every invalidation
// has already run its pass, so it finds nothing to do.
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
	if !f.stale && len(f.dirty) == 0 {
		return
	}
	event := f.pendingEvent
	f.pendingEvent = 0
	if f.stale {
		f.stale = false
		f.resolveAll(event)
	}
	if len(f.dirty) == 0 {
		return
	}
	batch := f.batch[:0]
	for pfx := range f.dirty {
		batch = append(batch, pfx)
	}
	f.dirty, f.batch = nil, batch[:0]
	// Sorted so the pass decides in a reproducible order and the
	// publisher derives covers before the prefixes they contain
	// (fib.Publisher.Repoint's points).
	slices.SortFunc(batch, detsort.PrefixCompare)
	f.pass(event, batch)
}

// Pending returns the number of dirty prefixes awaiting the next pass.
func (f *Forwarding) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.dirty)
}

// igpRows reads every PoP's IGP row, by PoP id−1.
func (f *Forwarding) igpRows() (igps [len(popSpec)]igpRow) {
	for k, v := range f.Peering.Net.PoPs {
		igps[k] = f.Peering.Net.igpRow(v)
	}
	return igps
}

// pass is one prefix pass over batch, with f.mu held: it reads every
// prefix's path-list under one reflector policy, interns it — resolving
// a list no prefix held before at every PoP, in id order — and hands
// the plane one point per prefix, its list's row, in one Repoint,
// recording the publish against event.
func (f *Forwarding) pass(event uint64, batch []netip.Prefix) {
	pol := f.RR.Policy()
	net := f.Peering.Net
	down, igps := net.readLiveness(pol), f.igpRows()
	points := f.points[:0]
	for _, pfx := range batch {
		var l pathList
		f.readList(&l, pol, pfx)
		var id int32
		if len(l.statics) > 0 || len(l.cands) > 0 {
			id = f.lists.intern(&l, &down, net.PoPs, &igps)
		}
		points = append(points, fib.Point{Prefix: pfx, Row: id})
	}
	f.points = points[:0]
	// Every engine's Publisher publishes the whole plane.
	f.compiles.Record(event, f.engines[0].Publisher().Repoint(points, f.lists.rows))
}

// resolveAll is one re-resolution, with f.mu held: every path-list some
// prefix points at decided at every PoP under one reflector policy and
// the current IGP rows, into a new row table the plane publishes
// (fib.Publisher.Resolve), recording the publish against event.
func (f *Forwarding) resolveAll(event uint64) {
	net := f.Peering.Net
	down, igps := net.readLiveness(f.RR.Policy()), f.igpRows()
	pub := f.engines[0].Publisher()
	rows := f.lists.resolveAll(pub, &down, net.PoPs, &igps)
	f.compiles.Record(event, pub.Resolve(rows))
}

// Resolve computes the control-plane decision for one prefix as seen
// from a vantage PoP: the decision a pass makes, over the prefix's
// path-list read fresh under one reflector policy for this one call. It
// is the reference answer the compiled per-PoP FIBs are differentially
// tested against (internal/scenario's three-way agreement invariant,
// Congruence).
func (f *Forwarding) Resolve(vantage *PoP, prefix netip.Prefix) (fib.NextHop, bool) {
	pol := f.RR.Policy()
	var l pathList
	f.readList(&l, pol, prefix)
	down := f.Peering.Net.readLiveness(pol)
	var prefs routerPrefs
	l.standing(&prefs, &down)
	var buf [maxSessions]uint16
	tier := l.tier(&prefs, buf[:0])
	igp := f.Peering.Net.igpRow(vantage)
	nh := l.decide(vantage, &igp, &down, tier, &prefs)
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
