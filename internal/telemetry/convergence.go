package telemetry

import (
	"sync"
)

// This file is the convergence span layer: every routing-plane event —
// a BGP UPDATE batch, a link or PoP failover, an adaptive override, a
// management drain, a churn burst — gets an event ID that propagates
// causally through ingest, best-path selection, geo assignment, FIB
// compilation, and forwarding-plane invalidation. Each stage records
// its latency into convergence_stage_seconds{stage}, the whole event
// into convergence_seconds{kind}, and the event's decomposition into the
// Tracer as one trace of per-stage spans. The layer is clock-agnostic:
// a virtual-clock harness (internal/scenario) observes all-zero
// durations and stays byte-deterministic, while wall-clock deployments
// (vnsd, the soak harness) mark the latency families volatile and get
// real decompositions.

// Stage names of convergence_stage_seconds, in pipeline order:
// UPDATE/op ingest, RIB best-path selection, geo local-pref
// assignment, FIB trie compilation, and forwarding-plane invalidation
// (the flush fan-out minus the compiles it contains, so the stages
// tile the event without double counting).
const (
	StageIngest     = "ingest"
	StageSelect     = "select"
	StageGeoRR      = "georr"
	StageFIBCompile = "fib_compile"
	StageForwarding = "forwarding"
)

// ConvStages lists every stage in pipeline order, for status lines and
// quantile rendering.
var ConvStages = []string{StageIngest, StageSelect, StageGeoRR, StageFIBCompile, StageForwarding}

// Event kinds of convergence_events_total.
const (
	ConvUpdate   = "update"   // BGP UPDATE batch through the reflector
	ConvFailover = "failover" // link/PoP liveness reconvergence
	ConvOverride = "override" // adaptive measured-delay override
	ConvDrain    = "drain"    // management egress drain/undrain
	ConvChurn    = "churn"    // scripted announce/withdraw burst
	ConvMgmt     = "mgmt"     // management force/exempt override
)

// ConvKinds lists every event kind; the kind-labelled children are
// pre-created so the families render deterministically whether or not
// a kind has fired.
var ConvKinds = []string{ConvChurn, ConvDrain, ConvFailover, ConvMgmt, ConvOverride, ConvUpdate}

// ConvVolatileFamilies are the convergence families whose values derive
// from the deployment's clock; daemons pass them to MarkVolatile so the
// admin endpoint shows latencies while Snapshot stays deterministic.
// (Event and stage counts are deterministic on either clock and stay
// pinned.)
var ConvVolatileFamilies = []string{
	"convergence_stage_seconds",
	"convergence_seconds",
	"convergence_stage_quantile_seconds",
}

// Convergence owns the convergence-event metric families and the
// currently active event. One instance is shared by every layer of a
// deployment (the forwarding plane constructs it; the reflector, the
// management interface (core.Mgmt), the failover controller, and the
// adaptive controller borrow it), because the event ID handoff — "this
// FIB compile belongs to that UPDATE" — is per-instance state, not
// per-registry state. All methods are safe for concurrent use and safe
// on a nil *Convergence, so instrumentation sites call unconditionally.
type Convergence struct {
	tracer *Tracer
	clock  func() float64

	kinds  map[string]convKind // pre-created per ConvKinds, read-only
	events *CounterVec
	totals *HistogramVec
	stages map[string]*Histogram

	mu     sync.Mutex
	nextID uint64
	active *ConvEvent
}

// NewConvergence registers the convergence families in reg and returns
// the span layer. Span records go to tracer (nil disables them but
// keeps the histograms); clock supplies stage timestamps and defaults
// to the tracer's clock — virtual for simulation harnesses, a
// wall-seconds adapter for daemons. When tracer is non-nil the ring's
// eviction count is also exported as trace_dropped_total, so span loss
// under burst is visible instead of silent.
func NewConvergence(reg *Registry, tracer *Tracer, clock func() float64) *Convergence {
	if clock == nil {
		clock = tracer.Now
	}
	c := &Convergence{
		tracer: tracer,
		clock:  clock,
		kinds:  make(map[string]convKind, len(ConvKinds)),
		events: reg.CounterVec("convergence_events_total", "routing-plane convergence events, by kind", "kind"),
		totals: reg.HistogramVec("convergence_seconds", "end-to-end convergence latency per event, by kind", DefBuckets, "kind"),
		stages: make(map[string]*Histogram, len(ConvStages)),
	}
	for _, k := range ConvKinds {
		c.kinds[k] = c.kind(k)
	}
	stageVec := reg.HistogramVec("convergence_stage_seconds", "per-stage convergence latency", DefBuckets, "stage")
	for _, s := range ConvStages {
		c.stages[s] = stageVec.With(s)
	}
	reg.RegisterFunc("convergence_stage_quantile_seconds", "stage-latency quantiles (p50/p99)",
		KindGauge, []string{"quantile", "stage"}, func(emit func([]string, float64)) {
			for _, s := range ConvStages {
				h := c.stages[s]
				emit([]string{"0.5", s}, h.Quantile(0.5))
				emit([]string{"0.99", s}, h.Quantile(0.99))
			}
		})
	if tracer != nil {
		reg.RegisterFunc("trace_dropped_total", "spans evicted from the tracer ring",
			KindCounter, nil, func(emit func([]string, float64)) {
				emit(nil, float64(tracer.Dropped()))
			})
	}
	return c
}

// convKind is one event kind's children of convergence_events_total
// and convergence_seconds.
type convKind struct {
	events *Counter
	total  *Histogram
}

// kind resolves kind's children, creating them on first use.
func (c *Convergence) kind(kind string) convKind {
	return convKind{c.events.With(kind), c.totals.With(kind)}
}

// Begin opens a convergence event of the given kind, makes it the
// active event (the one FIB compiles are attributed to), and returns
// it. Returns nil on a nil receiver. Mutation paths are serialized in
// every deployment (RRServer.mu's one critical section per step, the
// failover controller's mutex, the simulation goroutine), so at most
// one event is normally in flight; under genuine concurrency the newest
// event wins the attribution and earlier ones still record their own
// stages.
func (c *Convergence) Begin(kind string) *ConvEvent {
	if c == nil {
		return nil
	}
	k, ok := c.kinds[kind]
	if !ok {
		k = c.kind(kind)
	}
	c.mu.Lock()
	c.nextID++
	ev := &ConvEvent{conv: c, id: c.nextID, kind: kind, total: k.total}
	c.active = ev
	c.mu.Unlock()
	k.events.Inc()
	ev.start = c.clock() // the bookkeeping above is not the event's
	return ev
}

// ActiveID returns the event ID of the in-flight convergence event, 0
// when none. The forwarding plane stamps its dirty set with it
// (vns.Forwarding.InvalidateBatch), and the pass that set causes
// records its publishes against the stamp: that is how the ID crosses
// the rib→fib boundary.
func (c *Convergence) ActiveID() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active == nil {
		return 0
	}
	return c.active.id
}

// ObserveCompileFor attributes one published FIB compile of the given
// duration to the event that invalidated it (vns.CompileRecorder calls
// this with the event ID the publishing pass carried). A compile
// whose event is no longer active — a debounced flush landing after
// Finish — is left to the fib_compile_seconds family alone.
func (c *Convergence) ObserveCompileFor(event uint64, seconds float64) {
	if c == nil || event == 0 {
		return
	}
	c.mu.Lock()
	ev := c.active
	c.mu.Unlock()
	if ev == nil || ev.id != event {
		return
	}
	ev.observeCompile(seconds)
}

// Events returns how many convergence events have begun.
func (c *Convergence) Events() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextID
}

// StageQuantile estimates quantile q of one stage's latency histogram
// (0 on a nil receiver or unknown stage).
func (c *Convergence) StageQuantile(stage string, q float64) float64 {
	if c == nil {
		return 0
	}
	h, ok := c.stages[stage]
	if !ok {
		return 0
	}
	return h.Quantile(q)
}

// StageCount returns how many observations one stage has recorded.
func (c *Convergence) StageCount(stage string) uint64 {
	if c == nil {
		return 0
	}
	h, ok := c.stages[stage]
	if !ok {
		return 0
	}
	return h.Count()
}

// ConvMark captures a stage start: the clock reading and the compile
// seconds attributed so far, so StageExclusive can subtract compiles
// that ran inside the marked window.
type ConvMark struct {
	t       float64
	compile float64
}

// stageObs is one recorded stage for span emission.
type stageObs struct {
	stage   string
	start   float64
	seconds float64
}

// ConvEvent is one in-flight convergence event. Stage methods may be
// called from the publisher goroutines an event fans out to; internal
// state is lock-guarded. All methods are safe on a nil receiver.
type ConvEvent struct {
	conv  *Convergence
	id    uint64
	kind  string
	total *Histogram // the kind's convergence_seconds child
	start float64

	mu       sync.Mutex
	obs      []stageObs
	compile  float64
	compiles int
	done     bool
}

// Mark captures the current clock and compile attribution as a stage
// start.
func (ev *ConvEvent) Mark() ConvMark {
	if ev == nil {
		return ConvMark{}
	}
	return ev.markAt(ev.conv.clock())
}

// markAt is the stage start at clock reading t.
func (ev *ConvEvent) markAt(t float64) ConvMark {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ConvMark{t: t, compile: ev.compile}
}

// Stage closes one stage opened at m: the elapsed clock time is
// observed into convergence_stage_seconds{stage} and remembered for
// span emission at Finish. It returns the next stage's start, at the
// same clock reading, so stages chained through it tile the event with
// no unmeasured gap between them.
func (ev *ConvEvent) Stage(stage string, m ConvMark) ConvMark {
	if ev == nil {
		return ConvMark{}
	}
	next := ev.markAt(ev.conv.clock())
	ev.record(stage, m.t, next.t-m.t)
	return next
}

// StageExclusive is Stage excluding the FIB compile time attributed to
// the event inside the window — the forwarding stage wraps publisher
// flushes whose compiles are already the fib_compile stage, and the
// stages must tile the event without double counting.
func (ev *ConvEvent) StageExclusive(stage string, m ConvMark) ConvMark {
	if ev == nil {
		return ConvMark{}
	}
	next := ev.markAt(ev.conv.clock())
	ev.record(stage, m.t, (next.t-m.t)-(next.compile-m.compile))
	return next
}

func (ev *ConvEvent) record(stage string, start, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	if h, ok := ev.conv.stages[stage]; ok {
		h.Observe(seconds)
	}
	ev.mu.Lock()
	if !ev.done {
		ev.obs = append(ev.obs, stageObs{stage: stage, start: start, seconds: seconds})
	}
	ev.mu.Unlock()
}

// observeCompile records one attributed FIB compile (via
// Convergence.ObserveCompileFor).
func (ev *ConvEvent) observeCompile(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	ev.conv.stages[StageFIBCompile].Observe(seconds)
	end := ev.conv.clock()
	ev.mu.Lock()
	if !ev.done {
		ev.compile += seconds
		ev.compiles++
		ev.obs = append(ev.obs, stageObs{stage: StageFIBCompile, start: end - seconds, seconds: seconds})
	}
	ev.mu.Unlock()
}

// Finish closes the event: end-to-end latency lands in
// convergence_seconds{kind}, the active slot is released, and the event's
// decomposition is recorded into the tracer as one trace — a parent
// span of the event's kind plus one child span per stage. Whether the
// stages tile the event is read from the two families' sums (the soak
// run's additivity gate).
func (ev *ConvEvent) Finish() {
	if ev == nil {
		return
	}
	c := ev.conv
	end := c.clock()
	ev.total.Observe(max(end-ev.start, 0))

	ev.mu.Lock()
	obs := ev.obs
	compiles := ev.compiles
	ev.done = true
	ev.mu.Unlock()

	c.mu.Lock()
	if c.active == ev {
		c.active = nil
	}
	c.mu.Unlock()

	if c.tracer != nil {
		id := c.tracer.StartTrace()
		c.tracer.Record(id, "convergence", ev.kind, ev.start, end,
			Uint("event", ev.id), Int("stages", len(obs)), Int("compiles", compiles))
		for _, o := range obs {
			c.tracer.Record(id, "convergence", o.stage, o.start, o.start+o.seconds,
				Uint("event", ev.id))
		}
	}
}
