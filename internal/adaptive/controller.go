package adaptive

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"vns/internal/netsim"
	"vns/internal/telemetry"
)

// Sink receives the controller's routing decisions. core.GeoRR
// implements it: an override pins a prefix's assignment to one egress
// router at AdaptiveLocalPref, and clearing it falls back to the
// geographic preference.
type Sink interface {
	SetOverride(prefix netip.Prefix, router netip.Addr) error
	ClearOverride(prefix netip.Prefix) bool
}

// ProbeFunc measures one path: the external RTT from egress PoP pop to
// the destination prefix, in milliseconds. ok=false means the probe
// was lost or the path is unmeasurable this round.
type ProbeFunc func(pop int, prefix netip.Prefix) (rttMs float64, ok bool)

// DefaultIntervalSec is the probe round period when the config leaves
// it zero.
const DefaultIntervalSec = 1.0

// Config assembles a Controller. Sim, Probe and Sink are required.
type Config struct {
	// Sim is the virtual clock the probe rounds run on.
	Sim *netsim.Sim
	// IntervalSec is the period between probe rounds (simulated
	// seconds; 0 means DefaultIntervalSec).
	IntervalSec float64
	// Budget caps how many paths are probed per round; 0 means every
	// tracked path every round. With a budget the round-robin cursor
	// spreads probes across rounds, so convergence slows but the probe
	// load stays fixed.
	Budget int
	// HalfLifeSec is the estimator half-life (0: DefaultHalfLifeSec).
	HalfLifeSec float64
	// Stability tunes the decision layer; zero fields take the
	// documented defaults.
	Stability StabilityConfig
	// Probe measures one path.
	Probe ProbeFunc
	// Sink applies routing decisions.
	Sink Sink
	// Telemetry, when non-nil, receives the adaptive_* metric families.
	// Nil keeps the registry untouched (and existing telemetry digests
	// byte-stable).
	Telemetry *telemetry.Registry
	// Convergence, when non-nil, is the deployment's shared convergence
	// span layer (vns.Forwarding.Convergence()): every probe round that
	// changes at least one override becomes an "override" event whose
	// forwarding-stage latency covers the sink applications, with the
	// FIB compiles they trigger attributed through the event ID.
	Convergence *telemetry.Convergence
}

// pathRef addresses one probe target: tracks[ti].cands[ci].
type pathRef struct{ ti, ci int }

// track is the controller's per-prefix state.
type track struct {
	prefix  netip.Prefix
	cands   []Cand
	handles []*PathEstimator // parallel to cands
	geoBest int              // index of the geographically nearest candidate
	damper  *Damper

	// desiredIdx is what the decision layer wants (-1: no override);
	// activeIdx is what the sink has applied. They differ only while
	// damping suppresses the prefix.
	desiredIdx  int
	activeIdx   int
	suppressed  bool
	advantageMs float64
}

// Controller runs the probe→estimate→decide→apply loop. Register every
// tracked prefix with Track before Start; after Start the track and
// candidate sets are frozen and only the per-track decision state
// mutates (under mu). Round runs on the sim goroutine; Status and
// PathStates may be called from any goroutine.
type Controller struct {
	cfg  Config
	stab StabilityConfig
	est  *Estimator

	mu          sync.Mutex
	tracks      []*track
	byPrefix    map[netip.Prefix]int
	flat        []pathRef
	cursor      int
	samples     uint64
	lastRoundAt float64
	started     bool
	stopped     bool

	met *metrics
}

// metrics holds the adaptive_* instrument handles. Nil when the
// controller was built without a registry.
type metrics struct {
	samples      *telemetry.Counter
	probeLost    *telemetry.Counter
	sinkErrors   *telemetry.Counter
	sampleRTT    *telemetry.Histogram
	transitions  map[string]*telemetry.Counter
	overrides    *telemetry.Gauge
	suppressed   *telemetry.Gauge
	pathsTracked *telemetry.Gauge
	prefixes     *telemetry.Gauge
}

// transitionOps are the override life-cycle events counted by
// adaptive_override_transitions_total. All children are pre-created so
// the rendered family (and the scenario telemetry digest) is stable
// whether or not an op ever fires.
var transitionOps = []string{"flap", "install", "switch", "withdraw", "suppress", "reuse"}

func newMetrics(r *telemetry.Registry) *metrics {
	m := &metrics{
		samples: r.Counter("adaptive_samples_ingested_total",
			"probe RTT samples folded into path estimators"),
		probeLost: r.Counter("adaptive_probe_lost_total",
			"probes that returned no measurement"),
		sinkErrors: r.Counter("adaptive_sink_errors_total",
			"override applications rejected by the routing sink"),
		sampleRTT: r.Histogram("adaptive_sample_rtt_ms",
			"probe RTT samples (ms)",
			[]float64{5, 10, 20, 50, 100, 150, 200, 300, 400, 600, 800}),
		transitions: make(map[string]*telemetry.Counter, len(transitionOps)),
		overrides: r.Gauge("adaptive_overrides_active",
			"prefixes currently pinned to a measured-delay override"),
		suppressed: r.Gauge("adaptive_suppressed_active",
			"prefixes whose overrides flap damping currently suppresses"),
		pathsTracked: r.Gauge("adaptive_paths_tracked",
			"(egress PoP, prefix) paths under measurement"),
		prefixes: r.Gauge("adaptive_prefixes_tracked",
			"prefixes under adaptive control"),
	}
	vec := r.CounterVec("adaptive_override_transitions_total",
		"override life-cycle events by op", "op")
	for _, op := range transitionOps {
		m.transitions[op] = vec.With(op)
	}
	return m
}

// NewController builds a controller. It panics on a nil Sim, Probe or
// Sink — those are programming errors, not runtime conditions.
func NewController(cfg Config) *Controller {
	if cfg.Sim == nil || cfg.Probe == nil || cfg.Sink == nil {
		panic("adaptive: Config needs Sim, Probe and Sink")
	}
	if cfg.IntervalSec <= 0 {
		cfg.IntervalSec = DefaultIntervalSec
	}
	c := &Controller{
		cfg:      cfg,
		stab:     cfg.Stability.withDefaults(),
		est:      NewEstimator(cfg.HalfLifeSec),
		byPrefix: make(map[netip.Prefix]int),
	}
	if cfg.Telemetry != nil {
		c.met = newMetrics(cfg.Telemetry)
		cfg.Telemetry.RegisterFunc("adaptive_estimator_staleness_seconds",
			"worst tracked-path estimator age at the last probe round",
			telemetry.KindGauge, nil,
			func(emit func([]string, float64)) { emit(nil, c.maxStaleness()) })
	}
	return c
}

// Track registers a prefix and its candidate egresses. The first
// candidate need not be the geographic choice; the controller picks
// the geographically nearest by GeoKm (ties to the lowest PoP id).
// Must be called before Start.
func (c *Controller) Track(prefix netip.Prefix, cands []Cand) error {
	if !prefix.IsValid() {
		return fmt.Errorf("adaptive: invalid prefix")
	}
	if len(cands) == 0 {
		return fmt.Errorf("adaptive: track %v: no candidates", prefix)
	}
	prefix = prefix.Masked()
	seen := make(map[int]bool, len(cands))
	geoBest := 0
	for i, cd := range cands {
		if cd.PoP <= 0 || !cd.Router.IsValid() {
			return fmt.Errorf("adaptive: track %v: bad candidate %d", prefix, i)
		}
		if seen[cd.PoP] {
			return fmt.Errorf("adaptive: track %v: duplicate PoP %d", prefix, cd.PoP)
		}
		seen[cd.PoP] = true
		if cd.GeoKm < cands[geoBest].GeoKm ||
			(cd.GeoKm == cands[geoBest].GeoKm && cd.PoP < cands[geoBest].PoP) {
			geoBest = i
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("adaptive: track %v: controller already started", prefix)
	}
	if _, dup := c.byPrefix[prefix]; dup {
		return fmt.Errorf("adaptive: track %v: already tracked", prefix)
	}
	tr := &track{
		prefix:     prefix,
		cands:      append([]Cand(nil), cands...),
		handles:    make([]*PathEstimator, len(cands)),
		geoBest:    geoBest,
		damper:     &Damper{},
		desiredIdx: -1,
		activeIdx:  -1,
	}
	ti := len(c.tracks)
	for i, cd := range tr.cands {
		tr.handles[i] = c.est.Path(Key{PoP: cd.PoP, Prefix: prefix})
		c.flat = append(c.flat, pathRef{ti: ti, ci: i})
	}
	c.tracks = append(c.tracks, tr)
	c.byPrefix[prefix] = ti
	if c.met != nil {
		c.met.pathsTracked.Set(float64(len(c.flat)))
		c.met.prefixes.Set(float64(len(c.tracks)))
	}
	return nil
}

// Start freezes the track set and schedules the periodic probe rounds
// on the sim. The first round fires one interval from now.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	var loop func()
	loop = func() {
		c.mu.Lock()
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		c.Round()
		c.cfg.Sim.After(c.cfg.IntervalSec, loop)
	}
	c.cfg.Sim.After(c.cfg.IntervalSec, loop)
}

// Stop halts the periodic rounds after the one currently scheduled.
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
}

// Round runs one probe round at the current simulated time: probe up
// to Budget paths round-robin, fold the measurements into the
// estimators, re-evaluate every prefix that got a new sample, and
// apply the resulting override changes to the sink. Exported so tests
// and embedders can drive rounds directly; must not be called
// concurrently with itself (the sim loop never does).
func (c *Controller) Round() {
	now := c.cfg.Sim.Now()

	c.mu.Lock()
	c.started = true // direct Round calls freeze the track set too
	nflat := len(c.flat)
	n := nflat
	if c.cfg.Budget > 0 && c.cfg.Budget < n {
		n = c.cfg.Budget
	}
	refs := make([]pathRef, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, c.flat[c.cursor])
		c.cursor = (c.cursor + 1) % nflat
	}
	ntracks := len(c.tracks)
	c.mu.Unlock()

	// Probe outside the controller mutex: ProbeFunc is user code.
	touched := make([]bool, ntracks)
	ingested := uint64(0)
	for _, ref := range refs {
		tr := c.tracks[ref.ti]
		rtt, ok := c.cfg.Probe(tr.cands[ref.ci].PoP, tr.prefix)
		if !ok {
			if c.met != nil {
				c.met.probeLost.Inc()
			}
			continue
		}
		tr.handles[ref.ci].Ingest(rtt, now)
		ingested++
		touched[ref.ti] = true
		if c.met != nil {
			c.met.samples.Inc()
			c.met.sampleRTT.Observe(rtt)
		}
	}

	// Decide under the mutex, collect the sink calls, apply after
	// release (lockcallback: never call out while holding mu).
	type action struct {
		prefix netip.Prefix
		set    bool
		router netip.Addr
	}
	var acts []action
	c.mu.Lock()
	c.samples += ingested
	for ti, t := range touched {
		if !t {
			continue
		}
		tr := c.tracks[ti]
		if set, clear, router := c.decideLocked(tr, now); set || clear {
			acts = append(acts, action{prefix: tr.prefix, set: set, router: router})
		}
	}
	c.lastRoundAt = now
	c.mu.Unlock()

	if len(acts) == 0 {
		return
	}
	// One "override" convergence event per round that changed routing:
	// the sink calls below mutate the GeoRR and republish FIBs through
	// its change notifications, and the event ID ties those compiles
	// back here.
	ev := c.cfg.Convergence.Begin(telemetry.ConvOverride)
	mark := ev.Mark()
	for _, a := range acts {
		if a.set {
			if err := c.cfg.Sink.SetOverride(a.prefix, a.router); err != nil && c.met != nil {
				c.met.sinkErrors.Inc()
			}
		} else {
			c.cfg.Sink.ClearOverride(a.prefix)
		}
	}
	ev.StageExclusive(telemetry.StageForwarding, mark)
	ev.Finish()
}

// decideLocked re-evaluates one track at simulated time now and
// updates its decision state. It returns the sink call to make, if
// any: set (with router) or clear. Caller holds c.mu.
func (c *Controller) decideLocked(tr *track, now float64) (set, clear bool, router netip.Addr) {
	incumbent := 0
	if tr.desiredIdx >= 0 {
		incumbent = tr.cands[tr.desiredIdx].PoP
	}
	dec := evaluate(c.stab, tr.cands, tr.geoBest, incumbent, c.state, tr.prefix, now)
	newIdx := -1
	if dec.active {
		for i := range tr.cands {
			if tr.cands[i].PoP == dec.target.PoP {
				newIdx = i
				break
			}
		}
	}
	tr.advantageMs = dec.advantageMs

	// The damper charges desired transitions, applied or not: while
	// suppressed, a still-oscillating measurement keeps the penalty up
	// and the suppression in force.
	if newIdx != tr.desiredIdx {
		tr.damper.Flap(now)
		tr.desiredIdx = newIdx
		c.count("flap")
	}

	sup := tr.damper.Suppressed(now)
	if sup != tr.suppressed {
		tr.suppressed = sup
		if sup {
			c.count("suppress")
			c.gauge(func(m *metrics) { m.suppressed.Add(1) })
		} else {
			c.count("reuse")
			c.gauge(func(m *metrics) { m.suppressed.Add(-1) })
		}
	}

	want := tr.desiredIdx
	if sup {
		want = -1
	}
	if want == tr.activeIdx {
		return false, false, netip.Addr{}
	}
	switch {
	case tr.activeIdx < 0:
		c.count("install")
		c.gauge(func(m *metrics) { m.overrides.Add(1) })
		set, router = true, tr.cands[want].Router
	case want < 0:
		c.count("withdraw")
		c.gauge(func(m *metrics) { m.overrides.Add(-1) })
		clear = true
	default:
		c.count("switch")
		set, router = true, tr.cands[want].Router
	}
	tr.activeIdx = want
	return set, clear, router
}

// count increments a transition counter when telemetry is wired.
func (c *Controller) count(op string) {
	if c.met != nil {
		c.met.transitions[op].Inc()
	}
}

// gauge applies a gauge update when telemetry is wired.
func (c *Controller) gauge(f func(*metrics)) {
	if c.met != nil {
		f(c.met)
	}
}

// state reads one path's snapshot (zero Snapshot for unknown keys).
func (c *Controller) state(k Key) Snapshot {
	if p, ok := c.est.Lookup(k); ok {
		return p.State()
	}
	return Snapshot{}
}

// maxStaleness is the age, at the last completed probe round, of the
// oldest tracked-path estimate. Paths never probed count from time 0,
// so a starved budget shows up as growing staleness.
func (c *Controller) maxStaleness() float64 {
	c.mu.Lock()
	tracks := c.tracks
	at := c.lastRoundAt
	c.mu.Unlock()
	worst := 0.0
	for _, tr := range tracks {
		for _, h := range tr.handles {
			if age := at - h.State().LastAt; age > worst {
				worst = age
			}
		}
	}
	return worst
}

// LastRoundAt returns the simulated time of the last completed probe
// round (0 before the first). Safe from any goroutine; callers off the
// sim goroutine pass it to Status instead of reading the sim clock.
func (c *Controller) LastRoundAt() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastRoundAt
}

// OverrideState describes one active override for Status.
type OverrideState struct {
	Prefix      netip.Prefix
	PoP         int
	Code        string
	Router      netip.Addr
	AdvantageMs float64
	GeoCode     string
}

// SuppressedState describes one damped prefix for Status.
type SuppressedState struct {
	Prefix  netip.Prefix
	Penalty float64
	Flips   uint64
}

// Status is a point-in-time summary of the controller.
type Status struct {
	Prefixes   int
	Paths      int
	Samples    uint64
	Overrides  []OverrideState
	Suppressed []SuppressedState
}

// Status summarizes the controller at simulated time now (pass
// Sim.Now(); taking it as an argument keeps this callable from
// goroutines that must not touch the sim). Slices are sorted by
// prefix for deterministic rendering.
func (c *Controller) Status(now float64) Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Prefixes: len(c.tracks), Paths: len(c.flat), Samples: c.samples}
	for _, tr := range c.tracks {
		if tr.activeIdx >= 0 {
			cd := tr.cands[tr.activeIdx]
			st.Overrides = append(st.Overrides, OverrideState{
				Prefix:      tr.prefix,
				PoP:         cd.PoP,
				Code:        cd.Code,
				Router:      cd.Router,
				AdvantageMs: tr.advantageMs,
				GeoCode:     tr.cands[tr.geoBest].Code,
			})
		}
		if tr.suppressed {
			st.Suppressed = append(st.Suppressed, SuppressedState{
				Prefix:  tr.prefix,
				Penalty: tr.damper.Penalty(now),
				Flips:   tr.damper.Flips(),
			})
		}
	}
	sort.Slice(st.Overrides, func(i, j int) bool {
		return st.Overrides[i].Prefix.String() < st.Overrides[j].Prefix.String()
	})
	sort.Slice(st.Suppressed, func(i, j int) bool {
		return st.Suppressed[i].Prefix.String() < st.Suppressed[j].Prefix.String()
	})
	return st
}

// PathState is one tracked path's estimator state for PathStates.
type PathState struct {
	Prefix netip.Prefix
	PoP    int
	Code   string
	Snapshot
}

// PathStates lists every tracked path's estimate, sorted by (prefix,
// PoP) for deterministic rendering.
func (c *Controller) PathStates() []PathState {
	c.mu.Lock()
	tracks := c.tracks
	c.mu.Unlock()
	var out []PathState
	for _, tr := range tracks {
		for i, cd := range tr.cands {
			out = append(out, PathState{
				Prefix:   tr.prefix,
				PoP:      cd.PoP,
				Code:     cd.Code,
				Snapshot: tr.handles[i].State(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix != out[j].Prefix {
			return out[i].Prefix.String() < out[j].Prefix.String()
		}
		return out[i].PoP < out[j].PoP
	})
	return out
}
