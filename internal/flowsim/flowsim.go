// Package flowsim is the aggregate flow engine: it carries conference
// media as fluid per-link flow aggregates instead of individual packets,
// which is what lets the simulator sustain millions of concurrent flows
// on the virtual clock (ROADMAP item 3, "media-plane scale-out").
//
// Flows are grouped: a group is a population of flows sharing an
// ingress/egress pair, a set of overlay paths through the L2 fabric, and
// a direct-Internet alternative. Each simulated epoch, sharded event
// queues wake in a fixed stagger, convert every flow's packet rate into
// an integer emission (with fractional carry), batch the emissions per
// group, and push each batch through the group's links with
// netsim.Link.TransitAggregate. Two controllers ride on top:
//
//   - The multipath scheduler splits a group's batch across up to
//     MaxPaths overlay paths (weights from relay.SelectPaths), models
//     the receiver-side reordering buffer (packets on faster subpaths
//     wait for the slowest usable subpath, bounded by MaxReorderMs;
//     packets skewed beyond the bound are late drops), and optionally
//     duplicates a fraction of the batch on the two fastest paths for
//     loss repair with duplicate-discard accounting.
//
//   - The offload controller compares the overlay's measured delay
//     (an adaptive.PathEstimator fed by delivered traffic, or by an
//     analytic probe while offloaded) against the direct-Internet path
//     and moves whole groups off the overlay when the overlay gains
//     nothing, with a hysteresis gap plus dwell time so groups don't
//     ping-pong ("Saving Private WAN").
//
// Per-flow conservation is preserved throughout: every emitted packet is
// attributed back to its flow as delivered or as exactly one drop cause
// (loss, queue, admin, late), so the scenario invariant suite can
// account for aggregate flows the same way it accounts for per-packet
// media flows. The hot path (shard step: emission, batch transit,
// attribution) is allocation-free and CI-budgeted (bench_test.go).
//
// Everything runs on the simulation goroutine. The only cross-goroutine
// surface is Published(), which snapshots engine state under a mutex
// once per epoch for admin endpoints.
package flowsim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"vns/internal/adaptive"
	"vns/internal/netsim"
	"vns/internal/telemetry"
)

// MaxPaths bounds the multipath fan-out per group. Four is already past
// the point of diminishing returns for conferencing (the reorder bound
// tightens with every extra path).
const MaxPaths = 4

// PathSpec is one overlay path a group's traffic can take: an ordered
// run of fabric links plus a fixed tail for the legs the fabric doesn't
// model (client access, egress external leg). TailMs is whatever makes
// the path's total comparable with the group's DirectMs — callers built
// on vns typically use ThroughVNSRTT minus the links' propagation sum,
// so a zero-load path costs exactly the dataplane's RTT.
type PathSpec struct {
	Name   string
	Links  []*netsim.Link
	TailMs float64
	// Weight is this path's traffic share; a group's weights are
	// normalized at AddGroup. Paths should arrive fastest-first (the
	// order relay.SelectPaths emits).
	Weight float64
}

// GroupConfig describes one flow population.
type GroupConfig struct {
	// Name identifies the group in status output and traces.
	Name string
	// Paths are the overlay paths, fastest first, at most MaxPaths.
	Paths []PathSpec
	// DirectMs is the direct-Internet delay for this population,
	// RTT-comparable with the paths' totals. <= 0 disables offload for
	// the group (no direct alternative exists).
	DirectMs float64
	// DirectLossRate is the direct path's loss probability.
	DirectLossRate float64
	// MaxReorderMs bounds the receiver reorder buffer: a subpath skewed
	// more than this beyond the fastest delivers late (dropped). 0 means
	// no bound.
	MaxReorderMs float64
	// DupFraction duplicates this fraction of the batch on the two
	// fastest paths for loss repair (0 disables; needs >= 2 paths).
	DupFraction float64
}

// OffloadConfig tunes the overlay/direct offload controller.
type OffloadConfig struct {
	// Enabled turns the controller on; groups still need DirectMs > 0.
	Enabled bool
	// HalfLifeSec is the overlay delay estimator half-life (0 means
	// adaptive.DefaultHalfLifeSec).
	HalfLifeSec float64
	// DwellSec is how long a condition must hold before the transition
	// fires. Default 5.
	DwellSec float64
}

// The offload controller's fixed hysteresis: offload when the overlay's
// advantage over direct (directMs - overlayMs) stays below
// offloadBelowMs, return to the overlay when it climbs above
// reclaimAboveMs — the gap is the hysteresis — and decide nothing
// before the estimator holds minSamples samples.
const (
	offloadBelowMs = 2.0
	reclaimAboveMs = 10.0
	minSamples     = 3
)

func (c OffloadConfig) withDefaults() OffloadConfig {
	if c.HalfLifeSec <= 0 {
		c.HalfLifeSec = adaptive.DefaultHalfLifeSec
	}
	if c.DwellSec <= 0 {
		c.DwellSec = 5
	}
	return c
}

// pktSize is the aggregate packet size in bytes: the media MTU payload.
const pktSize = 1200

// Config configures an Engine.
type Config struct {
	// Sim is the virtual clock. Required.
	Sim *netsim.Sim
	// Shards is the number of staggered epoch queues (default 8). More
	// shards spread the event load across the epoch; flows are assigned
	// round-robin.
	Shards int
	// EpochSec is the aggregation interval (default 0.1). Shorter
	// epochs resolve finer delay dynamics at more events per simulated
	// second.
	EpochSec float64
	// Offload tunes the offload controller.
	Offload OffloadConfig
	// Telemetry, when non-nil, registers the flowsim_* metric families.
	// Leave nil to keep registries (and scenario telemetry digests)
	// untouched.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.EpochSec <= 0 {
		c.EpochSec = 0.1
	}
	c.Offload = c.Offload.withDefaults()
	return c
}

// Totals is the engine-wide accounting. Scheduled always equals
// Delivered + DropsLoss + DropsQueue + DropsAdmin + DropsLate — the
// per-flow conservation invariant summed over the population.
type Totals struct {
	// Flows is the number of flows ever added; OffloadedFlows counts
	// those currently in offloaded groups.
	Flows          int
	OffloadedFlows int
	// Scheduled packets were emitted by flows; Delivered survived
	// (including repairs and DirectDelivered, the subset that took the
	// direct path while offloaded).
	Scheduled       uint64
	Delivered       uint64
	DirectDelivered uint64
	// Drop causes partition Scheduled - Delivered.
	DropsLoss  uint64
	DropsQueue uint64
	DropsAdmin uint64
	DropsLate  uint64
	// Duplication accounting: DupSent extra copies were transmitted,
	// Repaired of them rescued a lost original (counted in Delivered),
	// DupDiscarded arrived for an original that had already made it.
	DupSent      uint64
	Repaired     uint64
	DupDiscarded uint64
	// ReorderWaitMsSum is Σ (wait_ms × packets) over multipath
	// deliveries; ReorderDelivered is the packet count it covers.
	ReorderWaitMsSum float64
	ReorderDelivered uint64
	// OffloadTransitions counts offload + reclaim events.
	OffloadTransitions uint64
}

// Conserved reports whether the delivered/drop partition accounts for
// every scheduled packet.
func (t Totals) Conserved() bool {
	return t.Scheduled == t.Delivered+t.DropsLoss+t.DropsQueue+t.DropsAdmin+t.DropsLate
}

// MeanReorderWaitMs is the mean reorder-buffer wait over all multipath
// deliveries.
func (t Totals) MeanReorderWaitMs() float64 {
	if t.ReorderDelivered == 0 {
		return 0
	}
	return t.ReorderWaitMsSum / float64(t.ReorderDelivered)
}

// OffloadFraction is the fraction of flows currently offloaded.
func (t Totals) OffloadFraction() float64 {
	if t.Flows == 0 {
		return 0
	}
	return float64(t.OffloadedFlows) / float64(t.Flows)
}

// GroupStatus is one group's reader-facing state.
type GroupStatus struct {
	Name      string
	Flows     int
	Paths     int
	Offloaded bool
	// OverlayMs is the smoothed overlay delay estimate; DirectMs the
	// configured direct alternative (0 = none).
	OverlayMs float64
	DirectMs  float64
	// Delivered / Scheduled are the group's lifetime packet counts.
	Scheduled uint64
	Delivered uint64
	// Transitions counts this group's offload+reclaim events;
	// LastTransitionAt is the simulated time of the latest (-1 = never).
	Transitions      uint64
	LastTransitionAt float64
}

// group is the engine-internal population state. All fields are owned
// by the simulation goroutine; readers get copies via the published
// snapshot.
type group struct {
	cfg   GroupConfig
	flows int

	est *adaptive.PathEstimator

	offloaded        bool
	condSince        float64 // when the pending transition condition began; -1 = not pending
	transitions      uint64
	lastTransitionAt float64

	// Fluid carries.
	directLossCarry float64
	dupCarry        float64
	dupLostCarry    float64
	bothLostCarry   float64

	// Per-epoch overlay delay sample accumulation, reset by the
	// controller.
	epochDelaySum  float64
	epochDelivered uint64

	// Lifetime counts for status.
	scheduled uint64
	delivered uint64
}

// batchAlloc distributes one shard-group batch back to flows: the five
// category counts partition the batch total, and the cursor walks them
// as flows consume their emissions in shard order.
type batchAlloc struct {
	counts [5]uint64 // delivered, loss, queue, admin, late
	total  uint64
	cat    int
	rem    uint64
}

// Engine is the aggregate flow engine.
type Engine struct {
	cfg    Config
	sim    *netsim.Sim
	groups []*group
	shards []*shard
	alloc  []batchAlloc // per-group batch scratch, reused every shard step

	flowSeq int // round-robin shard assignment

	started bool
	stopped bool

	tot Totals // exact, simulation-goroutine-owned

	met *metricsSet

	// pub is the cross-goroutine snapshot, refreshed by the controller
	// once per epoch.
	mu        sync.Mutex
	pubTotals Totals
	pubGroups []GroupStatus
}

// New creates an engine on the given virtual clock.
func New(cfg Config) *Engine {
	if cfg.Sim == nil {
		panic("flowsim: Config.Sim is required")
	}
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, sim: cfg.Sim}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &shard{}
	}
	if cfg.Telemetry != nil {
		e.met = newMetricsSet(cfg.Telemetry)
	}
	return e
}

// AddGroup registers a flow population and returns its id. Weights are
// normalized; a group must have at least one path with at least one
// link, unless DirectMs > 0 (a direct-only group starts offloaded).
func (e *Engine) AddGroup(cfg GroupConfig) (int, error) {
	if len(cfg.Paths) > MaxPaths {
		return 0, fmt.Errorf("flowsim: group %q has %d paths, max %d", cfg.Name, len(cfg.Paths), MaxPaths)
	}
	if len(cfg.Paths) == 0 && cfg.DirectMs <= 0 {
		return 0, fmt.Errorf("flowsim: group %q has neither overlay paths nor a direct path", cfg.Name)
	}
	var wsum float64
	for i, p := range cfg.Paths {
		if len(p.Links) == 0 {
			return 0, fmt.Errorf("flowsim: group %q path %d has no links", cfg.Name, i)
		}
		if p.Weight <= 0 {
			return 0, fmt.Errorf("flowsim: group %q path %d has non-positive weight", cfg.Name, i)
		}
		wsum += p.Weight
	}
	for i := range cfg.Paths {
		cfg.Paths[i].Weight /= wsum
	}
	if cfg.DupFraction > 0 && len(cfg.Paths) < 2 {
		return 0, fmt.Errorf("flowsim: group %q duplication needs >= 2 paths", cfg.Name)
	}
	if cfg.DupFraction < 0 || cfg.DupFraction > 1 {
		return 0, fmt.Errorf("flowsim: group %q DupFraction %v outside [0,1]", cfg.Name, cfg.DupFraction)
	}
	g := &group{
		cfg:              cfg,
		est:              adaptive.NewPathEstimator(e.cfg.Offload.HalfLifeSec),
		condSince:        -1,
		lastTransitionAt: -1,
		offloaded:        len(cfg.Paths) == 0,
	}
	e.groups = append(e.groups, g)
	e.alloc = append(e.alloc, batchAlloc{})
	for _, s := range e.shards {
		s.totals = append(s.totals, 0)
	}
	return len(e.groups) - 1, nil
}

// AddFlows adds n flows of ratePps packets/s to a group, round-robin
// across the shards. durSec > 0 bounds each flow's lifetime from now;
// <= 0 means the flow runs until Stop. Must be called on the simulation
// goroutine (or before Start).
func (e *Engine) AddFlows(groupID, n int, ratePps, durSec float64) error {
	if groupID < 0 || groupID >= len(e.groups) {
		return fmt.Errorf("flowsim: no group %d", groupID)
	}
	if n <= 0 || ratePps <= 0 {
		return fmt.Errorf("flowsim: need positive flow count and rate")
	}
	endAt := math.Inf(1)
	if durSec > 0 {
		endAt = e.sim.Now() + durSec
	}
	f := flowState{group: uint32(groupID), ratePps: ratePps, endAt: endAt}
	for i := 0; i < n; i++ {
		s := e.shards[e.flowSeq%len(e.shards)]
		e.flowSeq++
		s.flows = append(s.flows, f)
	}
	e.groups[groupID].flows += n
	e.tot.Flows += n
	return nil
}

// Start schedules the shard epochs and the controller. Shards wake in a
// fixed stagger across the epoch so a million flows cost Shards+1 heap
// events per epoch, not one per flow.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	now := e.sim.Now()
	epoch := e.cfg.EpochSec
	for i, s := range e.shards {
		s.lastAt = now
		offset := epoch * float64(i+1) / float64(len(e.shards))
		e.scheduleShard(s, now+offset)
	}
	e.sim.Schedule(now+epoch, e.controllerStep)
}

func (e *Engine) scheduleShard(s *shard, at netsim.Time) {
	e.sim.Schedule(at, func() {
		if e.stopped {
			return
		}
		e.stepShard(s, e.sim.Now())
		e.scheduleShard(s, e.sim.Now()+e.cfg.EpochSec)
	})
}

// Stop halts scheduling so the simulator can drain: each shard runs
// one final partial epoch up to the current simulated time (so the
// accounting covers the full run exactly), and already-queued epoch
// events return without emitting. Idempotent; call on the simulation
// goroutine or with the simulator quiescent.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	if e.started {
		now := e.sim.Now()
		for _, s := range e.shards {
			e.stepShard(s, now)
		}
		e.updateMetrics()
	}
	e.publish() // final snapshot so admin readers see the last state
}

// Totals returns the exact engine accounting. Simulation goroutine (or
// quiescent simulator) only; concurrent readers use Published.
func (e *Engine) Totals() Totals { return e.tot }

// Groups returns exact per-group status, in AddGroup order. Same
// goroutine discipline as Totals.
func (e *Engine) Groups() []GroupStatus {
	out := make([]GroupStatus, len(e.groups))
	for i, g := range e.groups {
		out[i] = g.status()
	}
	return out
}

func (g *group) status() GroupStatus {
	return GroupStatus{
		Name:             g.cfg.Name,
		Flows:            g.flows,
		Paths:            len(g.cfg.Paths),
		Offloaded:        g.offloaded,
		OverlayMs:        g.est.State().SmoothedMs,
		DirectMs:         g.cfg.DirectMs,
		Scheduled:        g.scheduled,
		Delivered:        g.delivered,
		Transitions:      g.transitions,
		LastTransitionAt: g.lastTransitionAt,
	}
}

// Published returns the epoch-stale snapshot safe to read from any
// goroutine (vnsd's admin endpoint).
func (e *Engine) Published() (Totals, []GroupStatus) {
	e.mu.Lock()
	defer e.mu.Unlock()
	groups := make([]GroupStatus, len(e.pubGroups))
	copy(groups, e.pubGroups)
	return e.pubTotals, groups
}

func (e *Engine) publish() {
	groups := make([]GroupStatus, len(e.groups))
	for i, g := range e.groups {
		groups[i] = g.status()
	}
	e.mu.Lock()
	e.pubTotals = e.tot
	e.pubGroups = groups
	e.mu.Unlock()
}

// CheckConservation verifies, flow by flow, that every scheduled packet
// is delivered or attributed to exactly one drop cause, and that the
// engine totals agree with the per-flow sums. Quiescent simulator only.
func (e *Engine) CheckConservation() error {
	var sum Totals
	for si, s := range e.shards {
		for fi := range s.flows {
			f := &s.flows[fi]
			got := f.delivered + f.dropLoss + f.dropQueue + f.dropAdmin + f.dropLate
			if got != f.scheduled {
				return fmt.Errorf("flowsim: flow %d/%d (group %d): scheduled %d != delivered %d + drops %d",
					si, fi, f.group, f.scheduled, f.delivered, got-f.delivered)
			}
			sum.Scheduled += f.scheduled
			sum.Delivered += f.delivered
			sum.DropsLoss += f.dropLoss
			sum.DropsQueue += f.dropQueue
			sum.DropsAdmin += f.dropAdmin
			sum.DropsLate += f.dropLate
		}
	}
	if sum.Scheduled != e.tot.Scheduled || sum.Delivered != e.tot.Delivered ||
		sum.DropsLoss != e.tot.DropsLoss || sum.DropsQueue != e.tot.DropsQueue ||
		sum.DropsAdmin != e.tot.DropsAdmin || sum.DropsLate != e.tot.DropsLate {
		return fmt.Errorf("flowsim: per-flow sums %+v disagree with engine totals %+v", sum, e.tot)
	}
	if !e.tot.Conserved() {
		return fmt.Errorf("flowsim: totals not conserved: %+v", e.tot)
	}
	return nil
}

// FlowCount returns the number of flows ever added.
func (e *Engine) FlowCount() int { return e.tot.Flows }

// StatusLines renders the published state as sorted text lines for
// admin endpoints and status ticks.
func StatusLines(tot Totals, groups []GroupStatus) []string {
	lines := []string{
		fmt.Sprintf("flows=%d offloaded=%d (%.1f%%) scheduled=%d delivered=%d direct=%d",
			tot.Flows, tot.OffloadedFlows, 100*tot.OffloadFraction(),
			tot.Scheduled, tot.Delivered, tot.DirectDelivered),
		fmt.Sprintf("drops loss=%d queue=%d admin=%d late=%d | dup sent=%d repaired=%d discarded=%d",
			tot.DropsLoss, tot.DropsQueue, tot.DropsAdmin, tot.DropsLate,
			tot.DupSent, tot.Repaired, tot.DupDiscarded),
		fmt.Sprintf("reorder wait mean=%.3fms over %d pkts | transitions=%d",
			tot.MeanReorderWaitMs(), tot.ReorderDelivered, tot.OffloadTransitions),
	}
	sorted := make([]GroupStatus, len(groups))
	copy(sorted, groups)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, g := range sorted {
		mode := "overlay"
		if g.Offloaded {
			mode = "direct"
		}
		lines = append(lines, fmt.Sprintf(
			"group %s: flows=%d paths=%d mode=%s overlay=%.1fms direct=%.1fms delivered=%d/%d transitions=%d",
			g.Name, g.Flows, g.Paths, mode, g.OverlayMs, g.DirectMs,
			g.Delivered, g.Scheduled, g.Transitions))
	}
	return lines
}
