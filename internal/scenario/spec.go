// Package scenario is the deterministic end-to-end conformance harness:
// it assembles a full VNS instance (topology, GeoIP, peering, L2 fabric,
// liveness monitoring, per-PoP FIB engines) from a compact declarative
// spec, drives a scripted event timeline on the virtual clock, quiesces
// after every event, and runs an invariant suite across control and data
// plane. Each run emits a canonical trace — simulated timestamps only,
// stable ordering — and a digest over the declared metric families
// (metrics.go); golden tests diff both byte-for-byte.
package scenario

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"vns/internal/detsort"
)

//go:embed specs/*.json
var specFS embed.FS

// Spec is one declarative scenario: the world to assemble plus the event
// timeline to drive through it. Specs are checked in as JSON under
// specs/ and embedded in the package.
type Spec struct {
	// Name identifies the scenario; its goldens live at
	// testdata/golden/<Name>.trace and <Name>.metrics.
	Name string `json:"name"`
	// Seed drives every stochastic component (0 uses the environment's
	// default). Seed sweeps override it.
	Seed uint64 `json:"seed"`
	// NumAS sizes the synthetic Internet; 0 means 250, which keeps a
	// full invariant sweep per checkpoint under a second.
	NumAS int `json:"numAS"`
	// Events is the scripted timeline, sorted by At.
	Events []Event `json:"events"`
	// Adaptive, when present, runs the measured-delay adaptive routing
	// controller (internal/adaptive) over the scenario: probe rounds on
	// the virtual clock feed per-path estimators, and overrides install
	// on the GeoRR when measurement contradicts geography. The
	// congruence invariant treats those overrides as sanctioned
	// divergence, and checkpoints report the override set.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
	// Flows, when present, runs the aggregate flow engine
	// (internal/flowsim) over the scenario's shared fabric: agg-flows
	// events launch flow populations whose overlay paths are selected
	// from the L2 topology, optionally split multipath and offloaded to
	// their direct-Internet alternative. The conservation invariant then
	// also accounts for every aggregate packet, and checkpoints report
	// the engine's totals.
	Flows *FlowsSpec `json:"flows,omitempty"`
}

// AdaptiveSpec configures the scenario's adaptive controller. Zero
// fields take the internal/adaptive defaults.
type AdaptiveSpec struct {
	// IntervalSec is the probe round period (default 1.0).
	IntervalSec float64 `json:"intervalSec,omitempty"`
	// Budget caps probes per round; 0 probes every tracked path.
	Budget int `json:"budget,omitempty"`
	// HalfLifeSec is the estimator EWMA half-life.
	HalfLifeSec float64 `json:"halfLifeSec,omitempty"`
	// MinSamples is the estimator warm-up the decision layer waits for.
	MinSamples uint64 `json:"minSamples,omitempty"`
	// Prefixes lists "#N" selectors to track; empty tracks every
	// originated, geolocated, unforced prefix.
	Prefixes []string `json:"prefixes,omitempty"`
}

func (a *AdaptiveSpec) validate() error {
	if a.HalfLifeSec < 0 {
		return fmt.Errorf("adaptive: negative halfLifeSec")
	}
	if a.IntervalSec < 0 {
		return fmt.Errorf("adaptive: negative intervalSec")
	}
	if a.Budget < 0 {
		return fmt.Errorf("adaptive: negative budget")
	}
	for _, sel := range a.Prefixes {
		if !strings.HasPrefix(sel, "#") {
			return fmt.Errorf("adaptive: prefix selector %q (want \"#N\")", sel)
		}
	}
	return nil
}

// FlowsSpec configures the scenario's aggregate flow engine. Zero
// fields take the internal/flowsim defaults.
type FlowsSpec struct {
	// Shards is the number of staggered epoch queues.
	Shards int `json:"shards,omitempty"`
	// MaxPaths caps the multipath fan-out per group (default 2, hard cap
	// flowsim.MaxPaths); MaxSkewMs is the path-selection skew gate
	// (default 30): candidate overlay paths slower than the fastest by
	// more than this are not used at all.
	MaxPaths  int     `json:"maxPaths,omitempty"`
	MaxSkewMs float64 `json:"maxSkewMs,omitempty"`
	// MaxReorderMs bounds each group's receiver reorder buffer (0 = no
	// bound); DupFraction duplicates that fraction of traffic on the two
	// fastest paths for loss repair (ignored for single-path groups).
	MaxReorderMs float64 `json:"maxReorderMs,omitempty"`
	DupFraction  float64 `json:"dupFraction,omitempty"`
	// TailMs is the fixed per-path tail for the legs the fabric doesn't
	// model (client access, external egress leg), making overlay totals
	// comparable with the events' directMs.
	TailMs float64 `json:"tailMs,omitempty"`
	// Offload enables the overlay/direct offload controller; DwellSec
	// and HalfLifeSec tune its dwell and estimator (flowsim defaults
	// when zero).
	Offload     bool    `json:"offload,omitempty"`
	DwellSec    float64 `json:"dwellSec,omitempty"`
	HalfLifeSec float64 `json:"halfLifeSec,omitempty"`
}

func (f *FlowsSpec) validate() error {
	fields := map[string]float64{
		"maxSkewMs": f.MaxSkewMs, "maxReorderMs": f.MaxReorderMs,
		"tailMs": f.TailMs, "dwellSec": f.DwellSec, "halfLifeSec": f.HalfLifeSec,
	}
	// Sorted so two bad fields always report the same one first.
	for _, name := range detsort.Keys(fields) {
		if fields[name] < 0 {
			return fmt.Errorf("flows: negative %s", name)
		}
	}
	if f.Shards < 0 || f.MaxPaths < 0 {
		return fmt.Errorf("flows: negative shards/maxPaths")
	}
	if f.DupFraction < 0 || f.DupFraction > 1 {
		return fmt.Errorf("flows: dupFraction %v outside [0,1]", f.DupFraction)
	}
	return nil
}

// Event is one scripted action on the timeline. Which fields matter
// depends on Op; Validate rejects malformed combinations.
type Event struct {
	// At is the simulated time the event fires.
	At float64 `json:"at"`
	// Op selects the action; see the Op* constants.
	Op string `json:"op"`
	// Link names an L2 adjacency "SIN-SYD" (link-down, link-up,
	// flap-link, delay-spike).
	Link string `json:"link,omitempty"`
	// PoP names a PoP by code (pop-fail, pop-recover, announce-burst's
	// egress site, media-flow's ingress).
	PoP string `json:"pop,omitempty"`
	// Router selects an egress router "SYD:1" (egress-down, egress-up,
	// force-exit).
	Router string `json:"router,omitempty"`
	// Prefix selects a destination: "#N" is the N-th originated prefix,
	// "egress=CODE" the first prefix whose steady-state egress is that
	// PoP (pinned there via force-exit when none is, mirroring the
	// failover study).
	Prefix string `json:"prefix,omitempty"`
	// Count sizes announce-burst / withdraw-burst.
	Count int `json:"count,omitempty"`
	// ExtraMs is the delay-spike magnitude.
	ExtraMs float64 `json:"extraMs,omitempty"`
	// DurSec is the delay-spike or media-flow duration.
	DurSec float64 `json:"durSec,omitempty"`
	// PeriodSec and Cycles shape flap-link (down at At + i*period, up
	// half a period later).
	PeriodSec float64 `json:"periodSec,omitempty"`
	Cycles    int     `json:"cycles,omitempty"`
	// RatePps is each aggregate flow's packet rate and DirectMs the
	// population's direct-Internet delay alternative (0 = none), both
	// for agg-flows.
	RatePps  float64 `json:"ratePps,omitempty"`
	DirectMs float64 `json:"directMs,omitempty"`
	// SettleSec overrides the quiesce window before this event's
	// checkpoint; 0 means the default (past detection plus up-hold).
	SettleSec float64 `json:"settleSec,omitempty"`
}

// Event ops.
const (
	OpLinkDown      = "link-down"
	OpLinkUp        = "link-up"
	OpFlapLink      = "flap-link"
	OpPoPFail       = "pop-fail"
	OpPoPRecover    = "pop-recover"
	OpDelaySpike    = "delay-spike"
	OpEgressDown    = "egress-down"
	OpEgressUp      = "egress-up"
	OpForceExit     = "force-exit"
	OpUnforce       = "unforce"
	OpExempt        = "exempt"
	OpUnexempt      = "unexempt"
	OpAnnounceBurst = "announce-burst"
	OpWithdrawBurst = "withdraw-burst"
	OpMediaFlow     = "media-flow"
	// Adaptive-only ops (the spec must set "adaptive"). probe-bias adds
	// ExtraMs to every probe of the (PoP, Prefix) path — PoP is a code
	// or "geo" for the prefix's geographically predicted egress; ExtraMs
	// 0 clears the bias. probe-oscillate toggles the bias on for half of
	// each period, off for the other half, Cycles times — the flap-
	// damping workload. checkpoint observes state without acting (needs
	// "adaptive" or "flows"), so background-controller convergence can
	// be watched mid-run.
	OpProbeBias      = "probe-bias"
	OpProbeOscillate = "probe-oscillate"
	OpCheckpoint     = "checkpoint"
	// agg-flows (the spec must set "flows") launches Count aggregate
	// flows of RatePps each from Link's first PoP to its second for
	// DurSec, over overlay paths selected from the fabric, with DirectMs
	// as the direct-Internet alternative. Like media-flow it is traffic,
	// not a control event: it runs across later checkpoints and is
	// settled by the final one.
	OpAggFlows = "agg-flows"
)

// defaultSettleSec is the quiesce window between an event and its
// checkpoint: comfortably past liveness detection (150 ms) plus the
// up-hold hysteresis (1 s) so both halves of any transition have landed.
const defaultSettleSec = 2.5

// settle returns the event's quiesce window.
func (ev *Event) settle() float64 {
	if ev.SettleSec > 0 {
		return ev.SettleSec
	}
	return defaultSettleSec
}

// checkpointAt returns the simulated time of the event's checkpoint: the
// settle window after the event's *last* action (flaps stretch over
// cycles, delay spikes over their duration).
func (ev *Event) checkpointAt() float64 {
	end := ev.At
	switch ev.Op {
	case OpFlapLink, OpProbeOscillate:
		end += float64(ev.Cycles) * ev.PeriodSec
	case OpDelaySpike:
		end += ev.DurSec
	}
	return end + ev.settle()
}

// Validate checks the spec's internal consistency — without assembling
// an environment, so sweeps can reject bad input cheaply.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if s.NumAS < 0 {
		return fmt.Errorf("scenario %s: negative numAS", s.Name)
	}
	if s.Adaptive != nil {
		if err := s.Adaptive.validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Flows != nil {
		if err := s.Flows.validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	// The first event may not fire before the warmup checkpoint.
	prev := warmupCheckpointSec
	for i := range s.Events {
		ev := &s.Events[i]
		switch ev.Op {
		case OpProbeBias, OpProbeOscillate:
			if s.Adaptive == nil {
				return fmt.Errorf("scenario %s: event %d: op %s needs \"adaptive\" set", s.Name, i, ev.Op)
			}
		case OpCheckpoint:
			// Pure observation: meaningful whenever a background
			// controller (adaptive or flows) evolves between events.
			if s.Adaptive == nil && s.Flows == nil {
				return fmt.Errorf("scenario %s: event %d: op %s needs \"adaptive\" or \"flows\" set", s.Name, i, ev.Op)
			}
		case OpAggFlows:
			if s.Flows == nil {
				return fmt.Errorf("scenario %s: event %d: op %s needs \"flows\" set", s.Name, i, ev.Op)
			}
		}
		if ev.At < prev {
			return fmt.Errorf("scenario %s: event %d (%s) at %g fires inside the previous checkpoint's settle window (ends %g)",
				s.Name, i, ev.Op, ev.At, prev)
		}
		if err := ev.validate(); err != nil {
			return fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
		}
		// Flows (per-packet media and aggregate) run concurrently with
		// later events by design; everything else must quiesce before
		// the next event fires.
		if ev.Op != OpMediaFlow && ev.Op != OpAggFlows {
			prev = ev.checkpointAt()
		}
	}
	return nil
}

func (ev *Event) validate() error {
	needLink := func() error {
		if len(strings.Split(ev.Link, "-")) != 2 {
			return fmt.Errorf("%s needs link \"A-B\", got %q", ev.Op, ev.Link)
		}
		return nil
	}
	switch ev.Op {
	case OpLinkDown, OpLinkUp:
		return needLink()
	case OpFlapLink:
		if ev.PeriodSec <= 0 || ev.Cycles <= 0 {
			return fmt.Errorf("flap-link needs periodSec > 0 and cycles > 0")
		}
		return needLink()
	case OpDelaySpike:
		if ev.ExtraMs <= 0 || ev.DurSec <= 0 {
			return fmt.Errorf("delay-spike needs extraMs > 0 and durSec > 0")
		}
		return needLink()
	case OpPoPFail, OpPoPRecover:
		if ev.PoP == "" {
			return fmt.Errorf("%s needs pop", ev.Op)
		}
	case OpEgressDown, OpEgressUp:
		if ev.Router == "" {
			return fmt.Errorf("%s needs router \"CODE:N\"", ev.Op)
		}
	case OpForceExit:
		if ev.Router == "" || ev.Prefix == "" {
			return fmt.Errorf("force-exit needs router and prefix")
		}
	case OpUnforce, OpExempt, OpUnexempt:
		if ev.Prefix == "" {
			return fmt.Errorf("%s needs prefix", ev.Op)
		}
	case OpAnnounceBurst:
		if ev.Count <= 0 || ev.PoP == "" {
			return fmt.Errorf("announce-burst needs count > 0 and pop")
		}
	case OpWithdrawBurst:
		if ev.Count <= 0 {
			return fmt.Errorf("withdraw-burst needs count > 0")
		}
	case OpMediaFlow:
		if ev.PoP == "" || ev.Prefix == "" || ev.DurSec <= 0 {
			return fmt.Errorf("media-flow needs pop (ingress), prefix and durSec > 0")
		}
	case OpAggFlows:
		if ev.Count <= 0 || ev.RatePps <= 0 || ev.DurSec <= 0 {
			return fmt.Errorf("agg-flows needs count > 0, ratePps > 0 and durSec > 0")
		}
		if ev.DirectMs < 0 {
			return fmt.Errorf("agg-flows needs directMs >= 0")
		}
		return needLink()
	case OpProbeBias:
		if ev.PoP == "" || ev.Prefix == "" {
			return fmt.Errorf("probe-bias needs pop (code or \"geo\") and prefix")
		}
	case OpProbeOscillate:
		if ev.PoP == "" || ev.Prefix == "" || ev.ExtraMs == 0 ||
			ev.PeriodSec <= 0 || ev.Cycles <= 0 {
			return fmt.Errorf("probe-oscillate needs pop, prefix, extraMs != 0, periodSec > 0 and cycles > 0")
		}
	case OpCheckpoint:
		// A pure observation point: any operand is a spec mistake.
		if ev.PoP != "" || ev.Prefix != "" || ev.Link != "" || ev.Router != "" ||
			ev.ExtraMs != 0 || ev.PeriodSec != 0 || ev.Cycles != 0 ||
			ev.DurSec != 0 || ev.Count != 0 || ev.RatePps != 0 || ev.DirectMs != 0 {
			return fmt.Errorf("checkpoint takes no operands")
		}
	default:
		return fmt.Errorf("unknown op %q", ev.Op)
	}
	return nil
}

// end returns the simulated time the run must reach: past every
// checkpoint, every flow's finish, and a drain window for in-flight
// packets so conservation can be checked exactly.
func (s *Spec) end() float64 {
	end := 0.0
	for i := range s.Events {
		ev := &s.Events[i]
		if cp := ev.checkpointAt(); cp > end {
			end = cp
		}
		if ev.Op == OpMediaFlow || ev.Op == OpAggFlows {
			if fin := ev.At + ev.DurSec + 2.0; fin > end {
				end = fin
			}
		}
	}
	return end
}

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load returns the embedded spec with the given name.
func Load(name string) (*Spec, error) {
	data, err := specFS.ReadFile("specs/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: no embedded spec %q", name)
	}
	return ParseSpec(data)
}

// Names lists every embedded spec in sorted order.
func Names() []string {
	entries, err := fs.ReadDir(specFS, "specs")
	if err != nil {
		panic(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(out)
	return out
}
