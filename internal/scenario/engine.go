package scenario

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"vns/internal/adaptive"
	"vns/internal/core"
	"vns/internal/experiments"
	"vns/internal/fib"
	"vns/internal/flowsim"
	"vns/internal/media"
	"vns/internal/netsim"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// defaultNumAS keeps a full invariant sweep per checkpoint cheap while
// still yielding hundreds of prefixes and >100 eBGP sessions.
const defaultNumAS = 250

// warmupCheckpointSec is when the init checkpoint (cp 0) runs: enough
// simulated time for the first hellos to circulate. Control events must
// fire at t >= 1 (Validate enforces it).
const warmupCheckpointSec = 0.5

// Result is one completed scenario run.
type Result struct {
	Spec *Spec
	// Trace is the canonical behavioural trace — events, invariant
	// results, FIB generations, the final route trace — and Metrics the
	// digest over the declared metric families (declaredFamilies);
	// golden tests diff each byte-for-byte.
	Trace, Metrics string
	// Prefixes and Sessions describe the assembled world.
	Prefixes, Sessions int
}

// Run assembles the spec's environment, drives its timeline, and checks
// every invariant at every checkpoint. The returned error names the
// first violated invariant with its checkpoint context; the Result is
// returned alongside it with the trace up to the failure.
func Run(spec *Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(spec)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// flow is one scripted media stream with explicit conservation
// accounting: every packet is scheduled, then delivered, dropped by a
// fabric link, or refused for lack of a route.
type flow struct {
	name      string
	endAt     float64
	scheduled int
	delivered int
	dropped   int
	noroute   int
}

// faultRec remembers the last scripted transition of an L2 link, for
// the convergence-bound invariant.
type faultRec struct {
	down bool
	at   float64
}

type engine struct {
	*experiments.Deployment
	// ref is the Loc-RIB the egress announcements filled at set-up; its
	// HasCover is the cover check announce-burst's statics pass.
	ref      *core.Reflector
	spec     *Spec
	vantages []*vns.PoP

	// faults keys by normalized [2]int PoP ids.
	faults map[[2]int]faultRec
	// manualDown tracks egress routers drained via the egress-down op,
	// which the liveness invariant must not expect to follow link state.
	manualDown map[netip.Addr]bool
	// statics is the stack announce-burst pushes and withdraw-burst
	// pops (prefix, egress router).
	statics [][2]string
	// usedCovers guards against splitting the same covering prefix
	// twice across bursts.
	usedCovers map[netip.Prefix]bool
	burstCur   int

	// selectors caches resolved prefix selectors.
	selectors map[string]netip.Prefix

	// Adaptive-routing state (spec.Adaptive != nil): the controller, its
	// probe backend, the scripted probe biases, and each tracked prefix's
	// geographically predicted egress PoP (the "geo" bias target and the
	// gain baseline). All mutated on the sim goroutine only.
	adaptive   *adaptive.Controller
	probe      adaptive.ProbeFunc
	probeBias  map[adaptive.Key]float64
	geoBestPoP map[netip.Prefix]int

	// Aggregate-flow state (spec.Flows != nil): the flowsim engine rides
	// the same virtual clock and shared fabric links; aggSeq numbers the
	// groups agg-flows events create.
	flowEng *flowsim.Engine
	aggSeq  int

	flows []*flow
	// prevLink holds the last checkpoint's per-link counters for the
	// monotonicity half of the conservation invariant, keyed by link
	// name in fabric order.
	prevLink map[string]netsim.LinkStats

	trace, metrics strings.Builder
}

func newEngine(spec *Spec) (*engine, error) {
	cfg := experiments.Config{Seed: spec.Seed, NumAS: spec.NumAS}
	if cfg.NumAS == 0 {
		cfg.NumAS = defaultNumAS
	}
	env := experiments.NewEnv(cfg)
	// The egress routers' announcements fill the Loc-RIB through the one
	// ingest path before the forwarding plane exists, so they cost it no
	// pass. No convergence layer: set-up opens no event.
	ref := core.NewReflector(env.RR, experiments.ReflectorID, env.Telemetry, nil)
	anns := vns.EgressAnnouncements(env.DP, 0)
	for _, pop := range env.Net.PoPs {
		for _, router := range pop.Routers {
			for _, u := range anns[router] {
				ref.Ingest(router, u)
			}
		}
	}
	e := &engine{
		// Telemetry rides the sim clock (no wall ConvergenceClock): metric
		// state is a pure function of the spec, and trace spans carry
		// virtual timestamps, so checkpoints can pin both in the goldens. A
		// zero debounce recompiles synchronously.
		Deployment: env.Deploy(vns.ForwardingConfig{}),
		ref:        ref,
		spec:       spec,
		faults:     make(map[[2]int]faultRec),
		manualDown: make(map[netip.Addr]bool),
		usedCovers: make(map[netip.Prefix]bool),
		selectors:  make(map[string]netip.Prefix),
		prevLink:   make(map[string]netsim.LinkStats),
	}

	// The per-checkpoint invariants examine these PoPs' FIBs; every-PoP
	// sweeps are reserved for the final checkpoint.
	for _, c := range experiments.ContinentVantages {
		e.vantages = append(e.vantages, e.Net.PoP(c))
	}

	// Resolve every prefix selector against the initial steady state, so
	// a scenario studies a pinned destination even as routing moves under
	// it (the failover study's pattern).
	for i := range spec.Events {
		ev := &spec.Events[i]
		if ev.Prefix == "" {
			continue
		}
		if _, err := e.resolveSelector(ev.Prefix); err != nil {
			return nil, fmt.Errorf("scenario %s: event %d: %w", spec.Name, i, err)
		}
	}
	if spec.Adaptive != nil {
		if err := e.setupAdaptive(); err != nil {
			return nil, fmt.Errorf("scenario %s: adaptive: %w", spec.Name, err)
		}
	}
	if spec.Flows != nil {
		e.setupFlows()
	}
	return e, nil
}

// resolveSelector resolves "#N" or "egress=CODE" to a concrete prefix,
// pinning one with force-exit when no prefix geo-routes to the
// requested egress naturally.
func (e *engine) resolveSelector(sel string) (netip.Prefix, error) {
	if p, ok := e.selectors[sel]; ok {
		return p, nil
	}
	topoPfx := e.Topo.Prefixes
	var out netip.Prefix
	switch {
	case strings.HasPrefix(sel, "#"):
		var n int
		if _, err := fmt.Sscanf(sel, "#%d", &n); err != nil || n < 0 || n >= len(topoPfx) {
			return netip.Prefix{}, fmt.Errorf("bad prefix selector %q (have %d prefixes)", sel, len(topoPfx))
		}
		out = topoPfx[n].Prefix
	case strings.HasPrefix(sel, "egress="):
		pop := e.Net.PoP(strings.TrimPrefix(sel, "egress="))
		eng := e.Fwd.EngineByID(e.vantages[0].ID)
		for i := range topoPfx {
			if nh, ok := eng.Lookup(topoPfx[i].Prefix.Addr()); ok && nh.PoP == pop.ID {
				out = topoPfx[i].Prefix
				break
			}
		}
		if !out.IsValid() {
			// Nothing geo-routes there at this scale: pin a prefix with the
			// management interface. A forced exit only binds when the forced
			// router carries a candidate session for the prefix's origin, so
			// pick the router from the candidate set at the requested PoP.
			for i := range topoPfx {
				var router netip.Addr
				for _, c := range e.Peering.Candidates(topoPfx[i].Origin) {
					if c.Session.PoP == pop {
						router = c.Session.Router
						break
					}
				}
				if !router.IsValid() {
					continue
				}
				if err := e.RR.ForceExit(topoPfx[i].Prefix, router); err != nil {
					return netip.Prefix{}, err
				}
				out = topoPfx[i].Prefix
				break
			}
		}
		if !out.IsValid() {
			return netip.Prefix{}, fmt.Errorf("selector %q: no routable prefix to pin", sel)
		}
	default:
		return netip.Prefix{}, fmt.Errorf("bad prefix selector %q", sel)
	}
	e.selectors[sel] = out
	return out, nil
}

func (e *engine) run() (*Result, error) {
	res := &Result{
		Spec:     e.spec,
		Prefixes: len(e.Topo.Prefixes),
		Sessions: len(e.Peering.Sessions()),
	}
	seed := e.spec.Seed
	if seed == 0 {
		seed = e.Cfg.Seed
	}
	defer func() { res.Trace, res.Metrics = e.trace.String(), e.metrics.String() }()
	fmt.Fprintf(&e.trace, "# scenario %s seed=%d numAS=%d\n", e.spec.Name, seed, e.Cfg.NumAS)
	fmt.Fprintf(&e.trace, "# prefixes=%d sessions=%d vantages=%s\n",
		res.Prefixes, res.Sessions, joinPoPs(e.vantages))

	e.Monitor.Start()
	if e.adaptive != nil {
		e.adaptive.Start()
	}
	if e.flowEng != nil {
		e.flowEng.Start()
	}
	e.Sim.Run(warmupCheckpointSec)
	if err := e.checkpoint(0, "init", warmupCheckpointSec, false); err != nil {
		return res, err
	}

	cp := 0
	for i := range e.spec.Events {
		ev := &e.spec.Events[i]
		e.Sim.Run(ev.At)
		if err := e.apply(ev); err != nil {
			return res, fmt.Errorf("scenario %s: event %d (%s): %w", e.spec.Name, i, ev.Op, err)
		}
		if ev.Op == OpMediaFlow {
			// Flows are traffic, not control events: they run across
			// later checkpoints and are settled by the final one.
			fmt.Fprintf(&e.trace, "t=%.3f flow %s ingress=%s dst=%s dur=%.1fs\n",
				ev.At, ev.Prefix, ev.PoP, e.selectors[ev.Prefix], ev.DurSec)
			continue
		}
		if ev.Op == OpAggFlows {
			// Same deal for aggregate flows; applyAggFlows wrote the
			// trace line (it knows the selected path set).
			continue
		}
		cp++
		cpAt := ev.checkpointAt()
		e.Sim.Run(cpAt)
		if err := e.checkpoint(cp, describe(ev), cpAt, false); err != nil {
			return res, err
		}
	}

	endAt := e.spec.end()
	if endAt < e.Sim.Now() {
		endAt = e.Sim.Now()
	}
	e.Sim.Run(endAt)
	e.Monitor.Stop()
	if e.adaptive != nil {
		// Stop before the final drain: the probe loop reschedules itself
		// until stopped, and conservation requires an empty event queue.
		e.adaptive.Stop()
	}
	if e.flowEng != nil {
		// Same: halt the epoch queues (flushing the last partial epoch)
		// so RunAll can drain to zero pending events.
		e.flowEng.Stop()
	}
	e.Sim.RunAll()
	return res, e.checkpoint(cp+1, "final", endAt, true)
}

// describe renders an event for trace and error context.
func describe(ev *Event) string {
	parts := []string{ev.Op}
	for _, p := range []string{ev.Link, ev.PoP, ev.Router, ev.Prefix} {
		if p != "" {
			parts = append(parts, p)
		}
	}
	if ev.Count > 0 {
		parts = append(parts, fmt.Sprintf("n=%d", ev.Count))
	}
	return strings.Join(parts, " ")
}

func (e *engine) linkPoPs(link string) (*vns.PoP, *vns.PoP, error) {
	codes := strings.Split(link, "-")
	a, b := e.Net.PoP(codes[0]), e.Net.PoP(codes[1])
	if e.Fwd.Fabric().Link(a, b) == nil {
		return nil, nil, fmt.Errorf("no L2 link %s", link)
	}
	return a, b, nil
}

func (e *engine) routerOf(sel string) (netip.Addr, error) {
	var code string
	var n int
	if _, err := fmt.Sscanf(sel, "%3s:%d", &code, &n); err != nil || n < 1 {
		if _, err := fmt.Sscanf(sel, "%2s:%d", &code, &n); err != nil || n < 1 {
			return netip.Addr{}, fmt.Errorf("bad router selector %q (want CODE:N)", sel)
		}
	}
	p := e.Net.PoP(code)
	if n > len(p.Routers) {
		return netip.Addr{}, fmt.Errorf("router selector %q: PoP has %d routers", sel, len(p.Routers))
	}
	return p.Routers[n-1], nil
}

func (e *engine) recordFault(a, b *vns.PoP, down bool, at float64) {
	i, j := a.ID, b.ID
	if i > j {
		i, j = j, i
	}
	e.faults[[2]int{i, j}] = faultRec{down: down, at: at}
}

// convKindFor maps a scripted op to its convergence event kind, "" for
// ops that do not mutate routing and for ops the failover controller
// converges, which opens its own event: fault injections ("failover")
// and drains ("drain").
func convKindFor(op string) string {
	switch op {
	case OpAnnounceBurst, OpWithdrawBurst:
		return telemetry.ConvChurn
	case OpForceExit, OpUnforce, OpExempt, OpUnexempt:
		return telemetry.ConvMgmt
	}
	return ""
}

func (e *engine) apply(ev *Event) error {
	// Routing-mutating ops become convergence events: the reflector
	// mutations notify the forwarding plane inside the op, so one
	// compile-exclusive forwarding stage plus the attributed fib_compile
	// observations decompose it. On the virtual clock every duration is
	// zero — the event and stage counts are what the goldens pin.
	if kind := convKindFor(ev.Op); kind != "" {
		ce := e.Fwd.Convergence().Begin(kind)
		mark := ce.Mark()
		defer func() {
			ce.StageExclusive(telemetry.StageForwarding, mark)
			ce.Finish()
		}()
	}
	now := e.Sim.Now()
	switch ev.Op {
	case OpLinkDown, OpLinkUp:
		a, b, err := e.linkPoPs(ev.Link)
		if err != nil {
			return err
		}
		down := ev.Op == OpLinkDown
		if down {
			e.Injector.LinkDownAt(now, a, b)
		} else {
			e.Injector.LinkUpAt(now, a, b)
		}
		e.recordFault(a, b, down, now)
	case OpFlapLink:
		a, b, err := e.linkPoPs(ev.Link)
		if err != nil {
			return err
		}
		e.Injector.FlapLink(a, b, now, ev.PeriodSec, ev.Cycles)
		// The last cycle leaves the link up, half a period after its
		// final down.
		lastUp := now + float64(ev.Cycles-1)*ev.PeriodSec + ev.PeriodSec/2
		e.recordFault(a, b, false, lastUp)
	case OpDelaySpike:
		a, b, err := e.linkPoPs(ev.Link)
		if err != nil {
			return err
		}
		e.Injector.DelaySpikeAt(now, a, b, ev.ExtraMs, ev.DurSec)
	case OpPoPFail, OpPoPRecover:
		p := e.Net.PoP(ev.PoP)
		down := ev.Op == OpPoPFail
		if down {
			e.Injector.FailPoPAt(now, p)
		} else {
			e.Injector.RecoverPoPAt(now, p)
		}
		for _, l := range e.Net.L2Links() {
			if l[0] == p || l[1] == p {
				e.recordFault(l[0], l[1], down, now)
			}
		}
	case OpEgressDown, OpEgressUp:
		r, err := e.routerOf(ev.Router)
		if err != nil {
			return err
		}
		down := ev.Op == OpEgressDown
		e.Controller.Drain(r, down)
		if down {
			e.manualDown[r] = true
		} else {
			delete(e.manualDown, r)
		}
	case OpForceExit:
		r, err := e.routerOf(ev.Router)
		if err != nil {
			return err
		}
		pfx := e.selectors[ev.Prefix]
		return e.RR.ForceExit(pfx, r)
	case OpUnforce:
		e.RR.Unforce(e.selectors[ev.Prefix])
	case OpExempt:
		e.RR.Exempt(e.selectors[ev.Prefix])
	case OpUnexempt:
		e.RR.Unexempt(e.selectors[ev.Prefix])
	case OpAnnounceBurst:
		return e.announceBurst(ev)
	case OpWithdrawBurst:
		n := ev.Count
		if n > len(e.statics) {
			n = len(e.statics)
		}
		for i := 0; i < n; i++ {
			top := e.statics[len(e.statics)-1]
			e.statics = e.statics[:len(e.statics)-1]
			e.RR.RemoveStatic(netip.MustParsePrefix(top[0]), netip.MustParseAddr(top[1]))
		}
	case OpMediaFlow:
		return e.startFlow(ev)
	case OpAggFlows:
		return e.applyAggFlows(ev)
	case OpProbeBias:
		return e.applyProbeBias(ev)
	case OpProbeOscillate:
		return e.applyProbeOscillate(ev)
	case OpCheckpoint:
		// Nothing to do: the run loop checkpoints after the settle.
	default:
		return fmt.Errorf("unknown op %q", ev.Op)
	}
	return nil
}

// announceBurst installs Count static more-specifics at the named PoP:
// each is the upper half of a distinct originated covering prefix, so
// the covering prefixes' own representative addresses (their network
// addresses, in the lower half) keep resolving unchanged.
func (e *engine) announceBurst(ev *Event) error {
	pop := e.Net.PoP(ev.PoP)
	topoPfx := e.Topo.Prefixes
	installed := 0
	for installed < ev.Count && e.burstCur < len(topoPfx) {
		cover := topoPfx[e.burstCur].Prefix
		e.burstCur++
		if cover.Bits() > 24 || e.usedCovers[cover] {
			continue
		}
		e.usedCovers[cover] = true
		sub := upperHalf(cover)
		router := pop.Routers[installed%len(pop.Routers)]
		if err := e.RR.AddStatic(sub, router, e.ref.HasCover); err != nil {
			return err
		}
		e.statics = append(e.statics, [2]string{sub.String(), router.String()})
		installed++
	}
	if installed < ev.Count {
		return fmt.Errorf("announce-burst: only %d/%d covering prefixes available", installed, ev.Count)
	}
	return nil
}

// upperHalf returns the upper-half more-specific of an IPv4 prefix:
// one bit longer, network address with the new bit set.
func upperHalf(p netip.Prefix) netip.Prefix {
	a := p.Addr().As4()
	bit := uint(31 - p.Bits())
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	v |= 1 << bit
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), p.Bits()+1)
}

func (e *engine) startFlow(ev *Event) error {
	ingress := e.Net.PoP(ev.PoP)
	dst := e.selectors[ev.Prefix].Addr()
	seed := e.Cfg.Seed ^ uint64(len(e.flows)+1)
	tr := media.GenerateTrace(media.TraceConfig{DurationSec: ev.DurSec, Seed: seed})
	fl := &flow{
		name:  fmt.Sprintf("%s->%s", ev.PoP, ev.Prefix),
		endAt: e.Sim.Now() + ev.DurSec,
	}
	e.flows = append(e.flows, fl)
	eng := e.Fwd.EngineByID(ingress.ID)
	start := e.Sim.Now()
	for i := range tr.Packets {
		p := tr.Packets[i]
		seq := uint32(i)
		e.Sim.Schedule(start+p.AtSec, func() {
			fl.scheduled++
			_, ok := eng.Forward(e.Sim, dst, netsim.Packet{Seq: seq, Size: p.Size},
				func(netsim.Packet, fib.NextHop) { fl.delivered++ },
				func(int) { fl.dropped++ })
			if !ok {
				fl.noroute++
			}
		})
	}
	return nil
}

func joinPoPs(pops []*vns.PoP) string {
	codes := make([]string, len(pops))
	for i, p := range pops {
		codes[i] = p.Code
	}
	return strings.Join(codes, ",")
}

// sortedDownEgresses renders the withdrawn egress set deterministically.
func (e *engine) sortedDownEgresses() []string {
	var out []string
	for _, id := range e.RR.Policy().DownEgresses() {
		out = append(out, id.String())
	}
	sort.Strings(out)
	return out
}
