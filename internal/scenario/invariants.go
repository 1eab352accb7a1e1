package scenario

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"vns/internal/core"
	"vns/internal/fib"
	"vns/internal/geo"
	"vns/internal/health"
	"vns/internal/vns"
)

// convergeBoundSec bounds how long the stack may take to converge after
// a scripted transition: liveness detection (150 ms of silence plus a
// 50 ms tick), the up-hold hysteresis (1 s), long-haul hello propagation
// (~100 ms one way), and the synchronous FIB republish. Checkpoints run
// at least defaultSettleSec after the last scripted action, so a system
// meeting this bound is quiescent when the invariant suite fires; a
// system missing it fails the convergence invariant, not just a flaky
// assertion somewhere downstream.
const convergeBoundSec = 2.0

// checkpoint quiesces nothing itself — the run loop has already driven
// the simulator past the settle window — and runs the five-invariant
// suite from every vantage, appending one canonical block to the trace.
// Non-final checkpoints sweep the spec's vantages; the final checkpoint
// sweeps every PoP.
func (e *engine) checkpoint(cp int, label string, at float64, final bool) error {
	vants := e.vantages
	if final {
		vants = e.Net.PoPs
	}
	fmt.Fprintf(&e.trace, "t=%.3f cp=%d %s\n", at, cp, label)

	wrap := func(inv string, err error) error {
		fmt.Fprintf(&e.trace, "  FAIL %s: %v\n", inv, err)
		return fmt.Errorf("scenario %s: checkpoint %d (%s) t=%.3f: invariant %s: %w",
			e.spec.Name, cp, label, at, inv, err)
	}

	uni := e.universe()

	// Invariant 1 — congruence: the FIB's egress for every geo-routed
	// prefix matches an independent great-circle oracle.
	var parts []string
	for _, v := range vants {
		okN, skip, err := e.checkCongruence(v)
		if err != nil {
			return wrap("congruence", err)
		}
		parts = append(parts, fmt.Sprintf("%s=%d/skip%d", v.Code, okN, skip))
	}
	fmt.Fprintf(&e.trace, "  congruence %s\n", strings.Join(parts, " "))

	// Invariant 2 — three-way agreement: compiled FIB lookup, reference
	// control-plane resolution (with LPM cover fallback), and the netsim
	// fabric's view of the path must all agree.
	parts = parts[:0]
	for _, v := range vants {
		n, err := e.checkThreeWay(v, uni)
		if err != nil {
			return wrap("threeway", err)
		}
		parts = append(parts, fmt.Sprintf("%s=%d", v.Code, n))
	}
	fmt.Fprintf(&e.trace, "  threeway %s\n", strings.Join(parts, " "))

	// Invariant 3 — no forwarding loop: an IP-style hop-by-hop walk,
	// re-consulting each transit PoP's own FIB, terminates at a PoP that
	// exits locally without revisiting anyone.
	parts = parts[:0]
	for _, v := range vants {
		n, err := e.checkNoLoop(v, uni)
		if err != nil {
			return wrap("noloop", err)
		}
		parts = append(parts, fmt.Sprintf("%s=%d", v.Code, n))
	}
	fmt.Fprintf(&e.trace, "  noloop %s\n", strings.Join(parts, " "))

	// Invariant 4 — convergence bound: every scripted transition older
	// than the bound is reflected in liveness state, the IGP view, and
	// the withdrawn-egress set.
	settled, err := e.checkConvergence(at)
	if err != nil {
		return wrap("convergence", err)
	}
	fmt.Fprintf(&e.trace, "  convergence settled=%d\n", settled)

	// Invariant 5 — conservation: per-link counters are monotone, every
	// drop is attributed to exactly one cause, and (at the final
	// checkpoint) every scheduled flow packet is accounted for.
	agg, err := e.checkConservation(final)
	if err != nil {
		return wrap("conservation", err)
	}

	// Canonical state block: FIB generations, failed state, traffic.
	parts = parts[:0]
	for _, v := range vants {
		s := e.Fwd.EngineByID(v.ID).Publisher().Stats()
		parts = append(parts, fmt.Sprintf("%s gen=%d size=%d", v.Code, s.Generation, s.Prefixes))
	}
	fmt.Fprintf(&e.trace, "  fib %s\n", strings.Join(parts, " "))
	fmt.Fprintf(&e.trace, "  igp-down %s\n", e.igpDownLinks())
	fmt.Fprintf(&e.trace, "  egress-down %s\n", orDash(strings.Join(e.sortedDownEgresses(), ",")))
	if e.adaptive != nil {
		st := e.adaptive.Status(at)
		fmt.Fprintf(&e.trace, "  adaptive overrides=%d suppressed=%d samples=%d\n",
			len(st.Overrides), len(st.Suppressed), st.Samples)
		for _, o := range st.Overrides {
			fmt.Fprintf(&e.trace, "  override %v %s>%s adv=%.1fms\n",
				o.Prefix, o.GeoCode, o.Code, o.AdvantageMs)
		}
		for _, s := range st.Suppressed {
			fmt.Fprintf(&e.trace, "  damped %v penalty=%.0f flips=%d\n",
				s.Prefix, s.Penalty, s.Flips)
		}
		if final {
			n, geoMs, adMs := e.adaptiveGain()
			fmt.Fprintf(&e.trace, "  adaptive-gain prefixes=%d geo=%.1fms adaptive=%.1fms\n",
				n, geoMs, adMs)
		}
	}
	fmt.Fprintf(&e.trace, "  fabric tx=%d drops=%d loss=%d queue=%d admin=%d\n",
		agg.tx, agg.drops, agg.loss, agg.queue, agg.admin)
	if final {
		for _, fl := range e.flows {
			fmt.Fprintf(&e.trace, "  flow %s sched=%d delivered=%d dropped=%d noroute=%d\n",
				fl.name, fl.scheduled, fl.delivered, fl.dropped, fl.noroute)
		}
	}
	if e.flowEng != nil {
		ft := e.flowEng.Totals()
		fmt.Fprintf(&e.trace, "  agg-flows flows=%d offloaded=%d sched=%d delivered=%d direct=%d loss=%d queue=%d admin=%d late=%d\n",
			ft.Flows, ft.OffloadedFlows, ft.Scheduled, ft.Delivered, ft.DirectDelivered,
			ft.DropsLoss, ft.DropsQueue, ft.DropsAdmin, ft.DropsLate)
		if final {
			fmt.Fprintf(&e.trace, "  agg-reorder wait=%.3fms pkts=%d dup sent=%d repaired=%d discarded=%d transitions=%d\n",
				ft.MeanReorderWaitMs(), ft.ReorderDelivered,
				ft.DupSent, ft.Repaired, ft.DupDiscarded, ft.OffloadTransitions)
			for _, g := range e.flowEng.Groups() {
				mode := "overlay"
				if g.Offloaded {
					mode = "direct"
				}
				fmt.Fprintf(&e.trace, "  agg-group %s flows=%d paths=%d mode=%s overlay=%.1fms direct=%.1fms delivered=%d/%d transitions=%d\n",
					g.Name, g.Flows, g.Paths, mode, g.OverlayMs, g.DirectMs,
					g.Delivered, g.Scheduled, g.Transitions)
			}
		}
	}

	// The final checkpoint records a cross-layer route trace from the
	// first vantage. Metric state is pinned beside the trace, not in it
	// (metricsCheckpoint), so the trace holds only behaviour.
	if final {
		id := e.Fwd.TraceRoute(e.vantages[0], e.Topo.Prefixes[0].Prefix.Addr())
		for _, s := range e.Tracer.Spans() {
			if s.Trace == id {
				fmt.Fprintf(&e.trace, "  trace %s\n", s.JSON())
			}
		}
	}
	e.metricsCheckpoint(cp, final)
	return nil
}

// universe is every prefix the forwarding plane should know: originated
// prefixes in allocation order, then static more-specifics in the
// reflector's sorted order.
func (e *engine) universe() []netip.Prefix {
	statics := e.RR.Policy().Statics()
	out := make([]netip.Prefix, 0, len(e.Topo.Prefixes)+len(statics))
	for i := range e.Topo.Prefixes {
		out = append(out, e.Topo.Prefixes[i].Prefix)
	}
	for _, s := range statics {
		out = append(out, s.Prefix)
	}
	return out
}

// usableFrom mirrors the forwarding plane's health filter: under pol,
// the egress router is not withdrawn, and its PoP is IGP-reachable from
// the vantage.
func (e *engine) usableFrom(pol *core.Policy, v *vns.PoP, router netip.Addr) bool {
	p, ok := e.Net.RouterPoP(router)
	return ok && !pol.EgressDown(router) && e.Net.Reachable(v, p)
}

// checkCongruence verifies the paper's core claim against an oracle the
// production code never consults: for every geo-routed prefix, the
// egress PoP the compiled FIB selects must be great-circle closest to
// the prefix's (database) location among healthy candidates, up to the
// local-pref curve's quantization. Exempt prefixes, geolocation misses
// (both fall back to hot-potato by design), and forced prefixes whose
// pinned egress is out of service are skipped; a forced prefix with a
// healthy pin must use exactly that router. Every prefix is judged
// under one reflector policy.
func (e *engine) checkCongruence(v *vns.PoP) (okN, skipped int, err error) {
	eng := e.Fwd.EngineByID(v.ID)
	pol := e.RR.Policy()
	for i := range e.Topo.Prefixes {
		pi := &e.Topo.Prefixes[i]
		pfx := pi.Prefix
		if pol.IsExempt(pfx) {
			skipped++
			continue
		}
		nh, routed := eng.Lookup(pfx.Addr())
		if fr, forced := pol.ForcedExit(pfx); forced {
			if !e.usableFrom(pol, v, fr) {
				skipped++
				continue
			}
			if !routed || nh.Router != fr {
				return okN, skipped, fmt.Errorf("%s: %v is forced to %v but FIB says %v", v.Code, pfx, fr, nh)
			}
			okN++
			continue
		}
		if or, overridden := pol.OverrideFor(pfx); overridden {
			// Sanctioned divergence: the adaptive controller measured
			// this prefix faster away from its great-circle egress, so
			// the oracle's claim is suspended — the FIB must instead
			// follow the override exactly (while its router is usable;
			// when it is not, routing degrades to geography mid-
			// transition and the oracle can't know which, so skip).
			if !e.usableFrom(pol, v, or) {
				skipped++
				continue
			}
			if !routed || nh.Router != or {
				return okN, skipped, fmt.Errorf("%s: %v is adaptively overridden to %v but FIB says %v", v.Code, pfx, or, nh)
			}
			okN++
			continue
		}
		rec, located := e.DB.LookupPrefix(pfx)
		if !located {
			skipped++
			continue
		}
		bestLP, healthy := uint32(0), 0
		for _, c := range e.Peering.Candidates(pi.Origin) {
			if !e.usableFrom(pol, v, c.Session.Router) {
				continue
			}
			healthy++
			if lp := core.LinearLocalPref(geo.DistanceKm(c.Session.PoP.Place.Pos, rec.Pos)); lp > bestLP {
				bestLP = lp
			}
		}
		if healthy == 0 {
			if routed {
				return okN, skipped, fmt.Errorf("%s: %v has no healthy egress but FIB routes to %v", v.Code, pfx, nh)
			}
			okN++
			continue
		}
		if !routed {
			return okN, skipped, fmt.Errorf("%s: %v has %d healthy egresses but no FIB route", v.Code, pfx, healthy)
		}
		gotLP := core.LinearLocalPref(geo.DistanceKm(e.Net.PoPByID(nh.PoP).Place.Pos, rec.Pos))
		if gotLP != bestLP {
			return okN, skipped, fmt.Errorf("%s: %v exits pop%d (local-pref %d) but the oracle's closest healthy egress scores %d",
				v.Code, pfx, nh.PoP, gotLP, bestLP)
		}
		okN++
	}
	return okN, skipped, nil
}

// resolveLPM is the reference answer for a prefix's representative
// address: the control-plane resolution of the prefix itself or, when
// it resolves to nothing (a static whose pinned egress is out of
// service), of the longest universe prefix covering the address —
// exactly how longest-prefix match falls back to the covering route.
func (e *engine) resolveLPM(v *vns.PoP, pfx netip.Prefix, uni []netip.Prefix) (fib.NextHop, bool) {
	if nh, ok := e.Fwd.Resolve(v, pfx); ok {
		return nh, true
	}
	addr := pfx.Addr()
	var covers []netip.Prefix
	for _, q := range uni {
		if q != pfx && q.Bits() < pfx.Bits() && q.Contains(addr) {
			covers = append(covers, q)
		}
	}
	sort.Slice(covers, func(i, j int) bool { return covers[i].Bits() > covers[j].Bits() })
	for _, q := range covers {
		if nh, ok := e.Fwd.Resolve(v, q); ok {
			return nh, true
		}
	}
	return fib.NextHop{}, false
}

// checkThreeWay differentially tests each universe prefix three ways:
// the compiled trie lookup, the reference control-plane decision, and
// the netsim fabric (the IGP path to the chosen egress must exist, end
// there, and cross no admin-down data-plane link).
func (e *engine) checkThreeWay(v *vns.PoP, uni []netip.Prefix) (checked int, err error) {
	eng := e.Fwd.EngineByID(v.ID)
	fabric := e.Fwd.Fabric()
	for _, pfx := range uni {
		want, wantOK := e.resolveLPM(v, pfx, uni)
		got, gotOK := eng.Lookup(pfx.Addr())
		if wantOK != gotOK {
			return checked, fmt.Errorf("%s: %v FIB routed=%v, control plane routed=%v", v.Code, pfx, gotOK, wantOK)
		}
		if gotOK {
			if got.PoP != want.PoP || got.Router != want.Router {
				return checked, fmt.Errorf("%s: %v FIB says %v, control plane says %v", v.Code, pfx, got, want)
			}
			egress := e.Net.PoPByID(got.PoP)
			hops := e.Net.InternalPath(v, egress)
			if hops == nil || hops[len(hops)-1] != egress {
				return checked, fmt.Errorf("%s: %v routed to %s but the IGP has no internal path there", v.Code, pfx, egress.Code)
			}
			for i := 1; i < len(hops); i++ {
				l := fabric.Link(hops[i-1], hops[i])
				if l == nil {
					return checked, fmt.Errorf("%s: %v path uses nonexistent fabric link %s-%s",
						v.Code, pfx, hops[i-1].Code, hops[i].Code)
				}
				if l.AdminDown() {
					return checked, fmt.Errorf("%s: %v forwarded over admin-down link %s", v.Code, pfx, l.Name)
				}
			}
		}
		checked++
	}
	return checked, nil
}

// checkNoLoop walks each routed destination hop by hop, re-consulting
// every transit PoP's own FIB the way hop-by-hop IP forwarding would,
// and requires the walk to reach a PoP that exits locally without
// visiting any PoP twice and without blackholing mid-path.
func (e *engine) checkNoLoop(v *vns.PoP, uni []netip.Prefix) (walked int, err error) {
	for _, pfx := range uni {
		addr := pfx.Addr()
		if _, ok := e.Fwd.EngineByID(v.ID).Lookup(addr); !ok {
			continue
		}
		cur := v
		visited := map[int]bool{v.ID: true}
		for hop := 0; ; hop++ {
			if hop > len(e.Net.PoPs) {
				return walked, fmt.Errorf("%s: %v walk did not terminate within %d hops", v.Code, pfx, hop)
			}
			nh, ok := e.Fwd.EngineByID(cur.ID).Lookup(addr)
			if !ok {
				return walked, fmt.Errorf("%s: %v blackholes at transit PoP %s", v.Code, pfx, cur.Code)
			}
			if nh.PoP == cur.ID {
				break // cur is the egress: the packet leaves the network here
			}
			hops := e.Net.InternalPath(cur, e.Net.PoPByID(nh.PoP))
			if hops == nil || len(hops) < 2 {
				return walked, fmt.Errorf("%s: %v at %s selects unreachable egress pop%d", v.Code, pfx, cur.Code, nh.PoP)
			}
			next := hops[1]
			if visited[next.ID] {
				return walked, fmt.Errorf("%s: %v forwarding loop through %s (hop %d)", v.Code, pfx, next.Code, hop)
			}
			visited[next.ID] = true
			cur = next
		}
		walked++
	}
	return walked, nil
}

// checkConvergence verifies that every scripted link transition older
// than the convergence bound has propagated through all three layers —
// liveness session state, the IGP view, and (once nothing is in
// flight) the withdrawn-egress set — and that the detector fired within
// the bound. Links with no scripted fault must be up everywhere: a
// delay spike that falsely trips detection fails here.
func (e *engine) checkConvergence(at float64) (settled int, err error) {
	keys := make([][2]int, 0, len(e.faults))
	for k := range e.faults {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	inFlight := false
	for _, k := range keys {
		rec := e.faults[k]
		a, b := e.Net.PoPByID(k[0]), e.Net.PoPByID(k[1])
		if at-rec.at < convergeBoundSec {
			inFlight = true
			continue
		}
		sess := e.Monitor.Session(a, b)
		if sess == nil {
			return settled, fmt.Errorf("no liveness session for %s-%s", a.Code, b.Code)
		}
		want := health.StateUp
		if rec.down {
			want = health.StateDown
		}
		if sess.State() != want {
			return settled, fmt.Errorf("%s-%s liveness is %v %.2fs after its scripted transition (want %v)",
				a.Code, b.Code, sess.State(), at-rec.at, want)
		}
		if e.Net.L2LinkDown(a, b) != rec.down {
			return settled, fmt.Errorf("%s-%s IGP view disagrees with scripted state (want down=%v)", a.Code, b.Code, rec.down)
		}
		if lc := sess.LastChange(); lc > rec.at+convergeBoundSec {
			return settled, fmt.Errorf("%s-%s converged %.2fs after the transition, bound %.1fs",
				a.Code, b.Code, lc-rec.at, convergeBoundSec)
		}
		settled++
	}
	for _, s := range e.Monitor.Sessions() {
		a, b := s.Ends()
		k := [2]int{a.ID, b.ID}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if _, scripted := e.faults[k]; scripted {
			continue
		}
		if s.State() != health.StateUp {
			return settled, fmt.Errorf("unscripted failure: %s-%s liveness is down", a.Code, b.Code)
		}
		if e.Net.L2LinkDown(a, b) {
			return settled, fmt.Errorf("unscripted failure: %s-%s is down in the IGP", a.Code, b.Code)
		}
	}
	if !inFlight {
		if err := e.checkWithdrawals(); err != nil {
			return settled, err
		}
	}
	return settled, nil
}

// checkWithdrawals requires the reflector's withdrawn-egress set to be
// exactly the routers of IGP-isolated PoPs plus management drains — no
// missing withdrawal, no leftover one.
func (e *engine) checkWithdrawals() error {
	want := make(map[netip.Addr]bool)
	//vnslint:maprange set-to-set copy; destination is a map, order cannot escape
	for r := range e.manualDown {
		want[r] = true
	}
	for _, p := range e.Net.PoPs {
		adjacencies, downs := 0, 0
		for _, l := range e.Net.L2Links() {
			if l[0] != p && l[1] != p {
				continue
			}
			adjacencies++
			if e.Net.L2LinkDown(l[0], l[1]) {
				downs++
			}
		}
		if adjacencies > 0 && downs == adjacencies {
			for _, r := range p.Routers {
				want[r] = true
			}
		}
	}
	got := make(map[netip.Addr]bool)
	for _, r := range e.RR.Policy().DownEgresses() {
		got[r] = true
	}
	if len(want) != len(got) {
		return fmt.Errorf("withdrawn egresses %v, want %v", addrSet(got), addrSet(want))
	}
	// Set containment; the error message renders both sides sorted, so
	// iteration order cannot escape.
	//vnslint:maprange
	for r := range want {
		if !got[r] {
			return fmt.Errorf("withdrawn egresses %v, want %v", addrSet(got), addrSet(want))
		}
	}
	return nil
}

func addrSet(m map[netip.Addr]bool) []string {
	out := make([]string, 0, len(m))
	for a := range m {
		out = append(out, a.String())
	}
	sort.Strings(out)
	return out
}

// linkAgg sums per-link counters for the trace's fabric line.
type linkAgg struct {
	tx, drops, loss, queue, admin uint64
}

// checkConservation asserts per-link counter sanity — monotone against
// the previous checkpoint, and every drop attributed to exactly one
// cause — and, at the final checkpoint, that every scheduled flow
// packet was delivered, dropped on a named link, or refused for lack of
// a route, with the event queue fully drained.
func (e *engine) checkConservation(final bool) (agg linkAgg, err error) {
	for _, l := range e.Fwd.Fabric().Links() {
		st := l.Stats()
		prev := e.prevLink[l.Name]
		if st.TxPackets < prev.TxPackets || st.TxBytes < prev.TxBytes || st.Drops < prev.Drops ||
			st.DropsLoss < prev.DropsLoss || st.DropsQueue < prev.DropsQueue || st.DropsAdmin < prev.DropsAdmin {
			return agg, fmt.Errorf("link %s counters went backwards: %+v then %+v", l.Name, prev, st)
		}
		if st.Drops != st.DropsLoss+st.DropsQueue+st.DropsAdmin {
			return agg, fmt.Errorf("link %s drop partition broken: %+v", l.Name, st)
		}
		e.prevLink[l.Name] = st
		agg.tx += st.TxPackets
		agg.drops += st.Drops
		agg.loss += st.DropsLoss
		agg.queue += st.DropsQueue
		agg.admin += st.DropsAdmin
	}
	if final {
		for _, fl := range e.flows {
			if fl.scheduled == 0 {
				return agg, fmt.Errorf("flow %s scheduled no packets", fl.name)
			}
			if fl.scheduled != fl.delivered+fl.dropped+fl.noroute {
				return agg, fmt.Errorf("flow %s: %d scheduled but %d delivered + %d dropped + %d norouted",
					fl.name, fl.scheduled, fl.delivered, fl.dropped, fl.noroute)
			}
		}
		if e.flowEng != nil {
			// Aggregate flows hold the same bar per flow: every emitted
			// packet delivered or attributed to exactly one drop cause,
			// with engine totals matching the per-flow sums.
			if err := e.flowEng.CheckConservation(); err != nil {
				return agg, err
			}
			if e.flowEng.FlowCount() > 0 && e.flowEng.Totals().Scheduled == 0 {
				return agg, fmt.Errorf("aggregate flows scheduled no packets")
			}
		}
		if n := e.Sim.Pending(); n != 0 {
			return agg, fmt.Errorf("%d events still pending after the final drain", n)
		}
	}
	return agg, nil
}

// igpDownLinks renders the control plane's failed-link set in L2
// specification order, "-" when empty.
func (e *engine) igpDownLinks() string {
	var out []string
	for _, l := range e.Net.L2Links() {
		if e.Net.L2LinkDown(l[0], l[1]) {
			out = append(out, l[0].Code+"-"+l[1].Code)
		}
	}
	return orDash(strings.Join(out, ","))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
