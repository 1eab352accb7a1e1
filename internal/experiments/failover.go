package experiments

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"vns/internal/detsort"
	"vns/internal/health"
	"vns/internal/media"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// This file studies automatic failover (internal/health) end to end:
// an RTP stream from London toward a destination whose geo egress is
// Sydney, with Sydney's only L2 link (SIN-SYD) killed mid-stream.
// Because cold-potato LOCAL_PREF dominates the decision process, a
// transit link failure alone never moves an egress — only losing the
// PoP does — so isolating SYD is the scenario that exercises the whole
// chain: BFD-lite detection, GeoRR withdrawal, IGP recompute, per-PoP
// FIB republish, and recovery.

// The scenario: the SIN-SYD fault at 8 s and its heal at 16 s of
// simulated stream time, the run ending at 35 s, under an RTP trace from
// a fixed seed.
const (
	failoverFailAtSec = 8.0
	failoverHealAtSec = 16.0
	failoverEndSec    = 35.0
	failoverTraceSeed = 9
)

// FailoverResult holds everything the failover study measures.
type FailoverResult struct {
	// Prefix is the studied destination; Forced reports whether it had
	// to be pinned to Sydney (no prefix geo-routed there naturally).
	Prefix netip.Prefix
	Forced bool

	// Egress PoP codes seen by the stream: before the fault, during the
	// outage, and after recovery.
	OrigEgress, FailEgress, RestoredEgress string

	// DetectionSec is fault-to-down-event simulated latency;
	// RecoverySec is heal-to-up-event (includes the up-hold window).
	DetectionSec, RecoverySec float64
	// DetectionBoundSec is the theoretical worst case: one-way
	// propagation plus TxInterval*(Multiplier+1).
	DetectionBoundSec float64

	// Withdrawals and Restores count per-router GeoRR health
	// transitions; FailoverEvents and FailoverMeanMs are the count and
	// mean wall time of the controller's reconvergences, read from
	// convergence_seconds{kind="failover"}.
	Withdrawals, Restores uint64
	FailoverEvents        uint64
	FailoverMeanMs        float64

	// Stream accounting: packets sent/lost and the equivalent outage
	// duration (lost packets over the trace's packet rate).
	SentPackets, LostPackets int
	OutageSec                float64

	// Congruence of the London FIB against a fresh control-plane
	// decision, during the outage and after recovery.
	FailCongruence, FinalCongruence float64

	// HellosTx counts liveness packets transmitted over the fabric.
	HellosTx uint64
}

// FailoverStudy deploys its own environment (it mutates link state),
// runs the SIN-SYD failure scenario under an active stream, and
// returns the measurements. Everything but the reconvergence wall times
// is deterministic in cfg: the convergence layer runs on the wall clock,
// as in vnsd, and the simulation on its own.
func FailoverStudy(cfg Config) *FailoverResult {
	start := time.Now() //vnslint:wallclock reconvergence times measure real compute, not simulated time
	d := NewEnv(cfg).Deploy(vns.ForwardingConfig{ConvergenceClock: func() float64 {
		return time.Since(start).Seconds() //vnslint:wallclock reconvergence times measure real compute, not simulated time
	}})
	fwd, sim, mon := d.Fwd, d.Sim, d.Monitor
	lon, sin, syd := d.Net.PoP("LON"), d.Net.PoP("SIN"), d.Net.PoP("SYD")

	res := &FailoverResult{}

	// A destination London sends to Sydney. Prefer one geography picks
	// naturally; otherwise pin one there with the management interface.
	eng := fwd.Engine("LON")
	for i := range d.Topo.Prefixes {
		pi := &d.Topo.Prefixes[i]
		if nh, ok := eng.Lookup(pi.Prefix.Addr()); ok && nh.PoP == syd.ID {
			res.Prefix = pi.Prefix
			break
		}
	}
	if !res.Prefix.IsValid() {
		for i := range d.Topo.Prefixes {
			pi := &d.Topo.Prefixes[i]
			if _, ok := eng.Lookup(pi.Prefix.Addr()); ok {
				if err := d.RR.ForceExit(pi.Prefix, syd.Routers[0]); err == nil {
					res.Prefix, res.Forced = pi.Prefix, true
					break
				}
			}
		}
	}
	if !res.Prefix.IsValid() {
		return res
	}

	var events []health.Event
	mon.OnEvent(func(ev health.Event) { events = append(events, ev) })

	d.Injector.LinkDownAt(failoverFailAtSec, sin, syd)
	d.Injector.LinkUpAt(failoverHealAtSec, sin, syd)

	tr := media.GenerateTrace(media.TraceConfig{DurationSec: failoverEndSec - 5, Seed: failoverTraceSeed})
	st, egress := fwd.ForwardStream(sim, lon, res.Prefix.Addr(), tr)

	mon.Start()

	// Phase 1: run into the outage, sample the failed-over state.
	sim.Run(failoverHealAtSec - 0.5)
	if nh, ok := eng.Lookup(res.Prefix.Addr()); ok {
		res.FailEgress = d.Net.PoPByID(nh.PoP).Code
	}
	match, total := fwd.Congruence(lon)
	if total > 0 {
		res.FailCongruence = float64(match) / float64(total)
	}

	// Phase 2: recovery and drain.
	sim.Run(failoverEndSec)
	mon.Stop()
	sim.RunAll()

	if nh, ok := eng.Lookup(res.Prefix.Addr()); ok {
		res.RestoredEgress = d.Net.PoPByID(nh.PoP).Code
	}
	match, total = fwd.Congruence(lon)
	if total > 0 {
		res.FinalCongruence = float64(match) / float64(total)
	}

	for _, ev := range events {
		if !ev.Up && res.DetectionSec == 0 {
			res.DetectionSec = ev.At - failoverFailAtSec
		}
		if ev.Up {
			res.RecoverySec = ev.At - failoverHealAtSec
		}
	}
	prop := fwd.Fabric().Link(sin, syd).PropDelayMs / 1000
	res.DetectionBoundSec = prop + health.TxIntervalMs*(health.Multiplier+1)/1000

	cm := d.Controller.Metrics()
	res.Withdrawals = cm.Withdrawals.Value()
	res.Restores = cm.Restores.Value()
	conv := d.Telemetry.HistogramVec("convergence_seconds", "", nil, "kind").With(telemetry.ConvFailover)
	if res.FailoverEvents = conv.Count(); res.FailoverEvents > 0 {
		res.FailoverMeanMs = conv.Sum() / float64(res.FailoverEvents) * 1000
	}
	res.HellosTx = mon.Metrics().HellosTx.Value()

	res.SentPackets = st.Sent
	res.LostPackets = st.Sent - st.Received
	if rate := float64(tr.NumPackets()) / tr.DurationSec; rate > 0 {
		res.OutageSec = float64(res.LostPackets) / rate
	}

	// The stream's dominant egresses before and during the outage.
	sydCount := egress[syd.ID]
	bestOther, bestCount := 0, 0
	// Sorted: a count tie must resolve to the same PoP every run.
	for _, pop := range detsort.Keys(egress) {
		if n := egress[pop]; pop != syd.ID && n > bestCount {
			bestOther, bestCount = pop, n
		}
	}
	if sydCount > 0 {
		res.OrigEgress = syd.Code
	}
	if bestOther != 0 && res.FailEgress == "" {
		res.FailEgress = d.Net.PoPByID(bestOther).Code
	}
	return res
}

// Render prints the failover study for cmd/experiments.
func (r *FailoverResult) Render() string {
	var b strings.Builder
	b.WriteString("Failover study: SIN-SYD cut under an active LON stream\n")
	if !r.Prefix.IsValid() {
		b.WriteString("no routable destination found\n")
		return b.String()
	}
	forced := ""
	if r.Forced {
		forced = " (pinned)"
	}
	fmt.Fprintf(&b, "destination %v via %s%s, failover to %s, restored to %s\n",
		r.Prefix, r.OrigEgress, forced, r.FailEgress, r.RestoredEgress)
	fmt.Fprintf(&b, "detection %.0fms (bound %.0fms), recovery %.0fms after heal (incl. %.0fms up-hold)\n",
		r.DetectionSec*1000, r.DetectionBoundSec*1000, r.RecoverySec*1000, health.UpHoldMs)
	fmt.Fprintf(&b, "reconvergence: %d withdrawals, %d restores, %d failover events at %.1fms mean\n",
		r.Withdrawals, r.Restores, r.FailoverEvents, r.FailoverMeanMs)
	fmt.Fprintf(&b, "stream: %d/%d packets lost = %.2fs outage; congruence %.1f%% during outage, %.1f%% after recovery\n",
		r.LostPackets, r.SentPackets, r.OutageSec, r.FailCongruence*100, r.FinalCongruence*100)
	fmt.Fprintf(&b, "liveness: %d hellos transmitted\n", r.HellosTx)
	return b.String()
}
