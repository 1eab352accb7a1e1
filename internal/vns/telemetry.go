package vns

import (
	"net/netip"
	"strconv"

	"vns/internal/fib"
	"vns/internal/telemetry"
)

// This file wires the forwarding plane into the telemetry core. Two
// patterns are used, matching the hot-path budget: state the engines
// and links already keep atomically is re-exported through render-time
// collectors (no added per-packet cost, no double counting), while the
// media flow driver holds pre-resolved counter handles.

// CompileRecorder records FIB publishes for the forwarding plane's pass
// and the soak: in fib_compile_seconds, and against their event.
type CompileRecorder struct {
	hist *telemetry.Histogram
	conv *telemetry.Convergence
	wall bool
}

// NewCompileRecorder registers fib_compile_seconds in reg and returns
// the recorder that feeds it and conv. Compile latency is wall-clock,
// so the family is volatile: rendered on the admin endpoint, excluded
// from deterministic snapshots. The stage families must stay on conv's
// clock: unless wall says conv runs on wall seconds, a compile takes
// zero simulated time and is recorded as 0, which keeps the observation
// counts pinnable and the sums deterministic.
func NewCompileRecorder(reg *telemetry.Registry, conv *telemetry.Convergence, wall bool) *CompileRecorder {
	h := reg.Histogram("fib_compile_seconds", "FIB trie compile latency", telemetry.DefBuckets)
	reg.MarkVolatile("fib_compile_seconds")
	return &CompileRecorder{hist: h, conv: conv, wall: wall}
}

// Record records one publish, f as fib.Publisher.Publish returned it,
// against event (0 for none). A nil f — a publish in which no next hop
// moved — and a nil recorder record nothing.
func (r *CompileRecorder) Record(event uint64, f *fib.FIB) {
	if r == nil || f == nil {
		return
	}
	d := f.CompileDuration()
	r.hist.Observe(d.Seconds())
	if !r.wall {
		d = 0
	}
	r.conv.ObserveCompileFor(event, d.Seconds())
}

// registerTelemetry registers the forwarding plane's metric families in
// reg. Called once from NewForwarding.
func (f *Forwarding) registerTelemetry(reg *telemetry.Registry) {
	engineCounter := func(name, help string, get func(fib.EngineStats) uint64) {
		reg.RegisterFunc(name, help, telemetry.KindCounter, []string{"pop"},
			func(emit func([]string, float64)) {
				for i, e := range f.engines {
					emit([]string{f.Peering.Net.PoPs[i].Code}, float64(get(e.Stats())))
				}
			})
	}
	engineCounter("fib_forwarded_total", "packets with a route, per ingress PoP",
		func(s fib.EngineStats) uint64 { return s.Forwarded })
	engineCounter("fib_local_exits_total", "packets that exited through their ingress PoP",
		func(s fib.EngineStats) uint64 { return s.LocalExits })
	engineCounter("fib_relayed_total", "packets relayed across the internal fabric",
		func(s fib.EngineStats) uint64 { return s.Relayed })
	engineCounter("fib_no_route_total", "packets the FIB had no route for, per ingress PoP",
		func(s fib.EngineStats) uint64 { return s.NoRoute })
	engineCounter("fib_compiles_total", "published full trie builds per PoP",
		func(s fib.EngineStats) uint64 { return s.FIB.Compiles })
	engineCounter("fib_delta_compiles_total", "published incremental (delta-patched) tries per PoP",
		func(s fib.EngineStats) uint64 { return s.FIB.DeltaCompiles })
	engineCounter("fib_skipped_compiles_total", "flushes that resolved to no next-hop change",
		func(s fib.EngineStats) uint64 { return s.FIB.SkippedCompiles })

	engineGauge := func(name, help string, get func(fib.EngineStats) float64) {
		reg.RegisterFunc(name, help, telemetry.KindGauge, []string{"pop"},
			func(emit func([]string, float64)) {
				for i, e := range f.engines {
					emit([]string{f.Peering.Net.PoPs[i].Code}, get(e.Stats()))
				}
			})
	}
	engineGauge("fib_generation_current", "generation of the published FIB",
		func(s fib.EngineStats) float64 { return float64(s.FIB.Generation) })
	engineGauge("fib_prefixes_current", "prefixes installed in the published FIB",
		func(s fib.EngineStats) float64 { return float64(s.FIB.Prefixes) })

	reg.RegisterFunc("netsim_link_tx_packets_total", "packets forwarded per fabric link",
		telemetry.KindCounter, []string{"link"}, func(emit func([]string, float64)) {
			for _, l := range f.fabric.Links() {
				emit([]string{l.Name}, float64(l.Stats().TxPackets))
			}
		})
	reg.RegisterFunc("netsim_link_tx_bytes_total", "bytes forwarded per fabric link",
		telemetry.KindCounter, []string{"link"}, func(emit func([]string, float64)) {
			for _, l := range f.fabric.Links() {
				emit([]string{l.Name}, float64(l.Stats().TxBytes))
			}
		})
	reg.RegisterFunc("netsim_link_drops_total", "drops per fabric link, partitioned by cause",
		telemetry.KindCounter, []string{"cause", "link"}, func(emit func([]string, float64)) {
			for _, l := range f.fabric.Links() {
				st := l.Stats()
				emit([]string{"loss", l.Name}, float64(st.DropsLoss))
				emit([]string{"queue", l.Name}, float64(st.DropsQueue))
				emit([]string{"admin", l.Name}, float64(st.DropsAdmin))
			}
		})

	f.mediaStreams = reg.Counter("media_streams_total", "media flows played through the forwarding plane")
	f.mediaSent = reg.Counter("media_packets_sent_total", "RTP packets injected at ingress")
	f.mediaReceived = reg.Counter("media_packets_received_total", "RTP packets delivered at egress")
	f.mediaLost = reg.Counter("media_packets_lost_total", "RTP packets dropped in the fabric or unroutable")
}

// TraceRoute records the cross-layer decision chain for one destination
// as seen from a vantage PoP: the GeoIP lookup, the control-plane (RIB)
// decision, the compiled-FIB lookup, and the internal fabric hops the
// packet would take. It returns the assigned trace ID (0 when the
// forwarding plane has no tracer). Spans carry the tracer's current
// virtual time; the trace is a decision snapshot, not a packet flight.
func (f *Forwarding) TraceRoute(vantage *PoP, dst netip.Addr) telemetry.TraceID {
	tr := f.tracer
	if tr == nil {
		return 0
	}
	id := tr.StartTrace()
	now := tr.Now()
	tr.Record(id, "trace", "route", now, now,
		telemetry.String("vantage", vantage.Code), telemetry.String("dst", dst.String()))

	rec, geoOK := f.RR.DB().Lookup(dst)
	if geoOK {
		tr.Record(id, "geoip", "lookup", now, now,
			telemetry.String("prefix", rec.Prefix.String()),
			telemetry.String("country", rec.Country))
	} else {
		tr.Record(id, "geoip", "lookup", now, now, telemetry.String("result", "miss"))
	}

	if geoOK {
		if nh, ok := f.Resolve(vantage, rec.Prefix); ok {
			tr.Record(id, "rib", "decision", now, now,
				telemetry.Int("egress_pop", nh.PoP),
				telemetry.String("router", nh.Router.String()))
		} else {
			tr.Record(id, "rib", "decision", now, now, telemetry.String("result", "no_route"))
		}
	}

	// One load: the answer and its generation come from the same FIB
	// even when a publish lands mid-trace.
	cur := f.EngineByID(vantage.ID).Current()
	nh, ok := cur.Lookup(dst)
	gen := cur.Generation()
	if !ok {
		tr.Record(id, "fib", "lookup", now, now,
			telemetry.Uint("generation", gen), telemetry.String("result", "no_route"))
		return id
	}
	tr.Record(id, "fib", "lookup", now, now,
		telemetry.Uint("generation", gen),
		telemetry.Int("egress_pop", nh.PoP),
		telemetry.String("router", nh.Router.String()))

	if path := f.fabric.Path(vantage.ID, nh.PoP); path != nil {
		for i, l := range path.Links {
			tr.Record(id, "netsim", "hop", now, now,
				telemetry.Int("hop", i), telemetry.String("link", l.Name))
		}
	}
	return id
}

// traceStreamStart opens a trace for one media flow and returns its ID
// (0 without a tracer).
func (f *Forwarding) traceStreamStart(ingress *PoP, dst netip.Addr, packets int) telemetry.TraceID {
	tr := f.tracer
	if tr == nil {
		return 0
	}
	id := tr.StartTrace()
	tr.Event(id, "media", "stream_start",
		telemetry.String("ingress", ingress.Code),
		telemetry.String("dst", dst.String()),
		telemetry.String("packets", strconv.Itoa(packets)))
	return id
}
