// Fixture for the metricname analyzer: literal names without the
// snake_case-with-subsystem-prefix shape are flagged, as are
// non-snake_case labels; dynamic names and annotated exceptions pass.
package a

import "vns/internal/telemetry"

func register(r *telemetry.Registry) {
	r.Counter("fib_lookups_total", "ok")
	r.Gauge("bgp_sessions_established", "ok")
	r.Histogram("fib_compile_seconds", "ok", telemetry.DefBuckets)
	r.CounterVec("bgp_messages_in_total", "ok", "type")
	r.HistogramVec("media_jitter_seconds", "ok", telemetry.DefBuckets, "pop", "codec")
	r.RegisterFunc("netsim_link_tx_packets_total", "ok", telemetry.KindCounter,
		[]string{"link"}, nil)

	r.Counter("Lookups", "bad")                                         // want `metric name "Lookups" is not snake_case`
	r.Counter("fib", "bad")                                             // want `metric name "fib" is not snake_case`
	r.Gauge("fib-lookups", "bad")                                       // want `metric name "fib-lookups" is not snake_case`
	r.Histogram("fib_Compile", "bad", nil)                              // want `metric name "fib_Compile" is not snake_case`
	r.CounterVec("rib_events_total", "bad label", "Type")               // want `metric label "Type" is not snake_case`
	r.HistogramVec("rib_depth_current", "bad label", nil, "ok", "9bad") // want `metric label "9bad" is not snake_case`
	r.RegisterFunc("netsim_drops_total", "bad label", telemetry.KindCounter,
		[]string{"cause", "Link"}, nil) // want `metric label "Link" is not snake_case`

	// Names built at runtime are the registry's job, not the linter's.
	dynamic := pick()
	r.Counter(dynamic, "unchecked")

	//vnslint:metricname legacy family kept for dashboard compatibility
	r.Counter("legacy", "suppressed")
}

// Span vocabulary: Tracer.Record/Event layer and name literals carry
// the snake_case rule; dynamic values and attr payloads are exempt.
func spans(tr *telemetry.Tracer) {
	id := tr.StartTrace()
	tr.Record(id, "convergence", "fib_compile", 0, 1)
	tr.Event(id, "fib", "no_route", telemetry.String("result", "MISS")) // attr values unchecked
	tr.Record(id, "Convergence", "ok_name", 0, 1)                       // want `span layer/name "Convergence" is not snake_case`
	tr.Event(id, "fib", "no-route")                                     // want `span layer/name "no-route" is not snake_case`
	layer := pick()
	tr.Event(id, layer, "dynamic_ok")
}

func pick() string { return "health_dynamic_total" }
