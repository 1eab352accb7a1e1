// Command vnsbench is the repository's benchmark: it assembles the
// deployment the way cmd/vnsd does, plays the 22 egress routers over
// real loopback BGP sessions, applies one workload of routing events to
// it and prints end-to-end metrics (--trace 0) or per-layer metrics
// from a traced run (--trace 1). See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names in the same order (metrics_test.go holds the two together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"event_ms_p10", "ms"},
	{"ops_per_s", "1/s"},
}

var perLayer = []metricDef{
	// Set-up, from the traced set-up's spans.
	{"topo.generate_ms", "ms"},
	{"experiments.env_build_ms", "ms"},
	{"geoip.insert_ns", "ns"},
	{"vns.forwarding_build_ms", "ms"},
	{"bgp.session_up_ms_p50", "ms"},
	{"core.table_load_routes_per_s", "1/s"},
	{"proc.setup_alloc_mb", "MB"},
	{"proc.setup_gc_cycles", "count"},
	// Counts at the layer boundaries across the traced event phase.
	{"event.samples", "count"},
	{"event.ms_p50", "ms"},
	{"event.ms_tail", "ms"},
	{"event.tail_pct", "%"},
	{"ops.windows", "count"},
	{"loadgen.late_ms_p50", "ms"},
	{"core.assigns_per_event", "count"},
	{"fib.publishes_per_event", "count"},
	{"fib.useful_flush_frac", "ratio"},
	{"fib.delta_share", "ratio"},
	{"fib.moved_first_event", "count"},
	{"vns.useful_assign_frac", "ratio"},
	{"bgp.reflect_fanout", "count"},
	{"proc.allocs_per_event", "count"},
	{"proc.alloc_kb_per_event", "KB"},
	{"proc.cpu_us_per_event", "us"},
	// Tracing.
	{"trace.spans", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.explained_frac", "ratio"},
	// One call into each layer, from the probe spans' self time.
	{"bgp.marshal_ns", "ns"},
	{"bgp.unmarshal_ns", "ns"},
	{"bgp.unmarshal_ns_per_prefix", "ns"},
	{"geoip.lookup_ns", "ns"},
	{"geo.distance_ns", "ns"},
	{"core.assign_ns", "ns"},
	{"core.process_update_ns", "ns"},
	{"core.force_exit_us", "us"},
	{"rib.apply_ns_per_op", "ns"},
	{"rib.apply_ns_per_op_bulk", "ns"},
	{"rib.changed_frac", "ratio"},
	{"vns.fanout_us", "us"},
	{"fib.delta_ns_per_patch", "ns"},
	{"fib.compile_ms", "ms"},
	{"fib.lookup_ns", "ns"},
	{"fib.lookup_hit_frac", "ratio"},
	{"health.apply_noroute_ms", "ms"},
	{"flowsim.step_ns_per_flow", "ns"},
	{"flowsim.pkts_per_s", "1/s"},
	{"flowsim.conserved", "count"},
	{"netsim.transit_aggregate_ns", "ns"},
	{"telemetry.counter_add_ns", "ns"},
	{"telemetry.render_ms", "ms"},
}

// deployments is how many times a run sets the deployment up. Each gets
// an equal share of the measuring time, and every end-to-end metric is
// the median over them.
const deployments = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "churn | session-flap | failover | dataplane")
	seed := flag.Uint64("seed", 1, "seed of the workload's operations")
	seconds := flag.Int("seconds", 12, "how long the workload measures")
	trace := flag.Int("trace", 0, "1 = traced run that prints the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "vnsbench: unknown workload %q or bad arguments\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)

	// The first deployment a process builds pays for page faults, heap
	// growth and lazily initialised tables that later ones do not; build,
	// load and discard a small one before any clock starts.
	warm, err := setUp(warmupNumAS, nil)
	if err != nil {
		fatal(err)
	}
	warm.close()

	dur := time.Duration(*seconds) * time.Second
	values := make(map[string]float64)
	var check checker
	var defs []metricDef
	if *trace == 0 {
		defs = endToEnd
		err = measure(wl, *seed, dur, values, &check)
	} else {
		defs = perLayer
		err = traced(wl, *seed, dur, values, &check, *out)
	}
	if err != nil {
		fatal(err)
	}

	rep := report{
		Correct:   check.failed == 0,
		Attempted: check.attempted,
		Failed:    check.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Printf("workload %s (event = %s, op = %s), seed %d, %d s\n", wl.name, wl.eventUnit, wl.opUnit, *seed, *seconds)
	for _, m := range defs {
		fmt.Printf("%-32s %16.6g %s\n", m.name, values[m.name], m.unit)
		rep.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	fmt.Printf("%-32s %16d\n%-32s %16d\n", "ops_attempted", check.attempted, "ops_failed", check.failed)
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vnsbench:", err)
	os.Exit(1)
}

func newRNG(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// eventLatency and throughput reduce one deployment's samples. The host
// this runs on is shared: a neighbour on the same core or cache slows
// the process by up to a third for anything from milliseconds to
// minutes, and never speeds it up. So the steady numbers are the ones
// at the undisturbed edge of each distribution: the 10th percentile of
// the event latencies (not the minimum, which for sub-millisecond
// events is one lucky scheduling) and the fastest throughput window.
func eventLatency(ms []float64) float64 { return percentile(ms, 0.10) }

func throughput(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	return slices.Max(rates)
}

// measure is the untraced run: the end-to-end metrics. It sets the
// deployment up three times and gives each a third of the measuring
// time; every metric is the median over the deployments. Where a
// deployment's tables land in memory moves its latencies by a few per
// cent for as long as it lives, and the median over three deployments
// is steadier than three times as long on one.
func measure(wl *workload, seed uint64, dur time.Duration, values map[string]float64, check *checker) error {
	var setupSec, heapMB, eventMs, opsPerS []float64
	for k := uint64(0); k < deployments; k++ {
		runtime.GC()
		d, err := setUp(numAS, nil)
		if err != nil {
			return err
		}
		setupSec = append(setupSec, d.setup.total.Seconds())
		heapMB = append(heapMB, liveHeapMB())
		d.checkLoaded(newRNG(seed, k), check)

		res := wl.run(d, newRNG(seed, 100+k), dur/deployments, nil)
		d.close()
		check.attempted += res.attempted
		check.failed += res.failed
		check.expect(len(res.eventMs) >= 5, "deployment %d: only %d event samples", k, len(res.eventMs))
		check.expect(len(res.rates) >= 3, "deployment %d: only %d throughput windows", k, len(res.rates))
		eventMs = append(eventMs, eventLatency(res.eventMs))
		opsPerS = append(opsPerS, throughput(res.rates))
	}
	values["setup_s"] = median(setupSec)
	values["live_heap_mb"] = median(heapMB)
	values["event_ms_p10"] = median(eventMs)
	values["ops_per_s"] = median(opsPerS)
	return nil
}

// traced is the per-layer run: one traced set-up, the workload once
// untraced and once traced at half the time each (their throughput
// ratio is the tracing overhead), then the per-layer probes.
func traced(wl *workload, seed uint64, dur time.Duration, values map[string]float64, check *checker, outDir string) error {
	tr := newTracer()
	d, err := setUp(numAS, tr)
	if err != nil {
		return err
	}
	defer d.close()
	d.checkLoaded(newRNG(seed, 0), check)
	setupSelf := selfTimes(tr.spans)
	var dialMs []float64
	for _, s := range tr.spans {
		if s.Name == "bgp.session_up" {
			dialMs = append(dialMs, float64(s.End-s.Start)/1e6)
		}
	}
	values["experiments.env_build_ms"] = setupSelf["experiments.env_build"].perCallNs() / 1e6
	values["vns.forwarding_build_ms"] = setupSelf["vns.forwarding_build"].perCallNs() / 1e6
	values["bgp.session_up_ms_p50"] = median(dialMs)
	if ns := setupSelf["core.table_load"].perCallNs(); ns > 0 {
		values["core.table_load_routes_per_s"] = 1e9 / ns
	}
	values["proc.setup_alloc_mb"] = d.setup.allocMB
	values["proc.setup_gc_cycles"] = float64(d.setup.gcCycles)

	plain := wl.run(d, newRNG(seed, 100), dur/2, nil)
	res := wl.run(d, newRNG(seed, 101), dur/2, tr)
	check.attempted += plain.attempted + res.attempted
	check.failed += plain.failed + res.failed

	pct, tail := tailPercentile(res.eventMs)
	values["event.samples"] = float64(len(res.eventMs))
	values["event.ms_p50"] = median(res.eventMs)
	values["event.ms_tail"] = tail
	values["event.tail_pct"] = float64(pct)
	values["ops.windows"] = float64(len(res.rates))
	values["loadgen.late_ms_p50"] = median(res.lateMs)
	if n := float64(res.events); n > 0 {
		c := res.during
		values["core.assigns_per_event"] = float64(c.assigns) / n
		values["fib.publishes_per_event"] = float64(c.deltas+c.compiles) / n
		values["bgp.reflect_fanout"] = float64(c.rx) / n
		values["proc.allocs_per_event"] = float64(c.mallocs) / n
		values["proc.alloc_kb_per_event"] = float64(c.allocB) / 1024 / n
		values["proc.cpu_us_per_event"] = float64(c.cpu.Microseconds()) / n
		if flushes := c.deltas + c.compiles + c.skipped; flushes > 0 {
			values["fib.useful_flush_frac"] = float64(c.deltas+c.compiles) / float64(flushes)
		}
		if c.deltas+c.compiles > 0 {
			values["fib.delta_share"] = float64(c.deltas) / float64(c.deltas+c.compiles)
		}
	}
	values["fib.moved_first_event"] = float64(res.firstMoved)
	if res.firstAssigns > 0 {
		values["vns.useful_assign_frac"] = float64(res.firstMoved) / float64(res.firstAssigns)
	}

	p := probes(d, newRNG(seed, 102), tr)
	values["trace.spans"] = float64(tr.len())
	if untraced := throughput(plain.rates); untraced > 0 {
		values["trace.overhead_frac"] = 1 - throughput(res.rates)/untraced
	}
	// The probes give a stage's mean cost, so they are held against the
	// typical window, not the fastest.
	values["trace.explained_frac"] = wl.explain(p) * median(plain.rates)
	values["topo.generate_ms"] = p.topoGenerateMs
	values["geoip.insert_ns"] = p.geoipInsertNs
	values["bgp.marshal_ns"] = p.marshalNs
	values["bgp.unmarshal_ns"] = p.unmarshalNs
	values["bgp.unmarshal_ns_per_prefix"] = p.unmarshalPackedNs
	values["geoip.lookup_ns"] = p.geoipLookupNs
	values["geo.distance_ns"] = p.distanceNs
	values["core.assign_ns"] = p.assignNs
	values["core.process_update_ns"] = p.processUpdateNs
	values["core.force_exit_us"] = p.forceExitNs / 1e3
	values["rib.apply_ns_per_op"] = p.ribApplyNs
	values["rib.apply_ns_per_op_bulk"] = p.ribApplyBulkNs
	values["rib.changed_frac"] = p.ribChangedFrac
	values["vns.fanout_us"] = p.fanoutNs / 1e3
	values["fib.delta_ns_per_patch"] = p.deltaNs
	values["fib.compile_ms"] = p.compileMs
	values["fib.lookup_ns"] = p.lookupNs
	values["fib.lookup_hit_frac"] = p.lookupHitFrac
	values["health.apply_noroute_ms"] = p.applyNoRouteMs
	values["flowsim.step_ns_per_flow"] = p.flowStepNs
	values["flowsim.pkts_per_s"] = p.flowPktsPerS
	values["flowsim.conserved"] = p.flowConserved
	values["netsim.transit_aggregate_ns"] = p.transitNs
	values["telemetry.counter_add_ns"] = p.counterAddNs
	values["telemetry.render_ms"] = p.renderMs
	check.expect(p.flowConserved == 1, "flow study lost packets")

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", wl.name, seed)))
}
