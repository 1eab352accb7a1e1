package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry covering every family shape so the
// golden file pins the full exposition surface: scalar counter/gauge,
// labeled vector, histogram (cumulative buckets, sum, count),
// collector, escaping, and sort order.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("fib_lookups_total", "total FIB lookups").Add(42)
	r.Gauge("rib_prefixes_current", "prefixes in the RIB").Set(1207)
	r.Gauge("media_jitter_ms", "smoothed interarrival jitter").Set(3.25)

	v := r.CounterVec("bgp_messages_in_total", "BGP messages received, by type", "type")
	v.With("update").Add(17)
	v.With("keepalive").Add(120)
	v.With("notification").Inc()

	h := r.Histogram("fib_compile_seconds", "FIB compile latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0004)
	h.Observe(0.002)
	h.Observe(0.03)
	h.Observe(0.5)

	r.RegisterFunc("netsim_link_tx_packets_total", "packets transmitted per link",
		KindCounter, []string{"link"}, func(emit func([]string, float64)) {
			emit([]string{"LON-NYC"}, 900)
			emit([]string{"AMS-LON"}, 350)
		})

	r.Counter("health_hellos_tx_total", `hellos sent (escapes: \ " and newline)`).Inc()
	r.RegisterFunc("core_egress_up", "egress liveness by PoP",
		KindGauge, []string{"pop"}, func(emit func([]string, float64)) {
			emit([]string{`we"ird\pop`}, 1)
			emit([]string{"LON"}, 0)
		})
	return r
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestRenderGolden(t *testing.T) {
	r := goldenRegistry()
	first := r.Render()
	checkGolden(t, "render.golden", first)
	// Byte stability: rendering twice must produce identical bytes.
	if second := r.Render(); second != first {
		t.Error("two renders of the same registry differ")
	}
	checkGolden(t, "snapshot.golden", r.Snapshot())
}

func TestRenderSorted(t *testing.T) {
	// Registration order must not leak into output order.
	a, b := New(), New()
	a.Counter("zz_last_total", "").Inc()
	a.Counter("aa_first_total", "").Inc()
	b.Counter("aa_first_total", "").Inc()
	b.Counter("zz_last_total", "").Inc()
	if a.Render() != b.Render() {
		t.Errorf("render depends on registration order:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}
