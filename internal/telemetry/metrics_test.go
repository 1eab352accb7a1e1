package telemetry

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_ops_total", "ops"); again != c {
		t.Fatal("re-registration did not return the same handle")
	}
	g := r.Gauge("test_depth_current", "depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestNameValidation(t *testing.T) {
	bad := []string{"Lookups", "fib", "fib-lookups", "fib__", "_fib_x", "fib_Lookups", "9fib_x"}
	for _, name := range bad {
		if CheckName(name) {
			t.Errorf("CheckName(%q) accepted a bad name", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", name)
				}
			}()
			New().Counter(name, "")
		}()
	}
	good := []string{"fib_lookups_total", "bgp_messages_in_total", "health_sessions_down", "a_b"}
	for _, name := range good {
		if !CheckName(name) {
			t.Errorf("CheckName(%q) rejected a good name", name)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("test_thing_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge re-registration of a counter name did not panic")
		}
	}()
	r.Gauge("test_thing_total", "")
}

func TestVecHandles(t *testing.T) {
	r := New()
	v := r.CounterVec("test_hits_total", "hits", "pop")
	lon := v.With("LON")
	lon.Add(3)
	if v.With("LON") != lon {
		t.Fatal("With did not return the pre-resolved handle")
	}
	v.With("SIN").Inc()
	out := r.Render()
	for _, want := range []string{`test_hits_total{pop="LON"} 3`, `test_hits_total{pop="SIN"} 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestVecArityPanics(t *testing.T) {
	r := New()
	v := r.CounterVec("test_hits_total", "hits", "pop")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("LON", "extra")
}

func TestHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %g, want 106", h.Sum())
	}
	_, counts := h.Buckets()
	want := []uint64{2, 1, 1, 1} // <=1: {0.5,1}; <=2: {1.5}; <=4: {3}; +Inf: {100}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, counts[i], want[i], counts)
		}
	}
	if q := h.Quantile(0); q < 0 || q > 1 {
		t.Errorf("q0 = %g, want within first bucket", q)
	}
	if q := h.Quantile(1); q != 4 {
		t.Errorf("q1 = %g, want clamp to last finite bound 4", q)
	}
	med := h.Quantile(0.5)
	if med < 1 || med > 2 {
		t.Errorf("median = %g, want in (1,2]", med)
	}
	empty := newHistogram(nil)
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

// TestDefBucketsResolveMicroseconds: a convergence stage of a few
// microseconds (a single-prefix FIB delta takes that) reads back inside
// its own DefBuckets bucket, not interpolated across a wider one.
func TestDefBucketsResolveMicroseconds(t *testing.T) {
	for _, v := range []float64{3e-6, 40e-6} {
		h := newHistogram(DefBuckets)
		for range 100 {
			h.Observe(v)
		}
		i := sort.SearchFloat64s(DefBuckets, v)
		if i == 0 {
			t.Errorf("%gs samples fall in the first bucket, (0, %g]", v, DefBuckets[0])
			continue
		}
		lo, hi := DefBuckets[i-1], DefBuckets[i]
		if q := h.Quantile(0.5); q <= lo || q > hi {
			t.Errorf("%gs samples: p50 %g outside their bucket (%g, %g]", v, q, lo, hi)
		}
	}
}

func TestRegisterFunc(t *testing.T) {
	r := New()
	r.RegisterFunc("test_links_tx_total", "per-link tx", KindCounter, []string{"link"},
		func(emit func([]string, float64)) {
			emit([]string{"b"}, 2)
			emit([]string{"a"}, 1)
		})
	out := r.Snapshot()
	want := "test_links_tx_total{link=\"a\"} 1\ntest_links_tx_total{link=\"b\"} 2\n"
	if out != want {
		t.Fatalf("snapshot = %q, want %q", out, want)
	}
}

func TestSnapshotExcludesVolatile(t *testing.T) {
	r := New()
	r.Counter("test_stable_total", "").Inc()
	r.Histogram("test_compile_seconds", "", DefBuckets).Observe(0.003)
	r.MarkVolatile("test_compile_seconds")
	snap := r.Snapshot()
	if strings.Contains(snap, "compile_seconds") {
		t.Errorf("snapshot contains volatile family:\n%s", snap)
	}
	if !strings.Contains(r.Render(), "test_compile_seconds_count 1") {
		t.Errorf("full render missing volatile family:\n%s", r.Render())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1:       "1",
		1e7:     "10000000",
		2.5:     "2.5",
		0.00025: "0.00025",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		// Documented: exposition uses "+Inf" only for the synthetic
		// bucket bound; gauges should never carry infinities.
		t.Logf("formatFloat(+Inf) = %q", got)
	}
}
