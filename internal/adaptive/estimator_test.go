package adaptive

import (
	"math"
	"net/netip"
	"sync"
	"testing"
)

func pfx(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

// TestEWMAHalfLife pins the time-based weighting: after exactly one
// half-life, the old estimate retains half its weight regardless of
// how many samples carried it there.
func TestEWMAHalfLife(t *testing.T) {
	cases := []struct {
		name     string
		halfLife float64
		old, new float64
		dt       float64
		want     float64
	}{
		{"one_half_life", 2, 100, 200, 2, 150},
		{"two_half_lives", 2, 100, 200, 4, 175},
		{"half_a_half_life", 2, 100, 200, 1, 100*math.Exp2(-0.5) + 200*(1-math.Exp2(-0.5))},
		{"zero_dt_keeps_old", 2, 100, 200, 0, 100},
		{"unit_half_life", 1, 40, 80, 1, 60},
		{"long_gap_forgets", 2, 100, 200, 40, 100*math.Exp2(-20) + 200*(1-math.Exp2(-20))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &PathEstimator{invHalfLife: 1 / tc.halfLife}
			p.Ingest(tc.old, 10)
			p.Ingest(tc.new, 10+tc.dt)
			got := p.State().SmoothedMs
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("smoothed = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestEWMAConvergence drives a constant signal and checks the estimate
// closes most of the gap within a few half-lives, from any start.
func TestEWMAConvergence(t *testing.T) {
	p := &PathEstimator{invHalfLife: 1 / 2.0}
	p.Ingest(300, 0)
	for i := 1; i <= 20; i++ {
		p.Ingest(50, float64(i)) // 20 s = 10 half-lives
	}
	s := p.State()
	if math.Abs(s.SmoothedMs-50) > 0.5 {
		t.Errorf("after 10 half-lives at 50ms, smoothed = %v", s.SmoothedMs)
	}
	if s.Samples != 21 {
		t.Errorf("samples = %d, want 21", s.Samples)
	}
	if s.LastAt != 20 {
		t.Errorf("lastAt = %v, want 20", s.LastAt)
	}
}

// TestFirstSampleInitializes checks sample #1 is taken verbatim with
// zero jitter.
func TestFirstSampleInitializes(t *testing.T) {
	p := &PathEstimator{invHalfLife: 1}
	p.Ingest(123.5, 7)
	s := p.State()
	if s.SmoothedMs != 123.5 || s.JitterMs != 0 || s.Samples != 1 || s.LastAt != 7 {
		t.Errorf("first-sample state = %+v", s)
	}
}

// TestJitterTracksDeviation: a steady signal drives jitter to zero; an
// alternating one keeps it near the swing amplitude's EWMA.
func TestJitterTracksDeviation(t *testing.T) {
	steady := &PathEstimator{invHalfLife: 1 / 2.0}
	for i := 0; i < 30; i++ {
		steady.Ingest(100, float64(i))
	}
	if j := steady.State().JitterMs; j > 0.01 {
		t.Errorf("steady-signal jitter = %v, want ~0", j)
	}

	noisy := &PathEstimator{invHalfLife: 1 / 2.0}
	for i := 0; i < 60; i++ {
		v := 100.0
		if i%2 == 1 {
			v = 140
		}
		noisy.Ingest(v, float64(i))
	}
	if j := noisy.State().JitterMs; j < 10 || j > 30 {
		t.Errorf("alternating ±20ms signal jitter = %v, want within (10,30)", j)
	}
}

// TestIngestClampsBackwardTime: a sample stamped before the previous
// one must not produce NaN or a negative weight.
func TestIngestClampsBackwardTime(t *testing.T) {
	p := &PathEstimator{invHalfLife: 1 / 2.0}
	p.Ingest(100, 10)
	p.Ingest(200, 5) // clock went backward: dt clamps to 0
	s := p.State()
	if math.IsNaN(s.SmoothedMs) || s.SmoothedMs != 100 {
		t.Errorf("backward-time smoothed = %v, want 100 (old retained at w=1)", s.SmoothedMs)
	}
	if s.LastAt != 5 {
		t.Errorf("lastAt = %v, want 5", s.LastAt)
	}
}

func TestSnapshotGates(t *testing.T) {
	s := Snapshot{Samples: 2, LastAt: 10}
	if s.Warm(3) {
		t.Error("2 samples should not be warm at minSamples=3")
	}
	if !s.Warm(2) {
		t.Error("2 samples should be warm at minSamples=2")
	}
	if !s.Fresh(15, 5) {
		t.Error("age 5 at maxAge 5 should be fresh")
	}
	if s.Fresh(15.1, 5) {
		t.Error("age 5.1 at maxAge 5 should be stale")
	}
	if (Snapshot{}).Fresh(0, 100) {
		t.Error("zero-sample snapshot must never be fresh")
	}
}

func TestEstimatorRegistry(t *testing.T) {
	e := NewEstimator(0)
	if e.halfLife != DefaultHalfLifeSec {
		t.Errorf("zero half-life should default to %v, got %v", DefaultHalfLifeSec, e.halfLife)
	}
	k1 := Key{PoP: 1, Prefix: pfx(t, "192.0.2.0/24")}
	k2 := Key{PoP: 2, Prefix: pfx(t, "192.0.2.0/24")}
	p1 := e.Path(k1)
	if e.Path(k1) != p1 {
		t.Error("Path must return the same estimator for the same key")
	}
	if e.Path(k2) == p1 {
		t.Error("distinct keys must get distinct estimators")
	}
	if len(e.paths) != 2 {
		t.Errorf("paths = %d, want 2", len(e.paths))
	}
	if _, ok := e.Lookup(k1); !ok {
		t.Error("Lookup missed a registered key")
	}
	if _, ok := e.Lookup(Key{PoP: 9, Prefix: pfx(t, "198.51.100.0/24")}); ok {
		t.Error("Lookup invented an unregistered key")
	}
}

// TestIngestStateRace hammers concurrent ingestion against snapshot
// reads; run with -race. Timestamps per goroutine are monotone, which
// is all the estimator needs.
func TestIngestStateRace(t *testing.T) {
	e := NewEstimator(2)
	keys := []Key{
		{PoP: 1, Prefix: pfx(t, "192.0.2.0/24")},
		{PoP: 2, Prefix: pfx(t, "192.0.2.0/24")},
		{PoP: 1, Prefix: pfx(t, "198.51.100.0/24")},
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys[(w+i)%len(keys)]
				e.Path(k).Ingest(100+float64(i%40), float64(i))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				for _, k := range keys {
					if p, ok := e.Lookup(k); ok {
						s := p.State()
						if s.Samples > 0 && (math.IsNaN(s.SmoothedMs) || s.SmoothedMs < 0) {
							t.Error("torn or invalid snapshot")
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
