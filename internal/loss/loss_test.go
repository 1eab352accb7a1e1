package loss

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(7)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d count %d far from 1000", i, c)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(5)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestRNGNormFloat64(t *testing.T) {
	r := NewRNG(11)
	n := 100000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	variance := ss/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestRNGExpFloat64(t *testing.T) {
	r := NewRNG(13)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v", mean)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(42)
	a := parent.Fork(1)
	b := parent.Fork(2)
	a2 := NewRNG(42).Fork(1)
	same := 0
	for i := 0; i < 100; i++ {
		av, bv := a.Uint64(), b.Uint64()
		if av == bv {
			same++
		}
		if av != a2.Uint64() {
			t.Fatal("fork not deterministic")
		}
	}
	if same > 0 {
		t.Error("forked streams collide")
	}
}

func TestUniformRate(t *testing.T) {
	u := NewUniform(0.05, NewRNG(1))
	n, drops := 200000, 0
	for i := 0; i < n; i++ {
		if u.Drop(0) {
			drops++
		}
	}
	got := float64(drops) / float64(n)
	if math.Abs(got-0.05) > 0.005 {
		t.Errorf("uniform loss rate = %v, want 0.05", got)
	}
	if u.Rate(0) != 0.05 {
		t.Error("Rate() wrong")
	}
}

func TestNone(t *testing.T) {
	var m None
	if m.Drop(0) || m.Rate(0) != 0 {
		t.Error("None should never drop")
	}
}

func TestGilbertElliottStationaryRate(t *testing.T) {
	// G->B 0.001, B->G 0.1 => stationary P(bad) ~ 0.0099; PBad=0.5.
	g := NewGilbertElliott(0.001, 0.1, 0, 0.5, NewRNG(2))
	want := g.Rate(0)
	n, drops := 2000000, 0
	for i := 0; i < n; i++ {
		if g.Drop(0) {
			drops++
		}
	}
	got := float64(drops) / float64(n)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("GE empirical rate %v vs stationary %v", got, want)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// Compare run-length distribution of GE vs uniform at same mean rate.
	g := NewGilbertElliott(0.0005, 0.05, 0, 0.8, NewRNG(3))
	rate := g.Rate(0)
	u := NewUniform(rate, NewRNG(4))
	longestRun := func(m Model, n int) int {
		longest, run := 0, 0
		for i := 0; i < n; i++ {
			if m.Drop(0) {
				run++
				if run > longest {
					longest = run
				}
			} else {
				run = 0
			}
		}
		return longest
	}
	n := 500000
	gRun := longestRun(g, n)
	uRun := longestRun(u, n)
	if gRun <= uRun {
		t.Errorf("GE longest run %d not burstier than uniform %d", gRun, uRun)
	}
}

func TestGilbertElliottDegenerate(t *testing.T) {
	g := NewGilbertElliott(0, 0, 0.1, 0.9, NewRNG(5))
	if got := g.Rate(0); got != 0.1 {
		t.Errorf("degenerate rate in good state = %v", got)
	}
	if g.bad {
		t.Error("should start in good state")
	}
}

func TestDiurnalFactorShape(t *testing.T) {
	d := NewDiurnal(NewUniform(0.01, NewRNG(6)), 4, 14, 6, NewRNG(7))
	peak := d.Factor(14 * 3600)
	if math.Abs(peak-5) > 1e-9 {
		t.Errorf("peak factor = %v, want 5", peak)
	}
	night := d.Factor(2 * 3600)
	if night != 1 {
		t.Errorf("off-peak factor = %v, want 1", night)
	}
	// Halfway down the bump.
	mid := d.Factor(17 * 3600)
	if mid <= 1 || mid >= 5 {
		t.Errorf("shoulder factor = %v, want in (1,5)", mid)
	}
}

func TestDiurnalFactorWrapsMidnight(t *testing.T) {
	d := NewDiurnal(None{}, 2, 23, 3, NewRNG(8))
	// 1am is 2 circular hours from 23h, inside the width-3 bump.
	if f := d.Factor(1 * 3600); f <= 1 {
		t.Errorf("factor at 1am = %v, want > 1 (circular distance)", f)
	}
}

func TestDiurnalEmpiricalRate(t *testing.T) {
	base := NewUniform(0.01, NewRNG(9))
	d := NewDiurnal(base, 3, 12, 4, NewRNG(10))
	count := func(hour float64) float64 {
		drops := 0
		n := 100000
		for i := 0; i < n; i++ {
			if d.Drop(hour * 3600) {
				drops++
			}
		}
		return float64(drops) / float64(n)
	}
	peakRate := count(12)
	nightRate := count(0)
	if peakRate < 3*nightRate {
		t.Errorf("peak %v not >> night %v", peakRate, nightRate)
	}
}

func TestBurstEvents(t *testing.T) {
	b := NewBurstEvents(None{}, 6, 5, 0.9, NewRNG(11)) // 6/hr, 5s long
	// Walk one simulated hour at 100 pkt/s.
	drops := 0
	for i := 0; i < 360000; i++ {
		if b.Drop(float64(i) / 100) {
			drops++
		}
	}
	// Expected: ~6 events * 5s * 100pps * 0.9 = 2700 drops.
	if drops < 500 || drops > 8000 {
		t.Errorf("burst drops = %d, want around 2700", drops)
	}
	want := 6.0 * 5 / 3600 * 0.9
	if got := b.Rate(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("burst Rate = %v, want %v", got, want)
	}
}

func TestBurstEventsZeroRate(t *testing.T) {
	b := NewBurstEvents(None{}, 0, 5, 0.9, NewRNG(12))
	for i := 0; i < 1000; i++ {
		if b.Drop(float64(i)) {
			t.Fatal("burst with zero rate dropped a packet")
		}
	}
}

func TestCompose(t *testing.T) {
	c := Compose{NewUniform(0.1, NewRNG(13)), NewUniform(0.2, NewRNG(14))}
	want := 1 - 0.9*0.8
	if got := c.Rate(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("compose rate = %v, want %v", got, want)
	}
	n, drops := 200000, 0
	for i := 0; i < n; i++ {
		if c.Drop(0) {
			drops++
		}
	}
	got := float64(drops) / float64(n)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("compose empirical = %v, want %v", got, want)
	}
}

func TestComposeEmpty(t *testing.T) {
	var c Compose
	if c.Drop(0) || c.Rate(0) != 0 {
		t.Error("empty compose should be lossless")
	}
}

func TestRatesWithinUnitIntervalProperty(t *testing.T) {
	f := func(p1, p2, amp uint8) bool {
		a := float64(p1) / 255
		b := float64(p2) / 255
		rng := NewRNG(uint64(p1)<<8 | uint64(p2))
		models := []Model{
			NewUniform(a, rng.Fork(1)),
			NewGilbertElliott(a/10, b/2+0.01, a/100, b, rng.Fork(2)),
			NewDiurnal(NewUniform(a/10, rng.Fork(3)), float64(amp)/64, 12, 5, rng.Fork(4)),
			Compose{NewUniform(a, rng.Fork(5)), NewUniform(b, rng.Fork(6))},
		}
		for _, m := range models {
			for _, tm := range []float64{0, 3600 * 6, 3600 * 12, 3600 * 23} {
				r := m.Rate(tm)
				if r < 0 || r > 1 || math.IsNaN(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkGilbertElliott(b *testing.B) {
	g := NewGilbertElliott(0.001, 0.1, 0.0001, 0.3, NewRNG(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Drop(float64(i))
	}
}
