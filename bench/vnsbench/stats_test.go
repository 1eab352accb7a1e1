package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// The reported tail must leave at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}} {
		if pct, _ := tailPercentile(make([]float64, c.n)); pct != c.want {
			t.Errorf("n=%d: tail p%d, want p%d", c.n, pct, c.want)
		}
	}
}

func TestWindowRates(t *testing.T) {
	got := windowRates(1000, []float64{0.5, 0, 2})
	if len(got) != 2 || got[0] != 2000 || got[1] != 500 {
		t.Errorf("windowRates = %v, want [2000 500]", got)
	}
	// One slow window must not move the reported median.
	if m := median(windowRates(1000, []float64{1, 1, 1, 1, 9})); m != 1000 {
		t.Errorf("median window rate = %v, want 1000", m)
	}
}
