package measure

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 {
		t.Errorf("bad summary: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-9 {
		t.Errorf("stddev = %v, want sqrt(2.5)", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x, want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := c.CCDFAt(2.5); got != 0.5 {
		t.Errorf("CCDFAt(2.5) = %v, want 0.5", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Percentile(0.5) != 0 || c.N() != 0 {
		t.Error("empty CDF misbehaves")
	}
	if pts := c.Points(5); pts != nil {
		t.Error("empty CDF should yield no points")
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("NewCDF mutated its input")
	}
}

func TestPercentile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Percentile(0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := c.Percentile(1); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := c.Percentile(0.5); got != 30 {
		t.Errorf("median = %v", got)
	}
	if got := c.Percentile(0.25); got != 20 {
		t.Errorf("p25 = %v", got)
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		c := NewCDF(clean)
		prev := -1.0
		for _, x := range append([]float64{-1e9, 0, 1e9}, clean...) {
			v := c.At(x)
			if v < 0 || v > 1 {
				return false
			}
			_ = prev
		}
		// Monotonicity over the sorted sample values.
		s := make([]float64, len(clean))
		copy(s, clean)
		sort.Float64s(s)
		last := 0.0
		for _, x := range s {
			v := c.At(x)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(xs []float64, q float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		qq := math.Mod(math.Abs(q), 1)
		v := c.Percentile(qq)
		s := Summarize(clean)
		return v >= s.Min-1e-9 && v <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("got %d points, want 11", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 9 {
		t.Errorf("point range [%v, %v], want [0, 9]", pts[0].X, pts[len(pts)-1].X)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("final CDF value = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Errorf("CDF points not monotone at %d", i)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1: loss", "Region", "LTP", "STP")
	tb.AddRow("AP", "0.45", "1.30")
	tb.AddRow("EU", "0.11", "0.62")
	out := tb.String()
	if !strings.Contains(out, "Table 1: loss") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "0.45") || !strings.Contains(out, "0.62") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.1234); got != "12.3%" {
		t.Errorf("Pct = %q", got)
	}
}
